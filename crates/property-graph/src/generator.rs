//! Random property-graph generation.
//!
//! Small random graphs are the workhorse of two GraphQE-rs components:
//!
//! * **property testing** — queries proven equivalent by the prover must
//!   return the same bag of rows on randomly generated graphs;
//! * **counterexample search** — the prover certifies non-equivalence by
//!   exhibiting a concrete graph on which the two queries disagree.
//!
//! The generator is deliberately biased towards *small, label-dense* graphs:
//! small graphs make bag comparison cheap, and reusing a small pool of labels
//! and property keys makes pattern predicates actually select something.
//!
//! A generator interns its vocabulary (labels, relationship types, property
//! keys) into one [`NameTable`] when it is built and shares it (`Arc`) with
//! every graph it generates, so drawing a label, key or type writes a
//! [`NameId`] — no name is cloned per graph. [`GraphGenerator::sibling`]
//! shares the configuration and the interned vocabulary with a second
//! generator of other bounds, as the counterexample pools' small and large
//! generators do. The random draw sequence is part of the contract: a seed
//! and a configuration fix every graph, which is what makes counterexample
//! pool indexes replayable.

use std::sync::Arc;

use cypher_parser::ast::{Clause, Expr, Literal, Query};

use crate::graph::{NameId, NameTable, NodeId, PropertyGraph};
use crate::rng::DetRng;
use crate::value::Value;

/// Configuration of the random graph generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GeneratorConfig {
    /// Maximum number of nodes (the actual count is sampled in `0..=max`).
    pub max_nodes: usize,
    /// Maximum number of relationships.
    pub max_relationships: usize,
    /// Node labels to sample from.
    pub node_labels: Vec<String>,
    /// Relationship labels to sample from.
    pub relationship_labels: Vec<String>,
    /// Property keys to sample from.
    pub property_keys: Vec<String>,
    /// Largest absolute value of integer properties.
    pub max_int: i64,
    /// Additional integer values to sample from (e.g. constants appearing in
    /// the queries under test, so predicates actually select rows).
    pub int_pool: Vec<i64>,
    /// Additional string values to sample from.
    pub string_pool: Vec<String>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            max_nodes: 6,
            max_relationships: 10,
            node_labels: ["Person", "Book", "City", "Tag"].map(String::from).to_vec(),
            relationship_labels: ["READ", "WRITE", "KNOWS", "IN"].map(String::from).to_vec(),
            property_keys: ["name", "age", "p1", "p2", "dept"].map(String::from).to_vec(),
            max_int: 5,
            int_pool: Vec::new(),
            string_pool: Vec::new(),
        }
    }
}

impl GeneratorConfig {
    /// Builds a generator configuration from the labels, property keys and
    /// constants mentioned by the given queries, so that generated graphs can
    /// actually satisfy the queries' predicates.
    pub fn from_queries(queries: &[&Query]) -> GeneratorConfig {
        let mut config = GeneratorConfig::default();
        let add_unique = |list: &mut Vec<String>, value: String| {
            if !list.contains(&value) {
                list.push(value);
            }
        };
        let mut int_pool = Vec::new();
        let mut string_pool = Vec::new();
        let visit_expr = |expr: &Expr,
                          property_keys: &mut Vec<String>,
                          int_pool: &mut Vec<i64>,
                          string_pool: &mut Vec<String>| {
            expr.walk(&mut |e| match e {
                Expr::Property(_, key) if !property_keys.contains(key) => {
                    property_keys.push(key.clone());
                }
                Expr::Literal(Literal::Integer(v)) => {
                    // A neighbour beyond the i64 range does not exist.
                    for candidate in
                        [v.checked_sub(1), Some(*v), v.checked_add(1)].into_iter().flatten()
                    {
                        if !int_pool.contains(&candidate) {
                            int_pool.push(candidate);
                        }
                    }
                }
                Expr::Literal(Literal::String(s)) if !string_pool.contains(s) => {
                    string_pool.push(s.clone());
                }
                Expr::Literal(Literal::Boolean(_)) => {}
                _ => {}
            });
        };
        for query in queries {
            for part in &query.parts {
                for clause in &part.clauses {
                    match clause {
                        Clause::Match(m) => {
                            for pattern in &m.patterns {
                                for node in pattern.nodes() {
                                    for label in &node.labels {
                                        add_unique(&mut config.node_labels, label.clone());
                                    }
                                    for (key, value) in &node.properties {
                                        add_unique(&mut config.property_keys, key.clone());
                                        visit_expr(
                                            value,
                                            &mut config.property_keys,
                                            &mut int_pool,
                                            &mut string_pool,
                                        );
                                    }
                                }
                                for rel in pattern.relationships() {
                                    for label in &rel.labels {
                                        add_unique(&mut config.relationship_labels, label.clone());
                                    }
                                    for (key, value) in &rel.properties {
                                        add_unique(&mut config.property_keys, key.clone());
                                        visit_expr(
                                            value,
                                            &mut config.property_keys,
                                            &mut int_pool,
                                            &mut string_pool,
                                        );
                                    }
                                }
                            }
                            if let Some(predicate) = &m.where_clause {
                                visit_expr(
                                    predicate,
                                    &mut config.property_keys,
                                    &mut int_pool,
                                    &mut string_pool,
                                );
                            }
                        }
                        Clause::Unwind(u) => visit_expr(
                            &u.expr,
                            &mut config.property_keys,
                            &mut int_pool,
                            &mut string_pool,
                        ),
                        Clause::With(w) => {
                            if let Some(items) = w.projection.explicit_items() {
                                for item in items {
                                    visit_expr(
                                        &item.expr,
                                        &mut config.property_keys,
                                        &mut int_pool,
                                        &mut string_pool,
                                    );
                                }
                            }
                            if let Some(predicate) = &w.where_clause {
                                visit_expr(
                                    predicate,
                                    &mut config.property_keys,
                                    &mut int_pool,
                                    &mut string_pool,
                                );
                            }
                        }
                        Clause::Return(p) => {
                            if let Some(items) = p.explicit_items() {
                                for item in items {
                                    visit_expr(
                                        &item.expr,
                                        &mut config.property_keys,
                                        &mut int_pool,
                                        &mut string_pool,
                                    );
                                }
                            }
                            for order in &p.order_by {
                                visit_expr(
                                    &order.expr,
                                    &mut config.property_keys,
                                    &mut int_pool,
                                    &mut string_pool,
                                );
                            }
                        }
                    }
                }
            }
        }
        config.int_pool = int_pool;
        config.string_pool = string_pool;
        config
    }
}

/// A configuration's vocabulary, interned once: the table every generated
/// graph shares, and the configuration's name lists as ids in it.
#[derive(Debug)]
struct Vocabulary {
    names: Arc<NameTable>,
    /// `node_labels`, `relationship_labels` and `property_keys` of the
    /// configuration as ids in `names`, position by position.
    node_labels: Vec<NameId>,
    relationship_labels: Vec<NameId>,
    property_keys: Vec<NameId>,
}

/// A deterministic random graph generator.
#[derive(Debug)]
pub struct GraphGenerator {
    config: Arc<GeneratorConfig>,
    vocabulary: Arc<Vocabulary>,
    /// The node and relationship bounds: the configuration's, or a
    /// sibling's own.
    max_nodes: usize,
    max_relationships: usize,
    rng: DetRng,
}

impl GraphGenerator {
    /// Creates a generator with the given seed and default configuration.
    pub fn new(seed: u64) -> Self {
        GraphGenerator::with_config(seed, GeneratorConfig::default())
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(seed: u64, config: GeneratorConfig) -> Self {
        GraphGenerator::shared(seed, Arc::new(config))
    }

    /// Creates a generator over a shared configuration, which it reads but
    /// does not copy.
    pub fn shared(seed: u64, config: Arc<GeneratorConfig>) -> Self {
        let mut names = NameTable::default();
        let mut intern = |list: &[String]| -> Vec<NameId> {
            list.iter().map(|name| names.intern(name)).collect()
        };
        let node_labels = intern(&config.node_labels);
        let relationship_labels = intern(&config.relationship_labels);
        let property_keys = intern(&config.property_keys);
        let vocabulary =
            Vocabulary { names: Arc::new(names), node_labels, relationship_labels, property_keys };
        GraphGenerator {
            max_nodes: config.max_nodes,
            max_relationships: config.max_relationships,
            config,
            vocabulary: Arc::new(vocabulary),
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// A generator with its own seed and size bounds that shares this one's
    /// configuration and interned vocabulary: its graphs are the ones
    /// [`GraphGenerator::with_config`] would generate from the configuration
    /// with `max_nodes` and `max_relationships` replaced.
    pub fn sibling(&self, seed: u64, max_nodes: usize, max_relationships: usize) -> Self {
        GraphGenerator {
            config: Arc::clone(&self.config),
            vocabulary: Arc::clone(&self.vocabulary),
            max_nodes,
            max_relationships,
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// Generates the next random property graph.
    pub fn generate(&mut self) -> PropertyGraph {
        let mut graph = PropertyGraph::with_names(Arc::clone(&self.vocabulary.names));
        let node_count = self.rng.range_inclusive_usize(0, self.max_nodes);
        // Room for the most a node can draw: two labels, three properties.
        graph.reserve(node_count, 2 * node_count, 0, 3 * node_count);
        for _ in 0..node_count {
            let label_count = self.rng.range_inclusive_usize(0, 2);
            let mut labels = [NameId(0); 2];
            for label in &mut labels[..label_count] {
                let labels = &self.vocabulary.node_labels;
                *label = labels[self.rng.range_usize(0, labels.len())];
            }
            let properties = self.sample_properties();
            graph.add_node_ids(labels[..label_count].iter().copied(), properties);
        }
        if node_count > 0 {
            let rel_count = self.rng.range_inclusive_usize(0, self.max_relationships);
            graph.reserve(0, 0, rel_count, 3 * rel_count);
            for _ in 0..rel_count {
                let source = NodeId(self.rng.range_usize(0, node_count) as u32);
                let target = NodeId(self.rng.range_usize(0, node_count) as u32);
                let types = &self.vocabulary.relationship_labels;
                let rel_type = types[self.rng.range_usize(0, types.len())];
                graph.add_relationship_ids(rel_type, source, target, self.sample_properties());
            }
        }
        graph
    }

    /// Generates a sequence of `count` random graphs.
    pub fn generate_many(&mut self, count: usize) -> Vec<PropertyGraph> {
        (0..count).map(|_| self.generate()).collect()
    }

    /// Draws one entity's properties (at most three, keys may repeat). The
    /// draws happen as the returned iterator is consumed.
    fn sample_properties(&mut self) -> impl Iterator<Item = (NameId, Value)> + '_ {
        let count = self.rng.range_inclusive_usize(0, 3);
        (0..count).map(move |_| {
            let keys = &self.vocabulary.property_keys;
            let key = keys[self.rng.range_usize(0, keys.len())];
            let value = match self.rng.range_usize(0, 5) {
                0 => Value::Integer(
                    self.rng.range_inclusive_i64(-self.config.max_int, self.config.max_int),
                ),
                1 => Value::String(
                    ["Alice", "Bob", "x", "y"][self.rng.range_usize(0, 4)].to_string(),
                ),
                2 => Value::Boolean(self.rng.chance(0.5)),
                3 if !self.config.int_pool.is_empty() || !self.config.string_pool.is_empty() => {
                    // Sample a value from the query-derived pools so that
                    // predicates over query constants can actually match.
                    let ints = self.config.int_pool.len();
                    let total = ints + self.config.string_pool.len();
                    let pick = self.rng.range_usize(0, total);
                    if pick < ints {
                        Value::Integer(self.config.int_pool[pick])
                    } else {
                        Value::String(self.config.string_pool[pick - ints].clone())
                    }
                }
                _ => Value::Integer(self.rng.range_inclusive_i64(0, self.config.max_int)),
            };
            (key, value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<_> = GraphGenerator::new(42).generate_many(5);
        let b: Vec<_> = GraphGenerator::new(42).generate_many(5);
        assert_eq!(a, b);
        let c: Vec<_> = GraphGenerator::new(43).generate_many(5);
        assert_ne!(a, c);
    }

    #[test]
    fn integer_pool_skips_neighbours_beyond_the_i64_range() {
        let query = cypher_parser::parse_query(
            "MATCH (n:Person) WHERE n.age = 9223372036854775807 RETURN n",
        )
        .unwrap();
        let config = GeneratorConfig::from_queries(&[&query]);
        assert_eq!(config.int_pool, vec![i64::MAX - 1, i64::MAX]);

        // The parser cannot produce `i64::MIN` (its magnitude overflows the
        // lexer), so that literal is put into the AST by hand.
        let mut query = cypher_parser::parse_query("MATCH (n) WHERE n.age = 0 RETURN n").unwrap();
        let Clause::Match(clause) = &mut query.parts[0].clauses[0] else { panic!("MATCH") };
        let Some(Expr::Binary(_, _, right)) = &mut clause.where_clause else { panic!("n.age = 0") };
        **right = Expr::int(i64::MIN);
        let config = GeneratorConfig::from_queries(&[&query]);
        assert_eq!(config.int_pool, vec![i64::MIN, i64::MIN + 1]);
    }

    #[test]
    fn siblings_generate_what_their_own_configuration_would() {
        let config = GeneratorConfig::default();
        let large = GeneratorConfig { max_nodes: 9, max_relationships: 16, ..config.clone() };
        let small = GraphGenerator::shared(5, Arc::new(config));
        let mut sibling = small.sibling(6, 9, 16);
        assert!(Arc::ptr_eq(&small.vocabulary, &sibling.vocabulary));
        assert_eq!(
            sibling.generate_many(8),
            GraphGenerator::with_config(6, large).generate_many(8)
        );
    }

    #[test]
    fn generated_graphs_respect_bounds() {
        let mut generator = GraphGenerator::new(7);
        for graph in generator.generate_many(50) {
            assert!(graph.node_count() <= 6);
            assert!(graph.relationship_count() <= 10);
            if graph.node_count() == 0 {
                assert_eq!(graph.relationship_count(), 0);
            }
        }
    }

    #[test]
    fn generated_relationships_reference_valid_nodes() {
        let mut generator = GraphGenerator::new(11);
        for graph in generator.generate_many(50) {
            for id in graph.relationship_ids() {
                let rel = graph.relationship(id);
                assert!((rel.source.0 as usize) < graph.node_count());
                assert!((rel.target.0 as usize) < graph.node_count());
            }
        }
    }
}
