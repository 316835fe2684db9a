//! The property graph model ⟨N, R, ρ, λ, σ⟩ of Definition 1 in the paper.
//!
//! * `N` — a finite set of nodes;
//! * `R` — a finite set of directed relationships;
//! * `ρ : R → N × N` — maps each relationship to its outgoing (source) and
//!   incoming (target) nodes;
//! * `λ` — associates nodes with a set of labels and each relationship with
//!   exactly one label (the Cypher restriction);
//! * `σ` — a partial function from (entity, property key) to constants.
//!
//! ## Representation
//!
//! Labels, relationship types and property keys are dense [`NameId`]s,
//! resolved through a [`NameTable`]. The counterexample search builds
//! thousands of small graphs over one vocabulary, so a
//! [`crate::GraphGenerator`] interns its vocabulary once and shares the table
//! (`Arc`) with every graph it generates: drawing a label, key or type writes
//! a `u32`, never a `String`. Hand-built graphs own their table and intern
//! names as they are added ([`PropertyGraph::add_node`]).
//!
//! Node labels and the properties of every entity live in two flat vectors
//! per graph; each node or relationship records its run in them. A node's
//! label run is name-sorted and duplicate-free, and every property run is
//! name-sorted with one entry per key (a repeated key keeps its last value),
//! so every name-facing read — `labels()`, property reads, [`fmt::Display`],
//! the certificate's graph — sees the same order a `BTreeSet` / `BTreeMap`
//! would give. Equality is structural over names, never over ids, so two
//! graphs with different tables compare equal when they hold the same data.
//!
//! A graph holds its data and nothing derived from it: the matcher
//! ([`crate::matching`]) scans the node and relationship vectors in id
//! order, which for graphs of the evaluator's size (at most 9 nodes and 16
//! relationships in a counterexample pool) costs less than building an
//! adjacency index would.

use std::fmt;
use std::sync::Arc;

use crate::fxhash::FxHashMap;
use crate::value::Value;

/// Identifier of a node within a [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a relationship within a [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(pub u32);

/// A graph entity reference: either a node or a relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EntityId {
    /// A node.
    Node(NodeId),
    /// A relationship.
    Relationship(RelId),
}

/// A label, relationship type or property key, interned in a [`NameTable`].
/// Ids are dense in interning order and only meaningful with their table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

/// The interned names of one or more graphs: labels, relationship types and
/// property keys share one id space.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// `NameId.0 as usize` indexes this vector.
    names: Vec<Box<str>>,
    /// Reverse mapping, name → id.
    ids: FxHashMap<Box<str>, NameId>,
}

impl NameTable {
    /// Interns `name`, returning its (possibly pre-existing) id.
    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.into());
        self.ids.insert(name.into(), id);
        id
    }

    /// The id of `name`, or `None` when no graph of this table can carry it.
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.ids.get(name).copied()
    }

    /// The name interned under `id`.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The number of interned names (ids are `0..len`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A node or relationship's run in one of the graph's flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    end: u32,
}

impl Run {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// The stored data of a node: its runs in the graph's label and property
/// vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeData {
    labels: Run,
    properties: Run,
}

/// The stored data of a relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelData {
    /// The single type of the relationship (`λ`, Cypher restriction).
    pub rel_type: NameId,
    /// The outgoing (source) node (`ρ`, first component).
    pub source: NodeId,
    /// The incoming (target) node (`ρ`, second component).
    pub target: NodeId,
    properties: Run,
}

/// A property graph. Cloning shares the name table.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    names: Arc<NameTable>,
    nodes: Vec<NodeData>,
    relationships: Vec<RelData>,
    /// Every node's labels, node after node.
    labels: Vec<NameId>,
    /// Every entity's properties, in insertion order of the entities.
    properties: Vec<(NameId, Value)>,
}

/// Graph equality is structural over names: ids are table-relative.
impl PartialEq for PropertyGraph {
    fn eq(&self, other: &Self) -> bool {
        let same_properties = |entity: EntityId| {
            let (left, right) = (self.properties(entity), other.properties(entity));
            left.len() == right.len()
                && left.iter().zip(right).all(|((k1, v1), (k2, v2))| {
                    self.names.name(*k1) == other.names.name(*k2) && v1 == v2
                })
        };
        self.node_count() == other.node_count()
            && self.relationship_count() == other.relationship_count()
            && self.node_ids().all(|id| {
                self.label_names(id).eq(other.label_names(id))
                    && same_properties(EntityId::Node(id))
            })
            && self.relationship_ids().all(|id| {
                let (left, right) = (self.relationship(id), other.relationship(id));
                self.names.name(left.rel_type) == other.names.name(right.rel_type)
                    && (left.source, left.target) == (right.source, right.target)
                    && same_properties(EntityId::Relationship(id))
            })
    }
}

impl PropertyGraph {
    /// Creates an empty property graph with its own name table.
    pub fn new() -> Self {
        PropertyGraph::default()
    }

    /// Creates an empty graph over a shared name table: nodes and
    /// relationships are then added by id ([`PropertyGraph::add_node_ids`]).
    pub(crate) fn with_names(names: Arc<NameTable>) -> Self {
        PropertyGraph { names, ..PropertyGraph::default() }
    }

    /// The table resolving this graph's label, type and key ids.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The id of `name`, interning it into this graph's table. A shared
    /// table is copied once, on the first name it does not know.
    fn intern(&mut self, name: &str) -> NameId {
        match self.names.lookup(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.names).intern(name),
        }
    }

    /// Adds a node with the given labels and properties, returning its id.
    pub fn add_node<L, K>(
        &mut self,
        labels: impl IntoIterator<Item = L>,
        properties: impl IntoIterator<Item = (K, Value)>,
    ) -> NodeId
    where
        L: AsRef<str>,
        K: AsRef<str>,
    {
        let labels: Vec<NameId> =
            labels.into_iter().map(|label| self.intern(label.as_ref())).collect();
        let properties: Vec<(NameId, Value)> =
            properties.into_iter().map(|(key, value)| (self.intern(key.as_ref()), value)).collect();
        self.add_node_ids(labels, properties)
    }

    /// [`PropertyGraph::add_node`] with names already interned in this
    /// graph's table.
    pub(crate) fn add_node_ids(
        &mut self,
        labels: impl IntoIterator<Item = NameId>,
        properties: impl IntoIterator<Item = (NameId, Value)>,
    ) -> NodeId {
        let start = self.labels.len();
        self.labels.extend(labels);
        let names = &self.names;
        let run = &mut self.labels[start..];
        run.sort_unstable_by(|a, b| names.name(*a).cmp(names.name(*b)));
        let mut end = start;
        for read in start..self.labels.len() {
            if end == start || self.labels[end - 1] != self.labels[read] {
                self.labels[end] = self.labels[read];
                end += 1;
            }
        }
        self.labels.truncate(end);
        let labels = Run { start: start as u32, end: end as u32 };
        let properties = self.push_properties(properties);
        self.nodes.push(NodeData { labels, properties });
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Adds a directed relationship `source -> target` with one label,
    /// returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` are not nodes of this graph.
    pub fn add_relationship<K>(
        &mut self,
        label: impl AsRef<str>,
        source: NodeId,
        target: NodeId,
        properties: impl IntoIterator<Item = (K, Value)>,
    ) -> RelId
    where
        K: AsRef<str>,
    {
        let rel_type = self.intern(label.as_ref());
        let properties: Vec<(NameId, Value)> =
            properties.into_iter().map(|(key, value)| (self.intern(key.as_ref()), value)).collect();
        self.add_relationship_ids(rel_type, source, target, properties)
    }

    /// [`PropertyGraph::add_relationship`] with names already interned in
    /// this graph's table.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` are not nodes of this graph.
    pub(crate) fn add_relationship_ids(
        &mut self,
        rel_type: NameId,
        source: NodeId,
        target: NodeId,
        properties: impl IntoIterator<Item = (NameId, Value)>,
    ) -> RelId {
        assert!((source.0 as usize) < self.nodes.len(), "unknown source node {source:?}");
        assert!((target.0 as usize) < self.nodes.len(), "unknown target node {target:?}");
        let properties = self.push_properties(properties);
        self.relationships.push(RelData { rel_type, source, target, properties });
        RelId((self.relationships.len() - 1) as u32)
    }

    /// Appends one entity's properties, name-sorted with the last value of a
    /// repeated key kept (the `BTreeMap` collection semantics).
    fn push_properties(&mut self, properties: impl IntoIterator<Item = (NameId, Value)>) -> Run {
        let start = self.properties.len();
        self.properties.extend(properties);
        let names = &self.names;
        // Stable, so a repeated key's entries stay in insertion order.
        self.properties[start..].sort_by(|a, b| names.name(a.0).cmp(names.name(b.0)));
        let mut end = start;
        for read in start..self.properties.len() {
            if end > start && self.properties[end - 1].0 == self.properties[read].0 {
                self.properties.swap(end - 1, read);
            } else {
                self.properties.swap(end, read);
                end += 1;
            }
        }
        self.properties.truncate(end);
        Run { start: start as u32, end: end as u32 }
    }

    /// Reserves room for `nodes` more nodes carrying `labels` labels in all,
    /// and for `relationships` more relationships; `properties` counts the
    /// properties of both.
    pub(crate) fn reserve(
        &mut self,
        nodes: usize,
        labels: usize,
        relationships: usize,
        properties: usize,
    ) {
        self.nodes.reserve(nodes);
        self.labels.reserve(labels);
        self.relationships.reserve(relationships);
        self.properties.reserve(properties);
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The number of relationships.
    pub fn relationship_count(&self) -> usize {
        self.relationships.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all relationship ids.
    pub fn relationship_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relationships.len() as u32).map(RelId)
    }

    /// A node's labels (`λ`), name-sorted and duplicate-free.
    pub(crate) fn labels(&self, id: NodeId) -> &[NameId] {
        &self.labels[self.nodes[id.0 as usize].labels.range()]
    }

    /// A node's label names, in name order.
    pub fn label_names(&self, id: NodeId) -> impl Iterator<Item = &str> + '_ {
        self.labels(id).iter().map(|label| self.names.name(*label))
    }

    /// Accesses a relationship's data.
    pub fn relationship(&self, id: RelId) -> &RelData {
        &self.relationships[id.0 as usize]
    }

    /// The name of a relationship's type.
    pub fn rel_type_name(&self, id: RelId) -> &str {
        self.names.name(self.relationship(id).rel_type)
    }

    /// Returns `true` if the node has the given label.
    pub fn node_has_label(&self, id: NodeId, label: &str) -> bool {
        self.names.lookup(label).is_some_and(|label| self.labels(id).contains(&label))
    }

    /// An entity's properties (`σ`), name-sorted, one entry per key.
    pub fn properties(&self, entity: EntityId) -> &[(NameId, Value)] {
        let run = match entity {
            EntityId::Node(id) => self.nodes[id.0 as usize].properties,
            EntityId::Relationship(id) => self.relationships[id.0 as usize].properties,
        };
        &self.properties[run.range()]
    }

    /// An entity's property under an interned key, or `None` when absent.
    pub(crate) fn property_by_id(&self, entity: EntityId, key: NameId) -> Option<&Value> {
        self.properties(entity).iter().find(|(k, _)| *k == key).map(|(_, value)| value)
    }

    /// Returns the value of a property of a graph entity (`σ`), or `Null`
    /// when the property is absent.
    pub fn property(&self, entity: EntityId, key: &str) -> Value {
        self.names
            .lookup(key)
            .and_then(|key| self.property_by_id(entity, key))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Builds the illustrative property graph of Fig. 1 in the paper:
    /// J. K. Rowling wrote *Harry Potter*, read by Jack and Alice.
    pub fn paper_example() -> Self {
        let mut graph = PropertyGraph::new();
        let n1 = graph.add_node(
            ["Person"],
            [("name", Value::from("J. K. Rowling")), ("age", Value::from(59))],
        );
        let n2 = graph.add_node(
            ["Book"],
            [("title", Value::from("Harry Potter")), ("language", Value::from("English"))],
        );
        let n3 =
            graph.add_node(["Person"], [("name", Value::from("Jack")), ("age", Value::from(26))]);
        let n4 =
            graph.add_node(["Person"], [("name", Value::from("Alice")), ("age", Value::from(27))]);
        graph.add_relationship("WRITE", n1, n2, [("date", Value::from(1997))]);
        graph.add_relationship("READ", n3, n2, [("date", Value::from(2024))]);
        graph.add_relationship("READ", n4, n2, [("date", Value::from(2024))]);
        graph
    }
}

/// The `{key: value, ...}` form of one entity's properties (the `Debug`
/// form a name-keyed `BTreeMap` prints).
struct PropertiesDisplay<'g>(&'g PropertyGraph, EntityId);

impl fmt::Debug for PropertiesDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PropertiesDisplay(graph, entity) = *self;
        f.debug_map()
            .entries(graph.properties(entity).iter().map(|(k, v)| (graph.names.name(*k), v)))
            .finish()
    }
}

impl fmt::Display for PropertyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PropertyGraph ({} nodes, {} relationships)",
            self.node_count(),
            self.relationship_count()
        )?;
        for id in self.node_ids() {
            let labels: Vec<_> = self.label_names(id).collect();
            let properties = PropertiesDisplay(self, EntityId::Node(id));
            writeln!(f, "  (n{}:{:?} {:?})", id.0, labels, properties)?;
        }
        for id in self.relationship_ids() {
            let rel = self.relationship(id);
            writeln!(
                f,
                "  (n{})-[r{}:{} {:?}]->(n{})",
                rel.source.0,
                id.0,
                self.rel_type_name(id),
                PropertiesDisplay(self, EntityId::Relationship(id)),
                rel.target.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries_the_paper_example() {
        let graph = PropertyGraph::paper_example();
        assert_eq!(graph.node_count(), 4);
        assert_eq!(graph.relationship_count(), 3);
        assert!(graph.node_has_label(NodeId(0), "Person"));
        assert!(graph.node_has_label(NodeId(1), "Book"));
        assert!(!graph.node_has_label(NodeId(1), "Person"));
        assert!(!graph.node_has_label(NodeId(1), "Missing"));
        assert_eq!(graph.property(EntityId::Node(NodeId(0)), "name"), Value::from("J. K. Rowling"));
        assert_eq!(graph.property(EntityId::Relationship(RelId(0)), "date"), Value::from(1997));
        assert_eq!(graph.property(EntityId::Node(NodeId(0)), "missing"), Value::Null);
        assert_eq!(graph.rel_type_name(RelId(1)), "READ");
    }

    #[test]
    fn labels_and_properties_keep_name_order_and_last_value() {
        let mut graph = PropertyGraph::new();
        let n = graph.add_node(
            ["Zebra", "Ant", "Zebra"],
            [("z", Value::from(1)), ("a", Value::from(2)), ("z", Value::from(3))],
        );
        assert_eq!(graph.label_names(n).collect::<Vec<_>>(), vec!["Ant", "Zebra"]);
        let keys: Vec<_> = graph
            .properties(EntityId::Node(n))
            .iter()
            .map(|(k, v)| (graph.names().name(*k), v.clone()))
            .collect();
        assert_eq!(keys, vec![("a", Value::from(2)), ("z", Value::from(3))]);
        assert_eq!(
            graph.to_string(),
            "PropertyGraph (1 nodes, 0 relationships)\n  \
             (n0:[\"Ant\", \"Zebra\"] {\"a\": Integer(2), \"z\": Integer(3)})\n"
        );
    }

    #[test]
    fn equality_compares_names_not_ids() {
        // The same data interned in a different order: different ids, equal
        // graphs.
        let mut a = PropertyGraph::new();
        let x = a.add_node(["B", "A"], [("k", Value::from(1))]);
        a.add_relationship("R", x, x, [("j", Value::from(2))]);
        let mut b = PropertyGraph::new();
        b.add_node(["Pad"], Vec::<(&str, Value)>::new());
        let mut b = PropertyGraph::with_names(Arc::new(b.names().clone()));
        let y = b.add_node(["A", "B"], [("k", Value::from(1))]);
        b.add_relationship("R", y, y, [("j", Value::from(2))]);
        assert_ne!(a.names().lookup("B"), b.names().lookup("B"));
        assert_eq!(a, b);
        b.add_node(["A"], Vec::<(&str, Value)>::new());
        assert_ne!(a, b);
    }

    #[test]
    fn interning_into_a_shared_table_copies_it() {
        let mut names = NameTable::default();
        let person = names.intern("Person");
        let names = Arc::new(names);
        let mut graph = PropertyGraph::with_names(Arc::clone(&names));
        graph.add_node_ids([person], []);
        graph.add_node(["Book"], Vec::<(&str, Value)>::new());
        assert_eq!(names.len(), 1, "the shared table must not grow");
        assert_eq!(graph.names().len(), 2);
        assert!(graph.node_has_label(NodeId(1), "Book"));
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn rejects_dangling_relationships() {
        let mut graph = PropertyGraph::new();
        let n = graph.add_node(["A"], Vec::<(String, Value)>::new());
        graph.add_relationship("R", NodeId(99), n, Vec::<(String, Value)>::new());
    }

    #[test]
    fn empty_graph() {
        let graph = PropertyGraph::new();
        assert_eq!(graph.node_count(), 0);
        assert_eq!(graph.relationship_count(), 0);
        assert_eq!(graph.node_ids().count(), 0);
    }
}
