//! The property graph model ⟨N, R, ρ, λ, σ⟩ of Definition 1 in the paper.
//!
//! * `N` — a finite set of nodes;
//! * `R` — a finite set of directed relationships;
//! * `ρ : R → N × N` — maps each relationship to its outgoing (source) and
//!   incoming (target) nodes;
//! * `λ` — associates nodes with a set of labels and each relationship with
//!   exactly one label (the Cypher restriction);
//! * `σ` — a partial function from (entity, property key) to constants.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use crate::index::AdjacencyIndex;
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

/// The stored data of a node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeData {
    /// The labels of the node (`λ`), possibly empty or with several entries.
    pub labels: BTreeSet<String>,
    /// The properties of the node (`σ`).
    pub properties: BTreeMap<String, Value>,
}

/// The stored data of a relationship.
#[derive(Debug, Clone, PartialEq)]
pub struct RelData {
    /// The single label of the relationship (`λ`, Cypher restriction).
    pub label: String,
    /// The outgoing (source) node (`ρ`, first component).
    pub source: NodeId,
    /// The incoming (target) node (`ρ`, second component).
    pub target: NodeId,
    /// The properties of the relationship (`σ`).
    pub properties: BTreeMap<String, Value>,
}

/// A property graph.
#[derive(Debug, Default)]
pub struct PropertyGraph {
    nodes: Vec<NodeData>,
    relationships: Vec<RelData>,
    /// The adjacency index, built lazily on first [`PropertyGraph::adjacency`]
    /// call and shared by every subsequent evaluation of the (frozen) graph.
    /// `OnceLock` keeps the graph `Send + Sync`, which the shared
    /// counterexample pool and the parallel search rely on; mutations reset
    /// it, so the index can never go stale.
    index: OnceLock<AdjacencyIndex>,
}

/// Cloning copies the graph data but not the lazily built index: the index
/// is a pure function of nodes and relationships and rebuilds on demand, so
/// copying it (counterexample certificates clone pooled graphs constantly)
/// would only duplicate memory.
impl Clone for PropertyGraph {
    fn clone(&self) -> Self {
        PropertyGraph {
            nodes: self.nodes.clone(),
            relationships: self.relationships.clone(),
            index: OnceLock::new(),
        }
    }
}

/// Graph equality is structural: the lazily built index is a pure function
/// of the nodes and relationships and must not influence comparisons.
impl PartialEq for PropertyGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.relationships == other.relationships
    }
}

impl PropertyGraph {
    /// Creates an empty property graph.
    pub fn new() -> Self {
        PropertyGraph::default()
    }

    /// Adds a node with the given labels and properties, returning its id.
    pub fn add_node<L, K>(
        &mut self,
        labels: impl IntoIterator<Item = L>,
        properties: impl IntoIterator<Item = (K, Value)>,
    ) -> NodeId
    where
        L: Into<String>,
        K: Into<String>,
    {
        let data = NodeData {
            labels: labels.into_iter().map(Into::into).collect(),
            properties: properties.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        };
        self.nodes.push(data);
        self.index = OnceLock::new();
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
        label: impl Into<String>,
        source: NodeId,
        target: NodeId,
        properties: impl IntoIterator<Item = (K, Value)>,
    ) -> RelId
    where
        K: Into<String>,
    {
        assert!((source.0 as usize) < self.nodes.len(), "unknown source node {source:?}");
        assert!((target.0 as usize) < self.nodes.len(), "unknown target node {target:?}");
        let data = RelData {
            label: label.into(),
            source,
            target,
            properties: properties.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        };
        self.relationships.push(data);
        self.index = OnceLock::new();
        RelId((self.relationships.len() - 1) as u32)
    }

    /// The adjacency index of this graph, built on first use. See
    /// [`AdjacencyIndex`] for the layout; the matcher consults it for every
    /// candidate enumeration.
    pub fn adjacency(&self) -> &AdjacencyIndex {
        self.index.get_or_init(|| AdjacencyIndex::build(self))
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

    /// Accesses a node's data.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0 as usize]
    }

    /// Accesses a relationship's data.
    pub fn relationship(&self, id: RelId) -> &RelData {
        &self.relationships[id.0 as usize]
    }

    /// Returns `true` if the node has the given label.
    pub fn node_has_label(&self, id: NodeId, label: &str) -> bool {
        self.node(id).labels.contains(label)
    }

    /// Returns the value of a property of a graph entity (`σ`), or `Null`
    /// when the property is absent.
    pub fn property(&self, entity: EntityId, key: &str) -> Value {
        let props = match entity {
            EntityId::Node(id) => &self.node(id).properties,
            EntityId::Relationship(id) => &self.relationship(id).properties,
        };
        props.get(key).cloned().unwrap_or(Value::Null)
    }

    /// Returns the relationships whose source is `node`.
    pub fn outgoing(&self, node: NodeId) -> impl Iterator<Item = RelId> + '_ {
        self.relationship_ids().filter(move |id| self.relationship(*id).source == node)
    }

    /// Returns the relationships whose target is `node`.
    pub fn incoming(&self, node: NodeId) -> impl Iterator<Item = RelId> + '_ {
        self.relationship_ids().filter(move |id| self.relationship(*id).target == node)
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

impl fmt::Display for PropertyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PropertyGraph ({} nodes, {} relationships)",
            self.node_count(),
            self.relationship_count()
        )?;
        for id in self.node_ids() {
            let node = self.node(id);
            let labels: Vec<_> = node.labels.iter().map(String::as_str).collect();
            writeln!(f, "  (n{}:{:?} {:?})", id.0, labels, node.properties)?;
        }
        for id in self.relationship_ids() {
            let rel = self.relationship(id);
            writeln!(
                f,
                "  (n{})-[r{}:{} {:?}]->(n{})",
                rel.source.0, id.0, rel.label, rel.properties, rel.target.0
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
        assert_eq!(graph.property(EntityId::Node(NodeId(0)), "name"), Value::from("J. K. Rowling"));
        assert_eq!(graph.property(EntityId::Relationship(RelId(0)), "date"), Value::from(1997));
        assert_eq!(graph.property(EntityId::Node(NodeId(0)), "missing"), Value::Null);
    }

    #[test]
    fn adjacency_iterators() {
        let graph = PropertyGraph::paper_example();
        // Node n2 (the book) has no outgoing relationships and three incoming.
        assert_eq!(graph.outgoing(NodeId(1)).count(), 0);
        assert_eq!(graph.incoming(NodeId(1)).count(), 3);
        // J. K. Rowling has one outgoing WRITE.
        let out: Vec<_> = graph.outgoing(NodeId(0)).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(graph.relationship(out[0]).label, "WRITE");
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
