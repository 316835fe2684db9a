//! Per-graph adjacency index: the candidate-enumeration accelerator behind
//! the pattern matcher.
//!
//! A linear scan would re-walk every relationship of the graph for every hop
//! of every partial match. The [`AdjacencyIndex`] is built **once per graph**
//! (lazily, on first use, via [`crate::PropertyGraph::adjacency`]) and turns
//! each enumeration into a lookup:
//!
//! * **per-node out/in adjacency lists** — `(relationship, neighbour,
//!   interned type)` entries sorted by relationship id, so a hop touches only
//!   the node's actual degree instead of `|R|`, and relationship-type
//!   filtering is an integer compare instead of a string compare. The lists
//!   are deliberately *not* segmented per type: keeping them in relationship-
//!   id order keeps enumeration ascending by relationship id (which `LIMIT`
//!   without `ORDER BY` can observe) — the order a linear scan would produce,
//!   and the one the checker's independent evaluator uses.
//! * **per-label node bitsets** — `MATCH (n:Label)` enumerations intersect
//!   label bitsets (64 nodes per word) instead of testing every node's label
//!   set; iteration yields node ids in ascending order.
//! * **property-key bitsets** — nodes/relationships carrying each property
//!   key. A pattern like `{age: 5}` can only match an entity that *has* the
//!   key (`cypher_eq` against `NULL` is never `TRUE`), so key bitsets prune
//!   candidates before any expression is evaluated.
//!
//! Index construction is O(|N| + |R|) and its cumulative cost is observable
//! through [`build_stats`] — the benchmark's per-layer run reports it so the
//! index can never silently eat its own speedup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::graph::{NodeId, PropertyGraph, RelId};

/// A fixed-capacity bitset over node (or relationship) ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdBitset {
    words: Vec<u64>,
    /// Capacity in bits (ids `>= len` are always absent).
    len: usize,
}

impl IdBitset {
    /// An empty bitset able to hold ids `0..len`.
    pub fn new(len: usize) -> Self {
        IdBitset { words: vec![0; len.div_ceil(64)], len }
    }

    /// A bitset with every id in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut set = IdBitset::new(len);
        for (index, word) in set.words.iter_mut().enumerate() {
            let remaining = len - index * 64;
            *word = if remaining >= 64 { u64::MAX } else { (1u64 << remaining) - 1 };
        }
        set
    }

    /// Inserts an id.
    pub fn insert(&mut self, id: u32) {
        let id = id as usize;
        debug_assert!(id < self.len);
        self.words[id / 64] |= 1u64 << (id % 64);
    }

    /// Whether the id is present.
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        id < self.len && self.words[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Intersects in place (`self &= other`).
    pub fn intersect_with(&mut self, other: &IdBitset) {
        for (word, other_word) in self.words.iter_mut().zip(&other.words) {
            *word &= other_word;
        }
        if other.words.len() < self.words.len() {
            for word in &mut self.words[other.words.len()..] {
                *word = 0;
            }
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set ids in ascending order (word-by-word, peeling the
    /// lowest set bit — no per-bit scan over empty words).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| {
            std::iter::successors(if word == 0 { None } else { Some(word) }, |w| {
                if w & (w - 1) == 0 {
                    None
                } else {
                    Some(w & (w - 1))
                }
            })
            .map(move |w| (index * 64 + w.trailing_zeros() as usize) as u32)
        })
    }
}

/// One adjacency entry: a relationship incident to the indexed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The relationship.
    pub rel: RelId,
    /// The node on the far side (for self-loops, the node itself).
    pub neighbour: NodeId,
    /// The interned relationship type ([`AdjacencyIndex::rel_type_id`]).
    pub type_id: u32,
}

/// The per-graph index consulted by the pattern matcher. See the module
/// documentation for the layout rationale.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdjacencyIndex {
    /// Interned relationship types (`label -> dense id`).
    rel_types: HashMap<String, u32>,
    /// Outgoing adjacency per source node, sorted by relationship id.
    out: Vec<Vec<AdjEntry>>,
    /// Incoming adjacency per target node, sorted by relationship id.
    inn: Vec<Vec<AdjEntry>>,
    /// Node-label bitsets over node ids.
    label_nodes: HashMap<String, IdBitset>,
    /// Property-key bitsets over node ids.
    node_keys: HashMap<String, IdBitset>,
    /// Property-key bitsets over relationship ids.
    rel_keys: HashMap<String, IdBitset>,
    node_count: usize,
}

/// Cumulative number of [`AdjacencyIndex::build`] calls in this process.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);
/// Cumulative wall-clock nanoseconds spent building indexes.
static BUILD_NANOS: AtomicU64 = AtomicU64::new(0);

/// Process-wide index construction stats: `(builds, total wall clock)`.
/// The PR 3 benchmark reports these so index construction cost stays visible.
pub fn build_stats() -> (u64, Duration) {
    (BUILD_COUNT.load(Ordering::Relaxed), Duration::from_nanos(BUILD_NANOS.load(Ordering::Relaxed)))
}

/// Resets [`build_stats`] (benchmark scoping).
pub fn reset_build_stats() {
    BUILD_COUNT.store(0, Ordering::Relaxed);
    BUILD_NANOS.store(0, Ordering::Relaxed);
}

impl AdjacencyIndex {
    /// Builds the index for a graph in one O(|N| + |R|) pass.
    pub fn build(graph: &PropertyGraph) -> AdjacencyIndex {
        let start = Instant::now();
        let node_count = graph.node_count();
        let rel_count = graph.relationship_count();
        let mut index = AdjacencyIndex {
            out: vec![Vec::new(); node_count],
            inn: vec![Vec::new(); node_count],
            node_count,
            ..AdjacencyIndex::default()
        };
        for id in graph.node_ids() {
            let node = graph.node(id);
            for label in &node.labels {
                index
                    .label_nodes
                    .entry(label.clone())
                    .or_insert_with(|| IdBitset::new(node_count))
                    .insert(id.0);
            }
            for key in node.properties.keys() {
                index
                    .node_keys
                    .entry(key.clone())
                    .or_insert_with(|| IdBitset::new(node_count))
                    .insert(id.0);
            }
        }
        for id in graph.relationship_ids() {
            let rel = graph.relationship(id);
            let next_type = index.rel_types.len() as u32;
            let type_id = *index.rel_types.entry(rel.label.clone()).or_insert(next_type);
            // Relationship ids are visited in ascending order, so pushing
            // keeps every adjacency list sorted by relationship id.
            index.out[rel.source.0 as usize].push(AdjEntry {
                rel: id,
                neighbour: rel.target,
                type_id,
            });
            index.inn[rel.target.0 as usize].push(AdjEntry {
                rel: id,
                neighbour: rel.source,
                type_id,
            });
            for key in rel.properties.keys() {
                index
                    .rel_keys
                    .entry(key.clone())
                    .or_insert_with(|| IdBitset::new(rel_count))
                    .insert(id.0);
            }
        }
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        BUILD_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        index
    }

    /// The interned id of a relationship type, or `None` when no relationship
    /// of the graph carries it (no candidate can match).
    pub fn rel_type_id(&self, label: &str) -> Option<u32> {
        self.rel_types.get(label).copied()
    }

    /// Outgoing adjacency entries of `node`, sorted by relationship id.
    pub fn outgoing(&self, node: NodeId) -> &[AdjEntry] {
        &self.out[node.0 as usize]
    }

    /// Incoming adjacency entries of `node`, sorted by relationship id.
    pub fn incoming(&self, node: NodeId) -> &[AdjEntry] {
        &self.inn[node.0 as usize]
    }

    /// The nodes carrying `label`, or `None` when no node does.
    pub fn nodes_with_label(&self, label: &str) -> Option<&IdBitset> {
        self.label_nodes.get(label)
    }

    /// The nodes carrying property `key`, or `None` when no node does.
    pub fn nodes_with_key(&self, key: &str) -> Option<&IdBitset> {
        self.node_keys.get(key)
    }

    /// Whether relationship `rel` carries property `key`.
    pub fn rel_has_key(&self, rel: RelId, key: &str) -> bool {
        self.rel_keys.get(key).is_some_and(|set| set.contains(rel.0))
    }

    /// The number of nodes the index was built over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Intersection of the label bitsets for `labels` (all nodes when the
    /// slice is empty); `None` when some label selects no node at all.
    pub fn label_candidates(&self, labels: &[String]) -> Option<IdBitset> {
        let mut labels = labels.iter();
        let first = match labels.next() {
            None => return Some(IdBitset::full(self.node_count)),
            Some(first) => first,
        };
        let mut result = self.nodes_with_label(first)?.clone();
        for label in labels {
            result.intersect_with(self.nodes_with_label(label)?);
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn bitset_roundtrip_and_iteration_order() {
        let mut set = IdBitset::new(130);
        for id in [0, 3, 63, 64, 65, 129] {
            set.insert(id);
        }
        assert!(set.contains(64));
        assert!(!set.contains(66));
        assert!(!set.contains(200));
        assert_eq!(set.count(), 6);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 65, 129]);
    }

    #[test]
    fn bitset_full_and_intersection() {
        let full = IdBitset::full(70);
        assert_eq!(full.count(), 70);
        assert!(full.contains(69));
        assert!(!full.contains(70));
        let mut a = IdBitset::new(70);
        a.insert(1);
        a.insert(68);
        let mut b = IdBitset::new(70);
        b.insert(68);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![68]);
        // Intersecting with a shorter set clears the tail.
        let mut c = IdBitset::full(70);
        c.intersect_with(&IdBitset::full(10));
        assert_eq!(c.count(), 10);
    }

    #[test]
    fn index_reflects_the_paper_example() {
        let graph = PropertyGraph::paper_example();
        let index = AdjacencyIndex::build(&graph);
        // The book (node 1) has three incoming relationships, no outgoing.
        assert_eq!(index.outgoing(NodeId(1)).len(), 0);
        assert_eq!(index.incoming(NodeId(1)).len(), 3);
        // Adjacency lists are sorted by relationship id.
        let incoming: Vec<_> = index.incoming(NodeId(1)).iter().map(|e| e.rel.0).collect();
        assert_eq!(incoming, vec![0, 1, 2]);
        // WRITE and READ intern to distinct type ids.
        let write = index.rel_type_id("WRITE").unwrap();
        let read = index.rel_type_id("READ").unwrap();
        assert_ne!(write, read);
        assert_eq!(index.rel_type_id("MISSING"), None);
        // Label bitsets: three Person nodes, one Book.
        assert_eq!(index.nodes_with_label("Person").unwrap().count(), 3);
        assert_eq!(index.nodes_with_label("Book").unwrap().iter().collect::<Vec<_>>(), vec![1]);
        assert!(index.nodes_with_label("Missing").is_none());
        // Property keys: `name` on the three persons, `date` on every rel.
        assert_eq!(index.nodes_with_key("name").unwrap().count(), 3);
        assert!(index.rel_has_key(RelId(0), "date"));
        assert!(!index.rel_has_key(RelId(0), "name"));
    }

    #[test]
    fn label_candidates_intersects() {
        let mut graph = PropertyGraph::new();
        graph.add_node(["A"], Vec::<(String, Value)>::new());
        let both = graph.add_node(["A", "B"], Vec::<(String, Value)>::new());
        graph.add_node(["B"], Vec::<(String, Value)>::new());
        let index = AdjacencyIndex::build(&graph);
        let all = index.label_candidates(&[]).unwrap();
        assert_eq!(all.count(), 3);
        let a_and_b = index.label_candidates(&["A".into(), "B".into()]).unwrap();
        assert_eq!(a_and_b.iter().collect::<Vec<_>>(), vec![both.0]);
        assert!(index.label_candidates(&["A".into(), "C".into()]).is_none());
    }

    #[test]
    fn build_stats_accumulate() {
        reset_build_stats();
        let graph = PropertyGraph::paper_example();
        let before = build_stats().0;
        let _ = AdjacencyIndex::build(&graph);
        let _ = AdjacencyIndex::build(&graph);
        assert_eq!(build_stats().0, before + 2);
    }
}
