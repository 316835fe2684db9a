//! Per-graph adjacency index: the candidate-enumeration accelerator behind
//! the pattern matcher.
//!
//! A linear scan would re-walk every relationship of the graph for every hop
//! of every partial match. The [`AdjacencyIndex`] is built **once per graph**
//! (lazily, on first use, via [`crate::PropertyGraph::adjacency`]) in one
//! O(|N| + |R| + names) pass over the graph's interned ids, and turns each
//! enumeration into a lookup:
//!
//! * **CSR out/in adjacency** — per direction, one offsets vector and one
//!   entry vector of `(relationship, neighbour, type id)`; a node's entries
//!   are a slice, sorted by relationship id, so a hop touches only the node's
//!   actual degree instead of `|R|`, and relationship-type filtering is an
//!   integer compare against the graph's [`crate::graph::NameId`]. The lists
//!   are deliberately *not* segmented per type: keeping them in relationship-
//!   id order keeps enumeration ascending by relationship id (which `LIMIT`
//!   without `ORDER BY` can observe) — the order a linear scan would produce,
//!   and the one the checker's independent evaluator uses.
//! * **per-name label bitsets** — `MATCH (n:Label)` enumerations intersect
//!   label bitsets (64 nodes per word) instead of testing every node's label
//!   set; iteration yields node ids in ascending order.
//! * **per-name property-key bitsets** — nodes/relationships carrying each
//!   property key. A pattern like `{age: 5}` can only match an entity that
//!   *has* the key (`cypher_eq` against `NULL` is never `TRUE`), so key
//!   bitsets prune candidates before any expression is evaluated.
//!
//! The bitsets of all names sit in three flat `Vec<u64>`s indexed by name id
//! (`words_per_set` words each), so construction allocates seven vectors per
//! graph and clones no name. Its cumulative cost is observable through
//! [`build_stats`] — the benchmark's per-layer run reports it so the index can
//! never silently eat its own speedup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::graph::{EntityId, NameId, NameTable, NodeId, PropertyGraph, RelId};

/// Iterates the set ids of a word slice in ascending order (word-by-word,
/// peeling the lowest set bit — no per-bit scan over empty words).
fn iter_ids(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(index, &word)| {
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

/// A borrowed per-name bitset of an [`AdjacencyIndex`] over node (or
/// relationship) ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSet<'a> {
    words: &'a [u64],
}

impl<'a> IdSet<'a> {
    /// Whether the id is present.
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        self.words.get(id / 64).is_some_and(|word| word & (1u64 << (id % 64)) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        iter_ids(self.words)
    }
}

/// An owned bitset over node (or relationship) ids: the matcher's working
/// set when it intersects several of the index's [`IdSet`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdBitset {
    words: Vec<u64>,
}

impl IdBitset {
    /// A bitset with every id in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            *words.last_mut().expect("a partial word") = (1u64 << (len % 64)) - 1;
        }
        IdBitset { words }
    }

    /// The borrowed view of this set.
    pub fn as_set(&self) -> IdSet<'_> {
        IdSet { words: &self.words }
    }

    /// Intersects in place (`self &= other`); ids beyond `other`'s capacity
    /// are cleared.
    pub fn intersect_with(&mut self, other: IdSet<'_>) {
        for (index, word) in self.words.iter_mut().enumerate() {
            *word &= other.words.get(index).copied().unwrap_or(0);
        }
    }

    /// Iterates the set ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        iter_ids(&self.words)
    }
}

/// One adjacency entry: a relationship incident to the indexed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The relationship.
    pub rel: RelId,
    /// The node on the far side (for self-loops, the node itself).
    pub neighbour: NodeId,
    /// The relationship's type, in the graph's name table.
    pub type_id: NameId,
}

/// One direction of the adjacency in compressed sparse row form: node `n`'s
/// entries are `entries[offsets[n]..offsets[n + 1]]`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Csr {
    offsets: Vec<u32>,
    entries: Vec<AdjEntry>,
}

impl Csr {
    /// Builds one direction: `endpoint` picks the node whose list holds the
    /// relationship, `far` the neighbour it records. A counting sort over
    /// relationship ids keeps every list sorted by relationship id.
    fn build(
        graph: &PropertyGraph,
        endpoint: impl Fn(RelId) -> NodeId,
        far: impl Fn(RelId) -> NodeId,
    ) -> Csr {
        let node_count = graph.node_count();
        // `offsets[n + 1]` counts node n's entries, then prefix sums turn
        // `offsets[n]` into the start of node n's slice.
        let mut offsets = vec![0u32; node_count + 1];
        for id in graph.relationship_ids() {
            offsets[endpoint(id).0 as usize + 1] += 1;
        }
        for n in 0..node_count {
            offsets[n + 1] += offsets[n];
        }
        let placeholder = AdjEntry { rel: RelId(0), neighbour: NodeId(0), type_id: NameId(0) };
        let mut entries = vec![placeholder; graph.relationship_count()];
        // Placing advances `offsets[n]` to the end of node n's slice, which
        // is the start of node n + 1's; shifting by one restores the starts.
        for id in graph.relationship_ids() {
            let slot = &mut offsets[endpoint(id).0 as usize];
            entries[*slot as usize] =
                AdjEntry { rel: id, neighbour: far(id), type_id: graph.relationship(id).rel_type };
            *slot += 1;
        }
        offsets.copy_within(0..node_count, 1);
        offsets[0] = 0;
        Csr { offsets, entries }
    }

    fn of(&self, node: NodeId) -> &[AdjEntry] {
        let n = node.0 as usize;
        &self.entries[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }
}

/// Per-name bitsets over one id space (nodes or relationships), stored flat:
/// name `k`'s set is `words[k * words_per_set..][..words_per_set]`.
#[derive(Debug, Clone, Default, PartialEq)]
struct NameBitsets {
    words_per_set: usize,
    words: Vec<u64>,
}

impl NameBitsets {
    fn new(names: usize, ids: usize) -> Self {
        let words_per_set = ids.div_ceil(64);
        NameBitsets { words_per_set, words: vec![0; names * words_per_set] }
    }

    fn insert(&mut self, name: NameId, id: u32) {
        let word = name.0 as usize * self.words_per_set + id as usize / 64;
        self.words[word] |= 1u64 << (id % 64);
    }

    /// The set of `name`; empty for a name the index was not built over.
    fn get(&self, name: NameId) -> IdSet<'_> {
        let start = name.0 as usize * self.words_per_set;
        IdSet { words: self.words.get(start..start + self.words_per_set).unwrap_or(&[]) }
    }
}

/// The per-graph index consulted by the pattern matcher. See the module
/// documentation for the layout rationale.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdjacencyIndex {
    /// Outgoing adjacency per source node.
    out: Csr,
    /// Incoming adjacency per target node.
    inn: Csr,
    /// Node-label bitsets over node ids.
    labels: NameBitsets,
    /// Property-key bitsets over node ids.
    node_keys: NameBitsets,
    /// Property-key bitsets over relationship ids.
    rel_keys: NameBitsets,
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
    /// Builds the index for a graph in one O(|N| + |R| + names) pass.
    pub fn build(graph: &PropertyGraph) -> AdjacencyIndex {
        let start = Instant::now();
        let (node_count, rel_count) = (graph.node_count(), graph.relationship_count());
        let names = graph.names().len();
        let mut labels = NameBitsets::new(names, node_count);
        let mut node_keys = NameBitsets::new(names, node_count);
        let mut rel_keys = NameBitsets::new(names, rel_count);
        for id in graph.node_ids() {
            for label in graph.labels(id) {
                labels.insert(*label, id.0);
            }
            for (key, _) in graph.properties(EntityId::Node(id)) {
                node_keys.insert(*key, id.0);
            }
        }
        for id in graph.relationship_ids() {
            for (key, _) in graph.properties(EntityId::Relationship(id)) {
                rel_keys.insert(*key, id.0);
            }
        }
        let out =
            Csr::build(graph, |r| graph.relationship(r).source, |r| graph.relationship(r).target);
        let inn =
            Csr::build(graph, |r| graph.relationship(r).target, |r| graph.relationship(r).source);
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        BUILD_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        AdjacencyIndex { out, inn, labels, node_keys, rel_keys, node_count }
    }

    /// Outgoing adjacency entries of `node`, sorted by relationship id.
    pub fn outgoing(&self, node: NodeId) -> &[AdjEntry] {
        self.out.of(node)
    }

    /// Incoming adjacency entries of `node`, sorted by relationship id.
    pub fn incoming(&self, node: NodeId) -> &[AdjEntry] {
        self.inn.of(node)
    }

    /// The nodes carrying `label`.
    pub fn nodes_with_label(&self, label: NameId) -> IdSet<'_> {
        self.labels.get(label)
    }

    /// The nodes carrying property `key`.
    pub fn nodes_with_key(&self, key: NameId) -> IdSet<'_> {
        self.node_keys.get(key)
    }

    /// Whether relationship `rel` carries property `key`.
    pub fn rel_has_key(&self, rel: RelId, key: NameId) -> bool {
        self.rel_keys.get(key).contains(rel.0)
    }

    /// The number of nodes the index was built over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Intersection of the label bitsets for `labels`, resolved through the
    /// graph's `names` (all nodes when the slice is empty); `None` when the
    /// table does not know some label, so no node can carry it.
    pub fn label_candidates(&self, names: &NameTable, labels: &[String]) -> Option<IdBitset> {
        let mut candidates = IdBitset::full(self.node_count);
        for label in labels {
            candidates.intersect_with(self.nodes_with_label(names.lookup(label)?));
        }
        Some(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn bitset_roundtrip_and_iteration_order() {
        let mut sets = NameBitsets::new(2, 130);
        for id in [0, 3, 63, 64, 65, 129] {
            sets.insert(NameId(1), id);
        }
        let set = sets.get(NameId(1));
        assert!(set.contains(64));
        assert!(!set.contains(66));
        assert!(!set.contains(200));
        assert_eq!(set.count(), 6);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 65, 129]);
        assert_eq!(sets.get(NameId(0)).count(), 0);
        // A name the index was not built over is an empty set.
        assert_eq!(sets.get(NameId(7)).count(), 0);
    }

    #[test]
    fn bitset_full_and_intersection() {
        let full = IdBitset::full(70);
        assert_eq!(full.as_set().count(), 70);
        assert!(full.as_set().contains(69));
        assert!(!full.as_set().contains(70));
        let mut sets = NameBitsets::new(1, 70);
        sets.insert(NameId(0), 1);
        sets.insert(NameId(0), 68);
        let mut a = IdBitset::full(70);
        a.intersect_with(sets.get(NameId(0)));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 68]);
        // Intersecting with a shorter set clears the tail.
        let mut c = IdBitset::full(70);
        c.intersect_with(IdBitset::full(10).as_set());
        assert_eq!(c.as_set().count(), 10);
    }

    #[test]
    fn index_reflects_the_paper_example() {
        let graph = PropertyGraph::paper_example();
        let index = AdjacencyIndex::build(&graph);
        let name = |name: &str| graph.names().lookup(name).unwrap();
        // The book (node 1) has three incoming relationships, no outgoing.
        assert_eq!(index.outgoing(NodeId(1)).len(), 0);
        assert_eq!(index.incoming(NodeId(1)).len(), 3);
        // Adjacency lists are sorted by relationship id.
        let incoming: Vec<_> = index.incoming(NodeId(1)).iter().map(|e| e.rel.0).collect();
        assert_eq!(incoming, vec![0, 1, 2]);
        // Entries carry the relationship's type id.
        let types: Vec<_> = index.incoming(NodeId(1)).iter().map(|e| e.type_id).collect();
        assert_eq!(types, vec![name("WRITE"), name("READ"), name("READ")]);
        assert_eq!(index.outgoing(NodeId(0))[0].neighbour, NodeId(1));
        // Label bitsets: three Person nodes, one Book.
        assert_eq!(index.nodes_with_label(name("Person")).count(), 3);
        assert_eq!(index.nodes_with_label(name("Book")).iter().collect::<Vec<_>>(), vec![1]);
        // Property keys: `name` on the three persons, `date` on every rel.
        assert_eq!(index.nodes_with_key(name("name")).count(), 3);
        assert!(index.rel_has_key(RelId(0), name("date")));
        assert!(!index.rel_has_key(RelId(0), name("name")));
    }

    #[test]
    fn label_candidates_intersects() {
        let mut graph = PropertyGraph::new();
        graph.add_node(["A"], Vec::<(String, Value)>::new());
        let both = graph.add_node(["A", "B"], Vec::<(String, Value)>::new());
        graph.add_node(["B"], Vec::<(String, Value)>::new());
        let index = AdjacencyIndex::build(&graph);
        let names = graph.names();
        let all = index.label_candidates(names, &[]).unwrap();
        assert_eq!(all.as_set().count(), 3);
        let a_and_b = index.label_candidates(names, &["A".into(), "B".into()]).unwrap();
        assert_eq!(a_and_b.iter().collect::<Vec<_>>(), vec![both.0]);
        assert!(index.label_candidates(names, &["A".into(), "C".into()]).is_none());
    }

    #[test]
    fn csr_keeps_self_loops_and_parallel_edges_in_id_order() {
        let mut graph = PropertyGraph::new();
        let a = graph.add_node(["A"], Vec::<(String, Value)>::new());
        let b = graph.add_node(["B"], Vec::<(String, Value)>::new());
        graph.add_relationship("R", b, a, Vec::<(String, Value)>::new());
        graph.add_relationship("S", a, a, Vec::<(String, Value)>::new());
        graph.add_relationship("R", a, b, Vec::<(String, Value)>::new());
        graph.add_relationship("R", a, b, Vec::<(String, Value)>::new());
        let index = AdjacencyIndex::build(&graph);
        let rels = |entries: &[AdjEntry]| entries.iter().map(|e| e.rel.0).collect::<Vec<_>>();
        assert_eq!(rels(index.outgoing(a)), vec![1, 2, 3]);
        assert_eq!(rels(index.incoming(a)), vec![0, 1]);
        assert_eq!(rels(index.outgoing(b)), vec![0]);
        assert_eq!(rels(index.incoming(b)), vec![2, 3]);
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
