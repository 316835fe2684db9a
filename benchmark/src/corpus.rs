//! The 296 labelled CyEqSet + CyNeqSet pairs, the pinned verdict counts, and
//! the seeded pair orders every workload draws from.

use graphqe::Verdict;
use property_graph::rng::DetRng;

/// Which dataset a pair comes from; it fixes the pair's label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// CyEqSet: every pair is equivalent.
    CyEqSet,
    /// CyNeqSet: every pair is non-equivalent.
    CyNeqSet,
}

impl Dataset {
    fn index(self) -> usize {
        self as usize
    }

    /// `[equivalent, not_equivalent, unknown]` verdict counts the seed pins.
    fn pinned(self) -> [usize; 3] {
        match self {
            Dataset::CyEqSet => [138, 0, 10],
            Dataset::CyNeqSet => [0, 121, 27],
        }
    }

    fn name(self) -> &'static str {
        match self {
            Dataset::CyEqSet => "cyeqset",
            Dataset::CyNeqSet => "cyneqset",
        }
    }
}

/// One labelled pair.
#[derive(Debug, Clone)]
pub struct Pair {
    /// `<dataset>/<dataset id>`, unique over the corpus.
    pub id: String,
    /// The dataset, and so the label.
    pub dataset: Dataset,
    /// The left query text.
    pub left: String,
    /// The right query text.
    pub right: String,
}

/// The verdict class of an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Proved equivalent.
    Equivalent,
    /// Refuted by a counterexample.
    NotEquivalent,
    /// Neither.
    Unknown,
}

impl Class {
    /// The class of a prover verdict.
    pub fn of(verdict: &Verdict) -> Class {
        match verdict {
            Verdict::Equivalent(_) => Class::Equivalent,
            Verdict::NotEquivalent(_) => Class::NotEquivalent,
            Verdict::Unknown { .. } => Class::Unknown,
        }
    }

    /// The class of a `/v1/prove` result's `verdict` string.
    pub fn from_wire(name: &str) -> Option<Class> {
        match name {
            "equivalent" => Some(Class::Equivalent),
            "not_equivalent" => Some(Class::NotEquivalent),
            "unknown" => Some(Class::Unknown),
            _ => None,
        }
    }

    /// Whether the class is a definite verdict.
    pub fn is_definite(self) -> bool {
        self != Class::Unknown
    }

    /// Short name for reports and trace rows.
    pub fn name(self) -> &'static str {
        match self {
            Class::Equivalent => "eq",
            Class::NotEquivalent => "neq",
            Class::Unknown => "unknown",
        }
    }
}

impl Pair {
    /// `true` when `class` is a definite verdict against the pair's label.
    pub fn contradicts(&self, class: Class) -> bool {
        matches!(
            (self.dataset, class),
            (Dataset::CyEqSet, Class::NotEquivalent) | (Dataset::CyNeqSet, Class::Equivalent)
        )
    }
}

/// Builds the corpus: CyEqSet's 148 pairs, then CyNeqSet's 148.
pub fn load() -> Vec<Pair> {
    let label = |dataset: Dataset| {
        move |pair: cyeqset::QueryPair| Pair {
            id: format!("{}/{}", dataset.name(), pair.id),
            dataset,
            left: pair.left,
            right: pair.right,
        }
    };
    let mut pairs: Vec<Pair> =
        cyeqset::cyeqset().into_iter().map(label(Dataset::CyEqSet)).collect();
    pairs.extend(cyeqset::cyneqset().into_iter().map(label(Dataset::CyNeqSet)));
    pairs
}

/// Verdict counts per dataset over one pass of the corpus.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    counts: [[usize; 3]; 2],
}

impl Tally {
    /// Counts one verdict.
    pub fn add(&mut self, dataset: Dataset, class: Class) {
        self.counts[dataset.index()][class as usize] += 1;
    }

    /// The datasets whose counts differ from the pinned ones, described.
    pub fn pinned_mismatches(&self) -> Vec<String> {
        [Dataset::CyEqSet, Dataset::CyNeqSet]
            .into_iter()
            .filter(|dataset| self.counts[dataset.index()] != dataset.pinned())
            .map(|dataset| {
                let [e, n, u] = self.counts[dataset.index()];
                let [pe, pn, pu] = dataset.pinned();
                format!("{} counted {e}/{n}/{u}, pinned {pe}/{pn}/{pu}", dataset.name())
            })
            .collect()
    }
}

/// A seeded Fisher-Yates permutation of `0..len`.
pub fn shuffled(len: usize, rng: &mut DetRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}
