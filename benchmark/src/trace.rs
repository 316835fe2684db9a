//! Spans recorded by the benchmark around its calls into each layer, kept in
//! memory during the traced run and written out as JSON lines at the end.
//!
//! Each traced pair (or request) is one row: a root span plus one child per
//! public call, and for a prove call the stage grandchildren its returned
//! `StageTimings` report. Stage timings carry durations only, so the
//! grandchildren are laid end to end from the start of their prove span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use graphqe::StageTimings;
use graphqe_serve::json;

/// The layers a span can be charged to, in report order.
pub const LAYERS: [&str; 11] = [
    "harness",
    "serve",
    "core",
    "cypher-parser",
    "analyzer",
    "normalizer",
    "gexpr",
    "liastar-smt",
    "counterexample",
    "certificate",
    "checker",
];

/// The layer whose code runs inside a span of this name.
fn layer(span: &str) -> &'static str {
    match span {
        "pair" => "harness",
        "request" => "serve",
        "parse" => "cypher-parser",
        "analyze" => "analyzer",
        "normalize" => "normalizer",
        "build" => "gexpr",
        "decide" => "liastar-smt",
        "search" => "counterexample",
        "cert.emit" | "cert.serialize" => "certificate",
        "checker.parse" | "checker.check" => "checker",
        // `prove` (the pipeline around its stages) and `serve.prove` (a
        // server-side prove, whose stages the wire does not report).
        _ => "core",
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Index of the parent span within its row (`None` for the root).
    parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    start_ns: u64,
    dur_ns: u64,
}

/// The spans of one traced pair or request.
#[derive(Debug)]
pub struct Row {
    pass: usize,
    pair: String,
    verdict: &'static str,
    spans: Vec<Span>,
}

impl Row {
    /// The root span's index, always 0.
    pub const ROOT: usize = 0;

    /// Adds a span running from `start` for `duration` under `parent`;
    /// returns its index.
    pub fn span(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
        parent: usize,
        start: Instant,
        duration: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: tracer.offset(start),
            dur_ns: duration.as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Adds the stage grandchildren of the prove span `prove`.
    pub fn stages(&mut self, prove: usize, stages: &StageTimings) {
        let mut at = self.spans[prove].start_ns;
        let parts = [
            ("parse", stages.parse),
            ("analyze", stages.analyze),
            ("normalize", stages.normalize),
            ("build", stages.build),
            ("decide", stages.decide),
            ("search", stages.search),
        ];
        for (name, duration) in parts {
            let dur_ns = duration.as_nanos() as u64;
            self.spans.push(Span { name, parent: Some(prove), start_ns: at, dur_ns });
            at += dur_ns;
        }
    }
}

/// The in-memory span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    rows: Vec<Row>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), rows: Vec::new() }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a row whose root span (`pair` or `request`) covers `start`
    /// plus `duration`.
    pub fn row(
        &self,
        root: &'static str,
        pass: usize,
        pair: &str,
        start: Instant,
        duration: Duration,
    ) -> Row {
        let root = Span {
            name: root,
            parent: None,
            start_ns: self.offset(start),
            dur_ns: duration.as_nanos() as u64,
        };
        Row { pass, pair: pair.to_string(), verdict: "", spans: vec![root] }
    }

    /// Stores a finished row with the verdict class it ended in.
    pub fn finish(&mut self, mut row: Row, verdict: &'static str) {
        row.verdict = verdict;
        self.rows.push(row);
    }

    /// Number of traced rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Mean self time per row, in microseconds, of every layer in
    /// [`LAYERS`]. A span's self time is its duration minus its children's.
    pub fn self_us_per_row(&self) -> BTreeMap<&'static str, f64> {
        let mut totals: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
        for row in &self.rows {
            let mut self_ns: Vec<u64> = row.spans.iter().map(|span| span.dur_ns).collect();
            for span in &row.spans {
                if let Some(parent) = span.parent {
                    self_ns[parent] = self_ns[parent].saturating_sub(span.dur_ns);
                }
            }
            for (span, ns) in row.spans.iter().zip(self_ns) {
                *totals.entry(layer(span.name)).or_default() += ns;
            }
        }
        let rows = self.rows.len().max(1) as f64;
        totals.into_iter().map(|(layer, ns)| (layer, ns as f64 / rows / 1e3)).collect()
    }

    /// Writes `header` and then one JSON line per row to `path`:
    /// `{"pass":..,"pair":..,"verdict":..,"spans":[[name,parent,start_ns,dur_ns],..]}`.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.rows.len() * 256);
        out.push_str(header);
        out.push('\n');
        for row in &self.rows {
            let _ = write!(
                out,
                "{{\"pass\":{},\"pair\":{},\"verdict\":\"{}\",\"spans\":[",
                row.pass,
                json::str(row.pair.as_str()),
                row.verdict
            );
            for (index, span) in row.spans.iter().enumerate() {
                let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
                let comma = if index == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{comma}[\"{}\",{parent},{},{}]",
                    span.name, span.start_ns, span.dur_ns
                );
            }
            out.push_str("]}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
