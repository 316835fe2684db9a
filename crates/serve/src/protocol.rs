//! The wire protocol: request parsing, response building, and the 1:1
//! mapping from [`graphqe::FailureCategory`] onto the `error.code` taxonomy.
//!
//! SERVING.md is the normative spec; this module is its implementation. The
//! invariants that matter:
//!
//! - Every per-pair `Unknown` verdict carries an `error` object whose `code`
//!   is exactly [`FailureCategory::code`] — the server never invents codes of
//!   its own for prover outcomes, so clients can dispatch on one taxonomy.
//! - Envelope-level failures (malformed JSON, overload, internal errors) use
//!   a disjoint set of codes (`bad_request`, `overloaded`, ...) and are the
//!   only ones paired with non-200 HTTP statuses.
//! - Definite verdicts are never degraded: `equivalent`/`not_equivalent`
//!   entries have no `error` field at all.

use std::time::Duration;

use graphqe::verdict::Verdict;
use graphqe::{BatchOutcome, FailureCategory};

use crate::json::{self, Json};

/// A parsed `/v1/prove` request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveRequest {
    /// The query pairs to prove, in order.
    pub pairs: Vec<(String, String)>,
    /// Client-requested per-pair deadline (`Some(0)` trips immediately —
    /// useful for probing, and for deterministic tests). `None` means "use
    /// the server default".
    pub deadline_ms: Option<u64>,
    /// Client-requested SMT step budget (`None` = server default).
    pub smt_step_budget: Option<u64>,
    /// Client-requested counterexample-search graph budget (`None` = server
    /// default).
    pub search_graph_budget: Option<u64>,
    /// Whether every definite verdict should carry a machine-checkable proof
    /// certificate (validated server-side before it is served; a certificate
    /// that fails validation downgrades the pair to
    /// `unknown`/`certificate_invalid`). Default `false`: the hot path stays
    /// certificate-free.
    pub certificates: bool,
}

impl ProveRequest {
    /// Parses and validates a request body. Error strings are client-facing
    /// (they become the `message` of a `bad_request` response), so they name
    /// the offending field.
    pub fn parse(body: &str, max_pairs: usize) -> Result<ProveRequest, String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let pairs_value = doc.get("pairs").ok_or("missing required field \"pairs\"")?;
        let entries = pairs_value.as_array().ok_or("\"pairs\" must be an array")?;
        if entries.is_empty() {
            return Err("\"pairs\" must not be empty".to_string());
        }
        if entries.len() > max_pairs {
            return Err(format!(
                "\"pairs\" has {} entries, above the server's limit of {max_pairs}",
                entries.len()
            ));
        }
        let mut pairs = Vec::with_capacity(entries.len());
        for (index, entry) in entries.iter().enumerate() {
            pairs.push(parse_pair(entry).map_err(|e| format!("pairs[{index}]: {e}"))?);
        }
        let int_field = |name: &str| -> Result<Option<u64>, String> {
            match doc.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(value) => value
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("\"{name}\" must be an integer from 0 to 2^53 - 1")),
            }
        };
        let certificates = match doc.get("certificates") {
            None | Some(Json::Null) => false,
            Some(value) => {
                value.as_bool().ok_or("\"certificates\" must be a boolean".to_string())?
            }
        };
        Ok(ProveRequest {
            pairs,
            deadline_ms: int_field("deadline_ms")?,
            smt_step_budget: int_field("smt_step_budget")?,
            search_graph_budget: int_field("search_graph_budget")?,
            certificates,
        })
    }

    /// The effective per-pair deadline: the client's request clamped to the
    /// server's ceiling, or the server default when the client sent none.
    pub fn effective_deadline(
        &self,
        default: Option<Duration>,
        max: Option<Duration>,
    ) -> Option<Duration> {
        let requested = self.deadline_ms.map(Duration::from_millis).or(default);
        match (requested, max) {
            (Some(r), Some(m)) => Some(r.min(m)),
            (r, _) => r,
        }
    }
}

fn parse_pair(entry: &Json) -> Result<(String, String), String> {
    if let Some(items) = entry.as_array() {
        let [left, right] = items else {
            return Err(format!("expected a 2-element array, got {} elements", items.len()));
        };
        let left = left.as_str().ok_or("pair elements must be strings")?;
        let right = right.as_str().ok_or("pair elements must be strings")?;
        return Ok((left.to_string(), right.to_string()));
    }
    if let Json::Obj(_) = entry {
        let left = entry.get("left").and_then(Json::as_str).ok_or("missing string \"left\"")?;
        let right = entry.get("right").and_then(Json::as_str).ok_or("missing string \"right\"")?;
        return Ok((left.to_string(), right.to_string()));
    }
    Err("each pair must be [\"q1\",\"q2\"] or {\"left\":...,\"right\":...}".to_string())
}

/// Serializes one per-pair outcome. `pair` is the original query texts —
/// needed to re-derive the spanned diagnostic of `invalid_query` and
/// `type_error` outcomes (verdicts carry only the rendered reason).
/// `certificate` is the pre-serialized proof artifact (from
/// [`graphqe::Certificate::to_json`]) when the request asked for
/// certificates and one was emitted; it is embedded verbatim.
pub fn outcome_json(outcome: &BatchOutcome, pair: (&str, &str), certificate: Option<&str>) -> Json {
    let mut fields = vec![
        ("verdict", json::str(verdict_name(&outcome.verdict))),
        ("latency_us", json::num(outcome.latency.as_micros() as f64)),
    ];
    match &outcome.verdict {
        Verdict::Equivalent(_) => {}
        Verdict::NotEquivalent(example) => {
            fields.push((
                "counterexample",
                json::obj(vec![
                    ("nodes", json::num(example.graph.node_count() as f64)),
                    ("relationships", json::num(example.graph.relationship_count() as f64)),
                    ("left_rows", json::num(example.left_rows as f64)),
                    ("right_rows", json::num(example.right_rows as f64)),
                    ("pool_index", json::num(example.pool_index as f64)),
                ]),
            ));
        }
        Verdict::Unknown { category, reason } => {
            let mut error = failure_json(*category, reason);
            if let (Json::Obj(fields), Some(diagnostic)) =
                (&mut error, diagnostic_json(*category, pair.0, pair.1))
            {
                fields.push(("diagnostic".to_string(), diagnostic));
            }
            fields.push(("error", error));
        }
    }
    if let Some(cert) = certificate {
        fields.push(("certificate", Json::Raw(cert.to_string())));
    }
    json::obj(fields)
}

/// The structured `diagnostic` object of an `invalid_query` or `type_error`
/// outcome: `side` (`"left"`/`"right"`), the stable diagnostic `code`, the
/// byte-offset `span` into that side's query text, `message`, and `note`
/// when present. Re-derived from the query texts, since the verdict itself
/// only carries the rendered reason string: stage ① through the parse cache
/// ([`graphqe::parse_check_cached`]), warm from the prove of the same texts,
/// and stage ⓪ by re-running the deterministic analyzer on the cached query.
pub fn diagnostic_json(category: FailureCategory, left: &str, right: &str) -> Option<Json> {
    if !matches!(category, FailureCategory::InvalidQuery | FailureCategory::TypeError) {
        return None;
    }
    let probe = |side: &'static str, text: &str| {
        let diagnostic = match graphqe::parse_check_cached(text) {
            Err(error) => error.diagnostic(),
            Ok(entry) => graphqe_analyzer::analyze(entry.query()).err()?,
        };
        let mut fields = vec![
            ("side", json::str(side)),
            ("code", json::str(diagnostic.code)),
            (
                "span",
                json::obj(vec![
                    ("start", json::num(diagnostic.span.start as f64)),
                    ("end", json::num(diagnostic.span.end as f64)),
                ]),
            ),
            ("message", json::str(&diagnostic.message)),
        ];
        if let Some(note) = &diagnostic.note {
            fields.push(("note", json::str(note)));
        }
        Some(json::obj(fields))
    };
    probe("left", left).or_else(|| probe("right", right))
}

/// The `verdict` discriminator string.
pub fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Equivalent(_) => "equivalent",
        Verdict::NotEquivalent(_) => "not_equivalent",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// The `error` object of an unknown verdict: `code` from the stable
/// [`FailureCategory::code`] taxonomy, `stage`/`budget` when the category
/// carries them, and the human-readable `reason`.
pub fn failure_json(category: FailureCategory, reason: &str) -> Json {
    let mut fields = vec![("code", json::str(category.code()))];
    if let Some(stage) = category.stage() {
        fields.push(("stage", json::str(stage.to_string())));
    }
    if let Some(budget) = category.budget() {
        fields.push(("budget", json::num(budget as f64)));
    }
    fields.push(("reason", json::str(reason)));
    json::obj(fields)
}

/// An envelope-level error body: `{"error":{"code":...,"message":...}}` plus
/// any extra fields (`retry_after_ms` for overload, `limit` for body caps).
pub fn error_body(code: &str, message: &str, extras: Vec<(&str, Json)>) -> String {
    let mut fields = vec![("code", json::str(code)), ("message", json::str(message))];
    fields.extend(extras);
    json::obj(vec![("error", json::obj(fields))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_pair_shapes_and_limits() {
        let body = r#"{"pairs":[["a","b"],{"left":"c","right":"d"}],"deadline_ms":100}"#;
        let request = ProveRequest::parse(body, 16).unwrap();
        assert_eq!(request.pairs.len(), 2);
        assert_eq!(request.pairs[1], ("c".to_string(), "d".to_string()));
        assert_eq!(request.deadline_ms, Some(100));
        assert_eq!(request.smt_step_budget, None);
        assert!(!request.certificates);
        // The largest integer a JSON number holds exactly, 2^53 - 1.
        let max = 9_007_199_254_740_991u64;
        let body = format!(
            r#"{{"pairs":[["a","b"]],"deadline_ms":{max},"smt_step_budget":{max},"search_graph_budget":{max}}}"#
        );
        let request = ProveRequest::parse(&body, 16).unwrap();
        let limits = (request.deadline_ms, request.smt_step_budget, request.search_graph_budget);
        assert_eq!(limits, (Some(max), Some(max), Some(max)));
    }

    #[test]
    fn parses_the_certificates_flag() {
        let on = ProveRequest::parse(r#"{"pairs":[["a","b"]],"certificates":true}"#, 16).unwrap();
        assert!(on.certificates);
        let off = ProveRequest::parse(r#"{"pairs":[["a","b"]],"certificates":null}"#, 16).unwrap();
        assert!(!off.certificates);
        let bad = ProveRequest::parse(r#"{"pairs":[["a","b"]],"certificates":1}"#, 16).unwrap_err();
        assert!(bad.contains("certificates"));
    }

    #[test]
    fn rejects_malformed_requests_with_field_names() {
        let no_pairs = ProveRequest::parse("{}", 16).unwrap_err();
        assert!(no_pairs.contains("pairs"));
        let empty = ProveRequest::parse(r#"{"pairs":[]}"#, 16).unwrap_err();
        assert!(empty.contains("empty"));
        let too_many = ProveRequest::parse(r#"{"pairs":[["a","b"],["c","d"]]}"#, 1).unwrap_err();
        assert!(too_many.contains("limit"));
        let bad_entry = ProveRequest::parse(r#"{"pairs":[["a"]]}"#, 16).unwrap_err();
        assert!(bad_entry.contains("pairs[0]"));
        let bad_deadline =
            ProveRequest::parse(r#"{"pairs":[["a","b"]],"deadline_ms":-3}"#, 16).unwrap_err();
        assert!(bad_deadline.contains("deadline_ms"));
        // Past 2^53 - 1 an integer would be rounded (2^53 + 1 reads as 2^53)
        // or saturated (2^64 as u64::MAX): each is rejected by name instead.
        for field in ["deadline_ms", "smt_step_budget", "search_graph_budget"] {
            for value in ["9007199254740992", "9007199254740993", "18446744073709551616"] {
                let body = format!(r#"{{"pairs":[["a","b"]],"{field}":{value}}}"#);
                let error = ProveRequest::parse(&body, 16).unwrap_err();
                assert!(error.contains(field), "{field}={value}: {error}");
            }
        }
    }

    #[test]
    fn deadline_clamping() {
        let request = ProveRequest {
            pairs: vec![],
            deadline_ms: Some(60_000),
            smt_step_budget: None,
            search_graph_budget: None,
            certificates: false,
        };
        let clamped =
            request.effective_deadline(Some(Duration::from_secs(5)), Some(Duration::from_secs(10)));
        assert_eq!(clamped, Some(Duration::from_secs(10)));
        let defaulted = ProveRequest { deadline_ms: None, ..request.clone() }
            .effective_deadline(Some(Duration::from_secs(5)), Some(Duration::from_secs(10)));
        assert_eq!(defaulted, Some(Duration::from_secs(5)));
    }

    #[test]
    fn failure_codes_carry_trip_details() {
        let rendered =
            failure_json(FailureCategory::Timeout { stage: limits::Stage::Search }, "expired")
                .to_string();
        assert!(rendered.contains(r#""code":"timeout""#));
        assert!(rendered.contains(r#""stage":"search""#));
        let budget = failure_json(
            FailureCategory::BudgetExhausted { stage: limits::Stage::Smt, budget: 9 },
            "out of steps",
        )
        .to_string();
        assert!(budget.contains(r#""budget":9"#));
    }

    #[test]
    fn invalid_query_outcomes_carry_a_spanned_diagnostic() {
        let rendered = diagnostic_json(
            FailureCategory::InvalidQuery,
            "MATCH (n) RETURN n",
            "MATCH (n) WHERE m.age = 1 RETURN n",
        )
        .expect("diagnostic")
        .to_string();
        assert!(rendered.contains(r#""side":"right""#), "{rendered}");
        assert!(rendered.contains(r#""code":"undefined_variable""#), "{rendered}");
        assert!(rendered.contains(r#""span":{"start":16,"end":17}"#), "{rendered}");

        let syntax = diagnostic_json(FailureCategory::InvalidQuery, "MATCH (n RETURN n", "x")
            .expect("diagnostic")
            .to_string();
        assert!(syntax.contains(r#""side":"left""#), "{syntax}");
        assert!(syntax.contains(r#""code":"syntax""#), "{syntax}");
    }

    #[test]
    fn type_error_outcomes_carry_a_type_mismatch_diagnostic() {
        let rendered = diagnostic_json(
            FailureCategory::TypeError,
            "UNWIND 1 AS x RETURN x",
            "UNWIND [1] AS x RETURN x",
        )
        .expect("diagnostic")
        .to_string();
        assert!(rendered.contains(r#""side":"left""#), "{rendered}");
        assert!(rendered.contains(r#""code":"type_mismatch""#), "{rendered}");
        assert!(rendered.contains("UNWIND requires a list"), "{rendered}");
        // Other failure categories never carry a diagnostic.
        assert!(diagnostic_json(FailureCategory::Other, "a", "b").is_none());
    }
}
