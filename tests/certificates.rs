//! Certificate acceptance tests: tampered artifacts are rejected with
//! structured reasons, and the full 296-pair corpus certifies green, as do
//! rewritten and mutated variants of its queries.
//!
//! The tamper matrix works on *real emitted* certificates, not hand-built
//! ones: each test scans the dataset for a certificate whose evidence has the
//! shape it needs, confirms the untampered artifact validates, applies one
//! minimal mutation, and asserts the checker's structured rejection code.

use cyeqset::{cyeqset, cyneqset};
use graphqe::GraphQE;
use graphqe_checker::cert::{Certificate, Evidence, Matching, Proof, SummandsProof};
use graphqe_checker::value::Value;
use graphqe_checker::{check_certificate, CheckError};
use property_graph::rng::DetRng;

/// Emits the certificate for a pair, or `None` when the verdict is unknown.
fn emit(prover: &GraphQE, left: &str, right: &str) -> Option<Certificate> {
    let verdict = prover.prove(left, right);
    if verdict.is_unknown() {
        return None;
    }
    Some(prover.certificate_for(left, right, &verdict).expect("definite verdict emits"))
}

/// The certificates of the corpus pairs with the given ids, in that order.
fn corpus_certificates(prover: &GraphQE, ids: &[&str]) -> Vec<Certificate> {
    let corpus: Vec<_> = cyeqset().into_iter().chain(cyneqset()).collect();
    let certificate = |id: &&str| {
        let pair = corpus.iter().find(|pair| pair.id == *id).expect(id);
        emit(prover, &pair.left, &pair.right).unwrap_or_else(|| panic!("{id} is definite"))
    };
    ids.iter().map(certificate).collect()
}

/// Every certificate the EQ corpus produces, in dataset order.
fn corpus_eq_certificates(prover: &GraphQE) -> impl Iterator<Item = Certificate> + '_ {
    cyeqset().into_iter().filter_map(move |pair| emit(prover, &pair.left, &pair.right))
}

/// The first summands proof inside an equivalence certificate, if any.
fn summands_proof_mut(cert: &mut Certificate) -> Option<&mut SummandsProof> {
    fn walk(proof: &mut Proof) -> Option<&mut SummandsProof> {
        match proof {
            Proof::Identical => None,
            Proof::Peel(inner) => walk(inner),
            Proof::Summands(sp) => Some(sp),
        }
    }
    let Evidence::Equivalence { segments, .. } = &mut cert.evidence else { return None };
    segments.iter_mut().find_map(|segment| walk(&mut segment.proof))
}

fn expect_rejection(cert: &Certificate, code: &str) -> CheckError {
    let error = check_certificate(cert).expect_err("tampered certificate must be rejected");
    assert_eq!(error.code, code, "unexpected rejection: {error:?}");
    error
}

#[test]
fn dropping_a_derivation_step_is_rejected() {
    let prover = GraphQE::new();
    let mut cert = corpus_eq_certificates(&prover)
        .find(|cert| !cert.left.steps.is_empty())
        .expect("an EQ certificate with a non-empty left derivation");
    check_certificate(&cert).expect("untampered certificate validates");

    cert.left.steps.remove(0);
    expect_rejection(&cert, "derivation_mismatch");
}

#[test]
fn swapping_an_iso_pair_is_rejected() {
    let prover = GraphQE::new();
    // The dataset's proofs all decompose into a single summand, so use a
    // UNION ALL pair whose two summands are *not* interchangeable (different
    // labels): the bijection must cross, and uncrossing it is a tamper.
    let left = "MATCH (a:Person) RETURN a.x UNION ALL MATCH (b:Book) RETURN b.x";
    let right = "MATCH (c:Book) RETURN c.x UNION ALL MATCH (d:Person) RETURN d.x";
    let mut cert = emit(&prover, left, right).expect("UNION ALL pair proves equivalent");
    check_certificate(&cert).expect("untampered certificate validates");

    let sp = summands_proof_mut(&mut cert).expect("summands proof");
    let Matching::Bijection(pairs) = &mut sp.matching else {
        panic!("expected a bijection matching")
    };
    assert!(pairs.len() >= 2, "need at least two iso pairs to swap");
    (pairs[0].1, pairs[1].1) = (pairs[1].1, pairs[0].1);
    expect_rejection(&cert, "iso_pair_mismatch");
}

#[test]
fn perturbing_a_class_count_is_rejected() {
    let prover = GraphQE::new();
    // The corpus proofs prefer bijections, so build the class-counting form
    // of one: each left kept summand becomes its own class representative,
    // and the bijection dictates the right side's membership. This is a
    // *valid* certificate (the checker re-verifies membership with its own
    // unifier) until one recorded count is nudged.
    let mut cert = corpus_eq_certificates(&prover)
        .find(|cert| {
            let mut cert = cert.clone();
            summands_proof_mut(&mut cert)
                .is_some_and(|sp| matches!(&sp.matching, Matching::Bijection(p) if !p.is_empty()))
        })
        .expect("an EQ certificate with a bijection matching");
    {
        let sp = summands_proof_mut(&mut cert).expect("summands proof");
        let Matching::Bijection(pairs) = &sp.matching else { unreachable!() };
        let classes = sp.left.kept.len();
        let mut right_assign = vec![usize::MAX; classes];
        for &(l, r) in pairs {
            right_assign[r] = l;
        }
        sp.matching = Matching::Classes {
            representatives: sp.left.kept.iter().map(|kept| kept.result.clone()).collect(),
            left_assign: (0..classes).collect(),
            right_assign,
            left_counts: vec![1; classes],
            right_counts: vec![1; classes],
        };
    }
    check_certificate(&cert).expect("class-counting form of the proof validates");

    let sp = summands_proof_mut(&mut cert).expect("summands proof");
    let Matching::Classes { left_counts, .. } = &mut sp.matching else { unreachable!() };
    left_counts[0] += 1;
    expect_rejection(&cert, "class_count_mismatch");
}

#[test]
fn editing_a_bag_row_is_rejected() {
    let prover = GraphQE::new();
    let mut cert = cyneqset()
        .into_iter()
        .filter_map(|pair| emit(&prover, &pair.left, &pair.right))
        .find(|cert| {
            matches!(
                &cert.evidence,
                Evidence::Counterexample { left_rows, right_rows, .. }
                    if !left_rows.is_empty() || !right_rows.is_empty()
            )
        })
        .expect("a NEQ certificate with a non-empty result bag");
    check_certificate(&cert).expect("untampered certificate validates");

    let Evidence::Counterexample { left_rows, right_rows, .. } = &mut cert.evidence else {
        unreachable!()
    };
    let rows = if left_rows.is_empty() { right_rows } else { left_rows };
    rows[0][0] = Value::Integer(987_654_321);
    expect_rejection(&cert, "bag_mismatch");
}

/// A witness on which both queries return nothing separates nothing, even
/// when the two empty bags have different arities: neq-001's certificate as
/// the search once emitted it (pool graph 0, the empty graph) is rejected.
#[test]
fn a_witness_with_two_empty_bags_is_rejected() {
    let prover = GraphQE::new();
    let mut cert = corpus_certificates(&prover, &["neq-001"]).remove(0);
    check_certificate(&cert).expect("untampered certificate validates");
    let (Evidence::Counterexample { graph, pool_index, left_rows, right_rows, .. }
    | Evidence::SignatureMismatch { graph, pool_index, left_rows, right_rows, .. }) =
        &mut cert.evidence
    else {
        panic!("neq-001 is refuted by a witness graph")
    };
    graph.nodes.clear();
    graph.relationships.clear();
    *pool_index = 0;
    left_rows.clear();
    right_rows.clear();
    expect_rejection(&cert, "bags_equal");
}

#[test]
fn tampering_a_recorded_signature_type_is_rejected() {
    let prover = GraphQE::new();
    // The corpus contains pairs the stage-⓪ analyzer discriminates, so
    // their certificates carry the richer signature-mismatch evidence.
    let mut cert = cyneqset()
        .into_iter()
        .filter_map(|pair| emit(&prover, &pair.left, &pair.right))
        .find(|cert| matches!(&cert.evidence, Evidence::SignatureMismatch { .. }))
        .expect("a NEQ certificate with signature-mismatch evidence");
    check_certificate(&cert).expect("untampered certificate validates");

    let Evidence::SignatureMismatch { left_signature, .. } = &mut cert.evidence else {
        unreachable!()
    };
    let column = &mut left_signature[0];
    column.ty = if column.ty == "String" { "Integer".into() } else { "String".into() };
    expect_rejection(&cert, "signature_mismatch");
}

#[test]
fn editing_a_signature_witness_row_is_rejected() {
    let prover = GraphQE::new();
    // A discriminating pair whose witness bag is never empty: `count(*)`
    // returns exactly one row on every graph.
    let mut cert = emit(&prover, "MATCH (n) RETURN n", "MATCH (n) RETURN count(*)")
        .expect("discriminating pair refutes");
    check_certificate(&cert).expect("untampered certificate validates");

    let Evidence::SignatureMismatch { left_rows, right_rows, .. } = &mut cert.evidence else {
        panic!("discriminated pair must carry signature-mismatch evidence")
    };
    let rows = if left_rows.is_empty() { right_rows } else { left_rows };
    rows[0][0] = Value::Integer(987_654_321);
    expect_rejection(&cert, "bag_mismatch");
}

/// Empties every process cache the prover reads: the parse, normalize
/// (with its build and derivation memos) and pool caches with the search
/// memo, the SMT formula cache, and this thread's arena with its summand
/// and disjointness caches.
fn clear_process_caches() {
    graphqe::clear_parse_cache();
    graphqe::clear_normalize_cache();
    graphqe::counterexample::clear_pool_cache();
    smt::clear_formula_cache();
    liastar::reset_thread_caches();
}

/// A certificate is a function of the pair and its verdict alone: emitted
/// on cold caches, on warm caches, and by a prover that bypasses the parse
/// and normalize caches, every corpus certificate is the same document.
#[test]
fn certificates_do_not_depend_on_cache_state() {
    let prover = GraphQE::new();
    let uncached = GraphQE { use_parse_cache: false, use_normalize_cache: false, ..GraphQE::new() };
    let mut definite = 0;
    for pair in cyeqset().into_iter().chain(cyneqset()) {
        let verdict = prover.prove(&pair.left, &pair.right);
        if verdict.is_unknown() {
            continue;
        }
        let emit = |prover: &GraphQE| {
            let cert = prover.certificate_for(&pair.left, &pair.right, &verdict);
            cert.unwrap_or_else(|e| panic!("{}: emission failed: {e}", pair.id)).to_json()
        };
        // A fresh thread starts with an empty arena and summand cache (the
        // epoch reset carries recent summands over on this one).
        clear_process_caches();
        let cold = std::thread::scope(|s| s.spawn(|| emit(&prover)).join().unwrap());
        assert_eq!(emit(&prover), cold, "{}: warm emission differs from cold", pair.id);
        assert_eq!(emit(&uncached), cold, "{}: uncached emission differs", pair.id);
        definite += 1;
    }
    assert_eq!(definite, 138 + 121);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, byte| (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3))
}

/// The FNV-1a digest of every corpus certificate's JSON text, in corpus
/// order. A change to what the SMT solver prunes, to a derivation, or to a
/// witness moves it.
const CORPUS_CERTIFICATES_DIGEST: u64 = 12_206_793_430_421_844_237;

/// The acceptance gate: every definite verdict across both corpora (296
/// pairs) yields a certificate the independent checker validates — without
/// invoking the prover — and the verdict totals stay pinned to the same
/// expectations the benchmark gates on, as do the certificate bytes.
#[test]
fn full_corpus_certificates_check_green_with_pinned_verdicts() {
    let prover = GraphQE::new();
    type Corpus = (&'static str, Vec<cyeqset::QueryPair>, (usize, usize, usize));
    let corpora: [Corpus; 2] =
        [("cyeqset", cyeqset(), (138, 0, 10)), ("cyneqset", cyneqset(), (0, 121, 27))];
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (name, pairs, expected) in corpora {
        let mut counts = (0usize, 0usize, 0usize);
        for pair in pairs {
            let (verdict, certificate) = prover.prove_certified(&pair.left, &pair.right, false);
            if verdict.is_equivalent() {
                counts.0 += 1;
            } else if verdict.is_not_equivalent() {
                counts.1 += 1;
            } else {
                assert!(certificate.is_none(), "{name}/{}: unknown with certificate", pair.id);
                counts.2 += 1;
            }
            if !verdict.is_unknown() {
                let certificate = certificate
                    .unwrap_or_else(|| panic!("{name}/{}: definite without certificate", pair.id));
                // Round-trip through the wire format first: what validates is
                // what a client would actually receive.
                let text = certificate.to_json();
                digest = fnv1a(digest, text.as_bytes());
                let reread = Certificate::from_json(&text)
                    .unwrap_or_else(|e| panic!("{name}/{}: round trip failed: {e}", pair.id));
                check_certificate(&reread).unwrap_or_else(|e| {
                    panic!("{name}/{}: checker rejected the certificate: {e:?}", pair.id)
                });
            }
        }
        assert_eq!(
            counts, expected,
            "{name} (equivalent, not_equivalent, unknown) drifted under certification"
        );
    }
    assert_eq!(digest, CORPUS_CERTIFICATES_DIGEST, "corpus certificate bytes drifted");
}

/// A query pair by text, left then right.
type Pair = (String, String);

/// Each of the corpus's left queries, paired with itself.
fn corpus_left_queries() -> Vec<Pair> {
    cyeqset().into_iter().chain(cyneqset()).map(|pair| (pair.left.clone(), pair.left)).collect()
}

/// Every equivalence-preserving rewrite (`cyeqset::rewrite::all_rewrites`)
/// of each pair's right query, paired with the pair's left query.
fn rewritten(pairs: &[Pair]) -> Vec<Pair> {
    let rewrites = |(left, right): &Pair| {
        let rewrites = cyeqset::rewrite::all_rewrites(right).into_iter();
        rewrites.map(|(_, rewrite)| (left.clone(), rewrite)).collect::<Vec<_>>()
    };
    pairs.iter().flat_map(rewrites).collect()
}

/// Every mutation (`cyeqset::mutate::mutate`, rotation starts 0 to 4) of
/// each pair's right query, paired with the pair's left query.
fn mutated(pairs: &[Pair]) -> Vec<Pair> {
    let mutations = |(left, right): &Pair| {
        let mutation = |index| cyeqset::mutate::mutate(right, index).expect("a rule applies").1;
        (0..5).map(|index| (left.clone(), mutation(index))).collect::<Vec<_>>()
    };
    pairs.iter().flat_map(mutations).collect()
}

/// Certifies every pair with the checker on: a definite verdict must stay
/// definite (not be downgraded to `certificate_invalid`), and its
/// certificate must round-trip through the wire format and check green.
/// Returns how many verdicts were definite.
fn certify_generated(pairs: &[Pair]) -> usize {
    let prover = GraphQE::new();
    let mut definite = 0;
    for (left, right) in pairs {
        let (verdict, certificate) = prover.prove_certified(left, right, true);
        assert_ne!(
            verdict.failure_category(),
            Some(graphqe::FailureCategory::CertificateInvalid),
            "{left} vs {right}: a definite verdict did not certify: {verdict}"
        );
        if verdict.is_unknown() {
            continue;
        }
        let text = certificate.expect("a definite verdict carries a certificate").to_json();
        let reread = Certificate::from_json(&text)
            .unwrap_or_else(|e| panic!("{left} vs {right}: round trip failed: {e}"));
        check_certificate(&reread)
            .unwrap_or_else(|e| panic!("{left} vs {right}: checker rejected: {e:?}"));
        definite += 1;
    }
    definite
}

/// The certification invariant beyond the 296 fixed pairs: every definite
/// verdict on the rewritten and mutated corpus queries certifies green. The
/// pair counts pin the generators, the definite counts the prover.
#[test]
fn generated_pairs_certify_green() {
    let queries = corpus_left_queries();
    let (rewrites, mutations) = (rewritten(&queries), mutated(&queries));
    assert_eq!((rewrites.len(), mutations.len()), (560, 1_480));
    assert_eq!(certify_generated(&rewrites), 550, "definite rewritten pairs");
    assert_eq!(certify_generated(&mutations), 660, "definite mutated pairs");
}

/// The long run of [`generated_pairs_certify_green`]: every mutation of
/// every rewrite. CI runs it with `--ignored`.
#[test]
#[ignore = "long run: cargo test --release --test certificates -- --ignored"]
fn generated_pairs_certify_green_long_run() {
    let mutated_rewrites = mutated(&rewritten(&corpus_left_queries()));
    assert_eq!(mutated_rewrites.len(), 2_800);
    assert_eq!(certify_generated(&mutated_rewrites), 1_056, "definite mutated rewrites");
}

/// Ids name nodes, relationships and variables as `u32`s: a larger number
/// is rejected, not wrapped round to a small id that checks green.
#[test]
fn ids_beyond_u32_are_rejected() {
    let prover = GraphQE::new();
    let cert = corpus_certificates(&prover, &["neq-006"]).remove(0);
    check_certificate(&cert).expect("untampered certificate validates");
    let text = cert.to_json();
    assert!(text.contains(r#""source":1,"#), "test premise: a relationship leaves node 1");
    let edited = text.replacen(r#""source":1,"#, r#""source":4294967297,"#, 1);
    let error = Certificate::from_json(&edited).expect_err("an id beyond u32 must not decode");
    assert!(error.contains("source"), "{error}");
}

/// A member name repeated within an object gives the document two readings
/// (first-wins and last-wins JSON readers disagree), so it does not decode.
#[test]
fn repeated_member_names_are_rejected() {
    let prover = GraphQE::new();
    let cert = corpus_certificates(&prover, &["calcite-006"]).remove(0);
    check_certificate(&cert).expect("untampered certificate validates");
    let text = cert.to_json();
    let edited = text.replacen(
        r#""verdict":"equivalent","#,
        r#""verdict":"equivalent","verdict":"not_equivalent","#,
        1,
    );
    assert_ne!(edited, text, "test premise: the certificate states its verdict");
    let error = Certificate::from_json(&edited).expect_err("a repeated member must not decode");
    assert!(error.contains("duplicate member name `verdict`"), "{error}");
}

/// No certificate text panics the checker: seeded mutations of real corpus
/// certificates (truncation, and deleting, inserting or replacing bytes from
/// a JSON-structural alphabet) either fail to decode or decode into a
/// certificate that `check_certificate` accepts or rejects with a code.
#[test]
fn mutated_certificate_texts_never_panic() {
    const ALPHABET: &[u8] = b"{}[],:\"\\ \n0123456789-.eEtrufalsn";
    let prover = GraphQE::new();
    // Both verdicts, all three evidence kinds, a summands proof.
    let ids = ["calcite-006", "calcite-023", "neq-001", "neq-006", "neq-010"];
    let mut texts: Vec<String> =
        corpus_certificates(&prover, &ids).iter().map(Certificate::to_json).collect();
    texts.push(
        emit(&prover, "MATCH (n) RETURN n", "MATCH (n) RETURN count(*)")
            .expect("discriminating pair refutes")
            .to_json(),
    );
    let mut rng = DetRng::seed_from_u64(0xCE27_F00D);
    let (mut decoded, mut rejected) = (0, 0);
    for case in 0..5000 {
        let mut bytes = texts[case % texts.len()].clone().into_bytes();
        let at = rng.range_usize(0, bytes.len());
        let byte = ALPHABET[rng.range_usize(0, ALPHABET.len())];
        match rng.range_usize(0, 4) {
            0 => bytes.truncate(at),
            1 => {
                let end = (at + rng.range_inclusive_usize(1, 4)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => bytes.insert(at, byte),
            _ => bytes[at] = byte,
        }
        // Byte edits can split a multibyte character; such bytes are no
        // `&str`, so no certificate text.
        let Ok(text) = String::from_utf8(bytes) else { continue };
        let outcome = std::panic::catch_unwind(|| {
            Certificate::from_json(&text).ok().map(|cert| check_certificate(&cert).is_ok())
        });
        match outcome {
            Ok(Some(_)) => decoded += 1,
            Ok(None) => rejected += 1,
            Err(_) => panic!("case {case} panicked on {text:?}"),
        }
    }
    assert!(decoded > 0 && rejected > 0, "decoded {decoded}, rejected {rejected}");
}

/// Names that only parse backtick-quoted — a property key with a space, a
/// label that is a keyword or not ASCII, a variable starting with a digit —
/// survive the certificate's printed query text: each pair certifies, and
/// its certificate checks green after the wire round trip.
#[test]
fn names_that_need_backticks_certify_green() {
    let prover = GraphQE::new();
    let pairs = [
        (
            "MATCH (n) WHERE n.`first name` = 'x' AND n.age > 5 RETURN n.`first name`",
            "MATCH (m) WHERE m.age > 5 AND m.`first name` = 'x' RETURN m.`first name`",
            true,
        ),
        (
            "MATCH (n:`Big Person`) RETURN n",
            "MATCH (n:`Big Person`) WHERE n.age > 3 RETURN n",
            false,
        ),
        ("MATCH (n:`MATCH`)-[r]->(m) RETURN m", "MATCH (m)<-[r]-(n:`MATCH`) RETURN m", true),
        ("MATCH (`1n`) RETURN `1n`", "MATCH (x) RETURN x", true),
        ("MATCH (`1n`) WITH `1n` RETURN `1n`", "MATCH (`1n`) RETURN `1n`", true),
        ("MATCH (n:`Größe`) RETURN n.a", "MATCH (n:`Größe`) RETURN n.b", false),
    ];
    for (left, right, equivalent) in pairs {
        let (verdict, certificate) = prover.prove_certified(left, right, true);
        assert_eq!(verdict.is_equivalent(), equivalent, "{left} vs {right}: {verdict}");
        assert_eq!(verdict.is_not_equivalent(), !equivalent, "{left} vs {right}: {verdict}");
        let certificate = certificate.expect("a definite verdict carries a certificate");
        let reread = Certificate::from_json(&certificate.to_json()).expect("round trip");
        check_certificate(&reread).unwrap_or_else(|e| panic!("{left} vs {right}: {e:?}"));
    }
}

/// Runs `body` on a thread with the 2 MiB stack of a server worker or a test
/// thread.
fn on_small_stack<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(body).unwrap();
    thread.join().unwrap()
}

/// Decodes `text` on a 2 MiB stack and, when it decodes, runs the checker on
/// it; the decoder's error otherwise. The checker's answer is not asserted:
/// these certificates are edited, and only have to come back.
fn decode_on_small_stack(text: String) -> Result<(), String> {
    on_small_stack(move || {
        let certificate = Certificate::from_json(&text)?;
        let _ = check_certificate(&certificate);
        Ok(())
    })
}

/// `text` with its one `from` replaced by `to`.
fn replace_once(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "test premise: one `{from}`");
    text.replacen(from, to, 1)
}

/// An equivalence certificate's JSON with the first segment's left tree
/// replaced by `edit` of it.
fn edit_first_left_tree(text: &str, edit: impl FnOnce(&str) -> String) -> String {
    let start = text.find(r#""segments":[{"left":"#).expect("a segment") + 20;
    let end = start + text[start..].find(r#","right":"#).expect("a right tree");
    format!("{}{}{}", &text[..start], edit(&text[start..end]), &text[end..])
}

fn too_deep(result: Result<(), String>) -> bool {
    result.is_err_and(|error| error.contains("nests deeper than 256 levels"))
}

/// A segment tree wrapped in 2,000 `not`s (~17 KB of JSON) used to overflow
/// a 2 MiB stack and abort the process; it is now rejected by the bound.
#[test]
fn deeply_nested_certificates_are_rejected_not_aborted() {
    assert_eq!(graphqe_checker::cert::MAX_NESTING, 256);
    let prover = GraphQE::new();
    let text = corpus_certificates(&prover, &["calcite-006"]).remove(0).to_json();
    let deep = edit_first_left_tree(&text, |left| {
        format!("{}{left}{}", r#"["not","#.repeat(2_000), "]".repeat(2_000))
    });
    assert!(too_deep(decode_on_small_stack(deep)));
}

/// `levels` levels of `kind` spliced into an equivalence certificate's JSON
/// (a counterexample certificate's for values): `not`s over `one` as its
/// first left tree, property reads of a variable under `nodefn` as that tree,
/// `peel`s over `identical` as its first proof, lists around `null` as a row
/// value.
fn nested(kind: &str, levels: usize, equivalence: &str, counterexample: &str) -> String {
    let chain = |open: &str, innermost: &str, close: &str, links: usize| {
        format!("{}{innermost}{}", open.repeat(links), close.repeat(links))
    };
    match kind {
        "gx" => edit_first_left_tree(equivalence, |_| {
            chain(r#"["not","#, r#"["one"]"#, "]", levels - 1)
        }),
        "term" => edit_first_left_tree(equivalence, |_| {
            let term = chain(r#"["prop","#, r#"["var",0]"#, r#","a"]"#, levels - 2);
            format!(r#"["nodefn",{term}]"#)
        }),
        "proof" => {
            let proof = chain(r#"["peel","#, r#"["identical"]"#, "]", levels - 1);
            replace_once(equivalence, r#""proof":["identical"]"#, &format!(r#""proof":{proof}"#))
        }
        _ => {
            let value = chain("[", "null", "]", levels - 1);
            let rows = format!(r#""right_rows":[[{value}]]"#);
            replace_once(counterexample, r#""right_rows":[[null]]"#, &rows)
        }
    }
}

/// The bound is exact for every nesting the decoders follow: G-expressions,
/// terms, proofs and runtime values. A tree at the bound decodes (and the
/// checker returns on it), one level more is rejected.
#[test]
fn the_certificate_nesting_bound_is_exact() {
    let prover = GraphQE::new();
    let texts: Vec<String> = corpus_certificates(&prover, &["calcite-006", "neq-006"])
        .iter()
        .map(Certificate::to_json)
        .collect();
    let (equivalence, counterexample) = (&texts[0], &texts[1]);
    for kind in ["gx", "term", "proof", "value"] {
        let at_bound = nested(kind, 256, equivalence, counterexample);
        let result = decode_on_small_stack(at_bound);
        assert!(result.is_ok(), "{kind} at the bound: {result:?}");
        let past_bound = nested(kind, 257, equivalence, counterexample);
        assert!(too_deep(decode_on_small_stack(past_bound)), "{kind} past the bound");
    }
}

/// Queries as deep as the parser accepts (`MAX_NESTING` = 64 levels) prove,
/// and their certificates round-trip and check green, on a 2 MiB stack.
#[test]
fn certificates_of_queries_at_the_parser_bound_check_green() {
    assert_eq!(cypher_parser::MAX_NESTING, 64);
    on_small_stack(|| {
        let prover = GraphQE::new();
        let nots = |n: usize| format!("MATCH (n) WHERE {}n.a = 1 RETURN n", "NOT ".repeat(n));
        let abs =
            |v: &str| format!("MATCH ({v}) RETURN {}{v}.a{}", "abs(".repeat(62), ")".repeat(62));
        for (left, right) in [(nots(61), nots(1)), (abs("n"), abs("m"))] {
            let (verdict, certificate) = prover.prove_certified(&left, &right, true);
            assert!(verdict.is_equivalent(), "{left} vs {right}: {verdict}");
            let certificate = certificate.expect("a definite verdict carries a certificate");
            let reread = Certificate::from_json(&certificate.to_json()).expect("round trip");
            check_certificate(&reread).unwrap_or_else(|e| panic!("{left}: {e:?}"));
        }
    });
}
