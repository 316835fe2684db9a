//! Loopback integration tests: the executable version of SERVING.md.
//!
//! Every test spawns a real server on `127.0.0.1:0` and speaks HTTP/1.1 to
//! it over `TcpStream`. The fault harness is process-global, so every test
//! serializes on [`SERIAL`] (the same discipline as the core fault tests).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use graphqe_serve::json::Json;
use graphqe_serve::{ServeConfig, Server};
use limits::faults::{self, FaultKind};
use limits::Stage;

/// Serializes every test in this file: armed faults, the panic hook, and the
/// process-wide caches are shared.
static SERIAL: Mutex<()> = Mutex::new(());

const EQ: (&str, &str) = ("MATCH (n) RETURN n", "MATCH (m) RETURN m");
const NEQ: (&str, &str) = ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n");

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // Single-segment requests: two small writes would trip the Nagle +
        // delayed-ACK interaction and add ~40 ms to every exchange.
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        Client { reader: BufReader::new(stream), writer }
    }

    /// Sends one request and reads the response, reusing the connection.
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
        let body = body.unwrap_or("");
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(message.as_bytes()).unwrap();
        self.read_response()
    }

    fn read_response(&mut self) -> (u16, Json) {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("Content-Length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        let text = String::from_utf8(body).expect("UTF-8 body");
        (status, Json::parse(&text).expect("JSON body"))
    }
}

fn prove_body(pairs: &[(&str, &str)]) -> String {
    let rendered: Vec<String> = pairs.iter().map(|(l, r)| format!("[{l:?},{r:?}]")).collect();
    format!("{{\"pairs\":[{}]}}", rendered.join(","))
}

fn test_server(config: ServeConfig) -> Server {
    Server::spawn(config).expect("spawn server")
}

/// Default test config: a short read timeout so a shutdown never waits the
/// production 30s for an idle keep-alive connection a test forgot to drop.
fn test_config() -> ServeConfig {
    ServeConfig { read_timeout: Duration::from_secs(2), ..ServeConfig::default() }
}

fn verdicts(response: &Json) -> Vec<String> {
    response
        .get("results")
        .and_then(Json::as_array)
        .expect("results array")
        .iter()
        .map(|r| r.get("verdict").and_then(Json::as_str).expect("verdict").to_string())
        .collect()
}

fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(previous);
    result
}

#[test]
fn certified_proves_attach_independently_checkable_artifacts() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let mut client = Client::connect(&server);

    let body = format!(
        "{{\"pairs\":[[{:?},{:?}],[{:?},{:?}]],\"certificates\":true}}",
        EQ.0, EQ.1, NEQ.0, NEQ.1
    );
    let (status, response) = client.request("POST", "/v1/prove", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent", "not_equivalent"]);
    for result in response.get("results").unwrap().as_array().unwrap() {
        // Round-trip through the wire form and re-validate with the
        // dependency-free checker — the client-side workflow SERVING.md
        // documents.
        let wire = result.get("certificate").expect("certificate attached").to_string();
        let certificate =
            graphqe_checker::Certificate::from_json(&wire).expect("certificate parses");
        graphqe_checker::check_certificate(&certificate).expect("certificate validates");
    }

    // Without the flag, responses stay certificate-free.
    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ])));
    assert_eq!(status, 200);
    assert!(response.get("results").unwrap().as_array().unwrap()[0].get("certificate").is_none());

    let (status, stats) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    assert!(stats.get("cert_emitted").unwrap().as_u64().unwrap() >= 2);
    assert!(stats.get("cert_check_failures").unwrap().as_u64().is_some());

    drop(client);
    server.shutdown();
}

#[test]
fn proves_pairs_over_a_keep_alive_connection() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let mut client = Client::connect(&server);

    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ, NEQ])));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent", "not_equivalent"]);
    assert_eq!(response.get("equivalent").unwrap().as_u64(), Some(1));
    assert_eq!(response.get("not_equivalent").unwrap().as_u64(), Some(1));
    let neq = &response.get("results").unwrap().as_array().unwrap()[1];
    let example = neq.get("counterexample").expect("counterexample details");
    assert!(example.get("nodes").unwrap().as_u64().is_some());
    assert!(example.get("left_rows").is_some() && example.get("right_rows").is_some());

    // Same connection: health, stats, and a second (now warm) prove.
    let (status, health) = client.request("GET", "/v1/health", None);
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ])));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent"]);

    let (status, stats) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 4);
    assert_eq!(stats.get("pairs").unwrap().as_u64(), Some(3));
    let Some(Json::Obj(caches)) = stats.get("caches") else { panic!("caches object") };
    let keys: Vec<&str> = caches.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "parse_hit_rate",
            "normalize_hit_rate",
            "search_memo_hit_rate",
            "smt_formula_hit_rate",
            "summand_hit_rate",
            "disjoint_hit_rate",
        ]
    );
    for (key, rate) in caches {
        let rate = rate.as_f64().unwrap_or_else(|| panic!("{key} is not a number"));
        assert!((0.0..=1.0).contains(&rate), "{key} = {rate}");
    }
    assert!(stats.get("queue_capacity").unwrap().as_u64().unwrap() > 0);

    drop(client);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_verdicts() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(ServeConfig { workers: 3, ..test_config() });
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = Client::connect(&server);
                for _ in 0..3 {
                    let (status, response) =
                        client.request("POST", "/v1/prove", Some(&prove_body(&[EQ, NEQ])));
                    assert_eq!(status, 200);
                    assert_eq!(verdicts(&response), ["equivalent", "not_equivalent"]);
                }
            });
        }
    });
    let mut client = Client::connect(&server);
    let (_, stats) = client.request("GET", "/v1/stats", None);
    assert_eq!(stats.get("pairs").unwrap().as_u64(), Some(18));
    assert_eq!(stats.get("equivalent").unwrap().as_u64(), Some(9));
    assert_eq!(stats.get("not_equivalent").unwrap().as_u64(), Some(9));
    drop(client);
    server.shutdown();
}

#[test]
fn a_zero_deadline_surfaces_as_a_structured_timeout() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let mut client = Client::connect(&server);
    let body = format!("{{\"pairs\":[[{:?},{:?}]],\"deadline_ms\":0}}", EQ.0, EQ.1);
    let (status, response) = client.request("POST", "/v1/prove", Some(&body));
    // Per-pair failures are in-band: the envelope is still 200.
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["unknown"]);
    let error = response.get("results").unwrap().as_array().unwrap()[0]
        .get("error")
        .expect("error object")
        .clone();
    assert_eq!(error.get("code").unwrap().as_str(), Some("timeout"));
    assert!(error.get("stage").unwrap().as_str().is_some(), "timeout must name its stage");
    assert!(error.get("reason").unwrap().as_str().is_some());
    // The connection (and server) is fine afterwards.
    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ])));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent"]);
    drop(client);
    server.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors_not_hangs() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(ServeConfig { max_body_bytes: 4096, ..test_config() });

    let expect_error = |status: u16, response: &Json, code: &str| {
        let error = response.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(Json::as_str), Some(code), "status {status}");
    };

    // Unknown path and wrong method (connection stays usable after both).
    let mut client = Client::connect(&server);
    let (status, response) = client.request("GET", "/v1/nope", None);
    assert_eq!(status, 404);
    expect_error(status, &response, "not_found");
    let (status, response) = client.request("DELETE", "/v1/prove", None);
    assert_eq!(status, 405);
    expect_error(status, &response, "method_not_allowed");

    // Bad JSON, missing and empty "pairs": 400 with the offending field.
    for bad in ["this is not json", "{}", "{\"pairs\":[]}", "{\"pairs\":[[\"only one\"]]}"] {
        let mut client = Client::connect(&server);
        let (status, response) = client.request("POST", "/v1/prove", Some(bad));
        assert_eq!(status, 400, "{bad:?}");
        expect_error(status, &response, "bad_request");
    }

    // A POST without Content-Length is refused with 411.
    {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"POST /v1/prove HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.contains("411"), "got {response:?}");
    }

    // A declared body above the cap is refused with 413 before it is read.
    {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer
            .write_all(b"POST /v1/prove HTTP/1.1\r\nHost: x\r\nContent-Length: 999999\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.contains("413"), "got {response:?}");
    }

    // The server is healthy after all of it.
    let mut client = Client::connect(&server);
    let (status, _) = client.request("GET", "/v1/health", None);
    assert_eq!(status, 200);
    drop(client);
    server.shutdown();
}

/// Over-deep input on either `/v1/prove` input — the JSON body or a query
/// inside it — gets a structured error from a worker on its default 2 MiB
/// stack, and the server keeps answering. The deepest accepted queries
/// still prove there.
#[test]
fn deep_requests_get_structured_errors_and_the_server_survives() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let healthy = || {
        let (status, _) = Client::connect(&server).request("GET", "/v1/health", None);
        assert_eq!(status, 200);
    };

    // A body nested 10,000 arrays deep is a bad request.
    let deep_body = format!(r#"{{"pairs":{}1{}}}"#, "[".repeat(10_000), "]".repeat(10_000));
    let (status, response) =
        Client::connect(&server).request("POST", "/v1/prove", Some(&deep_body));
    assert_eq!(status, 400);
    let error = response.get("error").expect("error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_request"));
    healthy();

    let nots = |n: usize| format!("MATCH (n) WHERE {}n.a = 1 RETURN n", "NOT ".repeat(n));
    let parens = |n: usize| format!("MATCH (n) RETURN {}1{}", "(".repeat(n), ")".repeat(n));
    let conjunction =
        |n: usize| format!("MATCH (n) WHERE {} RETURN n", vec!["n.a = 1"; n].join(" AND "));
    for query in [nots(10_000), parens(1_000), conjunction(10_000)] {
        let body = prove_body(&[(&query, "MATCH (n) RETURN n")]);
        let (status, response) = Client::connect(&server).request("POST", "/v1/prove", Some(&body));
        assert_eq!(status, 200);
        let result = &response.get("results").and_then(Json::as_array).expect("results")[0];
        let error = result.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("invalid_query"));
        healthy();
    }

    // The deepest accepted form of each proves against itself.
    for query in [nots(61), parens(63), conjunction(62)] {
        let body = prove_body(&[(&query, &query)]);
        let (status, response) = Client::connect(&server).request("POST", "/v1/prove", Some(&body));
        assert_eq!(status, 200);
        assert_eq!(verdicts(&response), vec!["equivalent"], "{query}");
    }
    healthy();
    server.shutdown();
}

#[test]
fn a_full_admission_queue_rejects_with_a_structured_overload() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    // One worker, one queue slot. A stalled request occupies the worker;
    // the next connection fills the queue; the one after that must be
    // rejected inline with 503.
    let server = test_server(ServeConfig { workers: 1, queue_capacity: 1, ..test_config() });
    faults::arm(Stage::Normalize, FaultKind::Stall(Duration::from_millis(800)), 1);

    let mut stalled = Client::connect(&server);
    let body = prove_body(&[EQ]);
    let head = format!(
        "POST /v1/prove HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stalled.writer.write_all(head.as_bytes()).unwrap();
    // Let the worker pick the stalled connection up, leaving the queue empty.
    std::thread::sleep(Duration::from_millis(200));

    let queued = Client::connect(&server); // fills the single queue slot
    std::thread::sleep(Duration::from_millis(50));
    let mut rejected = Client::connect(&server);
    let (status, response) = rejected.read_response();
    assert_eq!(status, 503);
    let error = response.get("error").expect("error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("overloaded"));
    assert!(error.get("retry_after_ms").unwrap().as_u64().is_some());

    // The stalled request still completes correctly.
    let (status, response) = stalled.read_response();
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent"]);
    faults::disarm();
    // Close both sessions so the single worker can drain the queue before
    // the stats connection arrives (capacity is 1).
    drop(stalled);
    drop(queued);
    std::thread::sleep(Duration::from_millis(200));

    let mut client = Client::connect(&server);
    let (_, stats) = client.request("GET", "/v1/stats", None);
    assert!(stats.get("rejected_overload").unwrap().as_u64().unwrap() >= 1);
    drop(client);
    server.shutdown();
}

#[test]
fn cache_clears_are_generation_guarded() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let mut client = Client::connect(&server);
    // Warm something up, then observe the generation.
    let (_, _) = client.request("POST", "/v1/prove", Some(&prove_body(&[NEQ])));
    let (_, stats) = client.request("GET", "/v1/stats", None);
    let generation = stats.get("pool_cache_generation").unwrap().as_u64().unwrap();

    // A generation JSON numbers cannot hold exactly is a bad request that
    // names the field, not a clear against a rounded generation.
    let huge = r#"{"expected_generation":18446744073709551616}"#;
    let (status, response) = client.request("POST", "/v1/admin/clear-caches", Some(huge));
    assert_eq!(status, 400);
    let error = response.get("error").expect("error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_request"));
    assert!(error.get("message").and_then(Json::as_str).unwrap().contains("expected_generation"));

    // A clear that names the observed generation lands...
    let body = format!("{{\"expected_generation\":{generation}}}");
    let (status, response) = client.request("POST", "/v1/admin/clear-caches", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(response.get("cleared").unwrap().as_bool(), Some(true));
    assert_eq!(response.get("generation").unwrap().as_u64(), Some(generation + 1));

    // ...and a second clear with the now-stale generation is refused: the
    // warm state rebuilt since the first clear is not wiped again.
    let (status, response) = client.request("POST", "/v1/admin/clear-caches", Some(&body));
    assert_eq!(status, 409);
    assert_eq!(response.get("cleared").unwrap().as_bool(), Some(false));
    assert_eq!(response.get("generation").unwrap().as_u64(), Some(generation + 1));

    // Proving still works after the clear (caches repopulate).
    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ, NEQ])));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent", "not_equivalent"]);
    drop(client);
    server.shutdown();
}

#[test]
fn an_injected_panic_degrades_one_pair_and_the_server_survives() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let mut client = Client::connect(&server);
    let (status, response) = with_quiet_panics(|| {
        faults::arm(Stage::Decide, FaultKind::Panic, 1);
        let result = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ])));
        faults::disarm();
        result
    });
    assert_eq!(status, 200, "a pair panic must not fail the request envelope");
    assert_eq!(verdicts(&response), ["unknown"]);
    let error = response.get("results").unwrap().as_array().unwrap()[0]
        .get("error")
        .expect("error object")
        .clone();
    assert_eq!(error.get("code").unwrap().as_str(), Some("panicked"));

    // The same worker (same connection) proves the pair cleanly afterwards:
    // the panic froze nothing.
    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ])));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent"]);
    let (_, stats) = client.request("GET", "/v1/stats", None);
    assert_eq!(stats.get("unknown").unwrap().as_u64(), Some(1));
    drop(client);
    server.shutdown();
}

/// CI matrix entry point: with `GRAPHQE_FAULT=<kind>@<stage>` set, arm it
/// against a live server and assert the server keeps answering with
/// structured responses. Without the variable the test is a no-op.
#[test]
fn armed_from_the_environment_the_server_survives() {
    let Ok(spec) = std::env::var("GRAPHQE_FAULT") else { return };
    let Some((_, kind)) = faults::parse_spec(&spec) else {
        panic!("unparsable GRAPHQE_FAULT spec: {spec}")
    };
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let server = test_server(test_config());
    let mut client = Client::connect(&server);
    // Stall faults need a deadline shorter than the stall (50ms default) to
    // become observable trips; panic/smt-unknown degrade on their own.
    let deadline = if matches!(kind, FaultKind::Stall(_)) { ",\"deadline_ms\":25" } else { "" };
    let pairs: Vec<String> = [
        ("MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n", "MATCH (n) WHERE n.age > 5 RETURN n"),
        NEQ,
        EQ,
    ]
    .iter()
    .map(|(l, r)| format!("[{l:?},{r:?}]"))
    .collect();
    let body = format!("{{\"pairs\":[{}]{deadline}}}", pairs.join(","));
    let (status, response) = with_quiet_panics(|| {
        assert!(faults::arm_from_env().is_some(), "arming from env must succeed");
        let result = client.request("POST", "/v1/prove", Some(&body));
        faults::disarm();
        result
    });
    assert_eq!(status, 200, "the server must answer under {spec}");
    assert_eq!(verdicts(&response).len(), 3, "every pair must get a verdict under {spec}");

    // The server is alive and correct afterwards.
    let (status, response) = client.request("POST", "/v1/prove", Some(&prove_body(&[EQ, NEQ])));
    assert_eq!(status, 200);
    assert_eq!(verdicts(&response), ["equivalent", "not_equivalent"]);
    let (status, _) = client.request("GET", "/v1/health", None);
    assert_eq!(status, 200);
    drop(client);
    server.shutdown();
}
