//! A minimal keep-alive HTTP/1.1 client for `/v1/prove`: one request in
//! flight, `Content-Length` framing, JSON bodies through `graphqe_serve::json`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use graphqe_serve::json::{self, Json};

/// One connection to the server.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        // Head and body go out in one write; without NODELAY a delayed ACK
        // would add tens of milliseconds to some requests.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { addr, reader: BufReader::new(stream), writer })
    }

    /// Replaces a connection the server closed or that failed mid-request.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// Sends one `POST /v1/prove` with a prebuilt body; returns the status
    /// and the raw response body.
    pub fn post_prove(&mut self, body: &str) -> std::io::Result<(u16, String)> {
        let message = format!(
            "POST /v1/prove HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(message.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let malformed =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(malformed("connection closed before the status line"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed("malformed status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(malformed("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| malformed("response without Content-Length"))?;
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| malformed("non-UTF-8 response body"))?;
        Ok((status, body))
    }
}

/// The request body proving one pair.
pub fn prove_body(left: &str, right: &str) -> String {
    let pair = Json::Arr(vec![json::str(left), json::str(right)]);
    json::obj(vec![("pairs", Json::Arr(vec![pair]))]).to_string()
}

/// The fields of a one-pair `/v1/prove` response the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ProveReply {
    /// `equivalent`, `not_equivalent` or `unknown`.
    pub verdict: String,
    /// Server-side prove time of the pair, in microseconds.
    pub latency_us: f64,
    /// The witness's position in the candidate pool, for `not_equivalent`.
    pub pool_index: Option<f64>,
    /// Arena-budget cache resets the request caused.
    pub epoch_resets: f64,
}

/// Parses a one-pair response body; `Err` names what is missing.
pub fn parse_reply(body: &str) -> Result<ProveReply, String> {
    let doc = Json::parse(body)?;
    let result = match doc.get("results").and_then(Json::as_array) {
        Some([result]) => result,
        _ => return Err("expected exactly one entry in \"results\"".to_string()),
    };
    let verdict = result.get("verdict").and_then(Json::as_str).ok_or("missing \"verdict\"")?;
    let latency_us =
        result.get("latency_us").and_then(Json::as_f64).ok_or("missing \"latency_us\"")?;
    let pool_index =
        result.get("counterexample").and_then(|c| c.get("pool_index")).and_then(Json::as_f64);
    let epoch_resets =
        doc.get("epoch_resets").and_then(Json::as_f64).ok_or("missing \"epoch_resets\"")?;
    Ok(ProveReply { verdict: verdict.to_string(), latency_us, pool_index, epoch_resets })
}
