//! `sweep serve`: the long-lived query service over a result store.
//!
//! A dependency-free HTTP server (std [`TcpListener`], one acceptor plus a
//! fixed worker pool, `Connection: close` per request) exposing three
//! endpoints:
//!
//! * **`POST/GET /query`** — accepts the exact `sweep query` grammar
//!   (filters plus `--by METRIC [--top K] [--desc]`; as a POST body of
//!   whitespace-separated tokens or a percent-encoded GET query string)
//!   and answers JSONL **byte-identical** to the offline CLI — both sides
//!   render through [`QueryHit::to_jsonl`].
//! * **`GET /stats`** — the live `acmp-obs-metrics/v1` snapshot (see
//!   [`acmp_obs::METRICS_SCHEMA`]), the same document the CLI writes with
//!   `--metrics-out` and the planned elastic coordinator consumes as its
//!   heartbeat.
//! * **`GET /healthz`** — liveness.
//!
//! Queries are answered from an [`EpochCache`]: each request polls the
//! cache, which detects writer publishes (refresh + snapshot fingerprint)
//! and rolls to a fresh epoch without blocking in-flight readers.  A warm
//! epoch answers with **zero segment value reads** — observable as the
//! absence of `store.value_reads` in `/stats`.
//!
//! A broken client socket is never fatal: the connection is logged,
//! counted (`serve.client_disconnects`), and dropped — the offline CLI's
//! `die_on_write_error` policy explicitly does not apply here.

use acmp_store::{DiskStore, EpochCache, Query, QueryHit};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Default worker threads when the caller does not choose.
pub const DEFAULT_WORKERS: usize = 4;

/// One parsed request: method, target, and (for POST) the body.
struct Request {
    method: String,
    target: String,
    body: String,
}

/// Why a `/query` request failed.
enum QueryError {
    /// The client's fault: bad grammar, unknown metric.  Answered 400.
    Client(String),
    /// The store's fault: the epoch could not be (re)built.  Answered 500.
    Server(String),
}

/// The running server: an acceptor thread, a worker pool, and the epoch
/// cache they serve from.  Dropping the server shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the store under `root`, builds the first epoch (so a broken
    /// store fails here, not on the first request), binds `addr`, and
    /// starts serving on `workers` threads.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store cannot be opened, the first
    /// epoch cannot be built, or the address cannot be bound.
    pub fn start(root: impl Into<PathBuf>, addr: &str, workers: usize) -> io::Result<Server> {
        let store = DiskStore::open(root)?;
        let cache = Arc::new(EpochCache::new(store));
        cache.current().map_err(|e| {
            io::Error::new(e.kind(), format!("building the first epoch failed: {e}"))
        })?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || loop {
                    // Take the next connection with the receiver lock
                    // *released* while handling, so workers drain in
                    // parallel.
                    let next = receiver.lock().recv();
                    match next {
                        Ok(stream) => handle_connection(&cache, stream),
                        Err(_) => break, // acceptor gone: shutdown
                    }
                })
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        // A send fails only when every worker exited,
                        // which only happens at shutdown.
                        Ok(stream) => drop(sender.send(stream)),
                        Err(e) => {
                            acmp_obs::logline!("serve: accept failed ({e}); still listening");
                        }
                    }
                }
                // `sender` drops here, which stops the workers.
            })
        };

        Ok(Server {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with `--addr 127.0.0.1:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains the worker pool, and joins every thread.
    /// In-flight requests finish; queued ones are still answered.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one throwaway connection.
        drop(TcpStream::connect(self.local_addr));
        if let Some(acceptor) = self.acceptor.take() {
            drop(acceptor.join());
        }
        for worker in self.workers.drain(..) {
            drop(worker.join());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection end-to-end.  A socket error is the client's
/// problem: log, count, drop — never exit.
fn handle_connection(cache: &EpochCache, mut stream: TcpStream) {
    let mut span = acmp_obs::span!(acmp_obs::names::SERVE_CONNECTION);
    if let Err(e) = serve_one(cache, &mut stream) {
        acmp_obs::counter!(acmp_obs::names::SERVE_CLIENT_DISCONNECTS, 1);
        acmp_obs::logline!("serve: client connection dropped ({e}); still serving");
        span.record_field("disconnected", 1u64);
    }
}

/// Reads one request and writes its response.
fn serve_one(cache: &EpochCache, stream: &mut TcpStream) -> io::Result<()> {
    let Some(request) = read_request(stream)? else {
        return Ok(()); // the client connected and said nothing; fine
    };
    acmp_obs::counter!(acmp_obs::names::SERVE_REQUESTS, 1);
    let (path, raw_query) = match request.target.split_once('?') {
        Some((path, raw)) => (path, raw),
        None => (request.target.as_str(), ""),
    };
    match path {
        "/healthz" => respond(stream, "200 OK", "text/plain", "ok\n"),
        "/stats" => {
            let stats = acmp_obs::registry().snapshot().to_value().to_string();
            respond(stream, "200 OK", "application/json", &format!("{stats}\n"))
        }
        "/query" => {
            let tokens = if request.method == "POST" {
                tokenize_body(&request.body)
            } else {
                tokenize_query_string(raw_query)
            };
            match answer_query(cache, &tokens) {
                Ok(body) => respond(stream, "200 OK", "application/jsonl", &body),
                Err(QueryError::Client(msg)) => {
                    respond(stream, "400 Bad Request", "text/plain", &format!("{msg}\n"))
                }
                Err(QueryError::Server(msg)) => respond(
                    stream,
                    "500 Internal Server Error",
                    "text/plain",
                    &format!("{msg}\n"),
                ),
            }
        }
        _ => respond(
            stream,
            "404 Not Found",
            "text/plain",
            "unknown endpoint; try /query, /stats or /healthz\n",
        ),
    }
}

/// Answers one query from the current epoch.  The `serve.query` span's
/// duration histogram is the service's query latency distribution.
fn answer_query(cache: &EpochCache, tokens: &[String]) -> Result<String, QueryError> {
    let mut span = acmp_obs::span!(acmp_obs::names::SERVE_QUERY);
    let query = parse_query_tokens(tokens).map_err(QueryError::Client)?;
    let epoch = cache
        .current()
        .map_err(|e| QueryError::Server(e.to_string()))?;
    span.record_field("epoch", epoch.seq());
    let catalog = epoch.catalog();
    catalog.validate_query(&query).map_err(QueryError::Client)?;
    let hits = catalog.query(&query);
    span.record_field("hits", hits.len());
    let mut body = String::new();
    for hit in &hits {
        // Shared renderer: the service's bytes are the CLI's bytes.
        body.push_str(&QueryHit::to_jsonl(hit, &query.by));
        body.push('\n');
    }
    Ok(body)
}

/// Parses the `sweep query` token grammar: filters interleaved with
/// `--by METRIC` / `--by=METRIC`, `--top K` / `--top=K`, `--desc`.
///
/// # Errors
///
/// Returns a human-readable message for an unknown option, a missing
/// `--by`, or any filter parse error.
pub fn parse_query_tokens(tokens: &[String]) -> Result<Query, String> {
    let mut filters: Vec<String> = Vec::new();
    let mut by: Option<String> = None;
    let mut top: Option<usize> = None;
    let mut descending = false;
    let mut it = tokens.iter();
    while let Some(token) = it.next() {
        if token == "--by" {
            by = Some(it.next().ok_or("--by needs a value")?.clone());
        } else if let Some(value) = token.strip_prefix("--by=") {
            by = Some(value.to_string());
        } else if token == "--top" || token.starts_with("--top=") {
            let value = match token.strip_prefix("--top=") {
                Some(v) => v.to_string(),
                None => it.next().ok_or("--top needs a value")?.clone(),
            };
            top = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad --top `{value}`"))?,
            );
        } else if token == "--desc" {
            descending = true;
        } else if token.starts_with("--") {
            return Err(format!("unknown option `{token}`"));
        } else {
            filters.push(token.clone());
        }
    }
    let by = by.ok_or("a ranking metric (--by METRIC) is required")?;
    Query::parse(&filters, &by, top, descending)
}

/// POST body: whitespace-separated grammar tokens, exactly as they would
/// appear on the `sweep query` command line.
fn tokenize_body(body: &str) -> Vec<String> {
    body.split_whitespace().map(str::to_string).collect()
}

/// GET query string: `&`-separated, percent-encoded grammar tokens
/// (`/query?benchmark=cg&--by=cycles&--top=3`).  A decoded token may
/// itself contain spaces (`--by%20cycles`) and then splits further.
fn tokenize_query_string(raw: &str) -> Vec<String> {
    raw.split('&')
        .map(percent_decode)
        .flat_map(|part| {
            part.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`-as-space; malformed escapes pass through
/// verbatim (the grammar parser will reject them with a better message).
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_nibble(bytes.get(i + 1)), hex_nibble(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One hex digit's value.
fn hex_nibble(byte: Option<&u8>) -> Option<u8> {
    byte.and_then(|b| (*b as char).to_digit(16))
        .map(|d| d as u8)
}

/// Reads one HTTP request (request line, headers, `Content-Length` body).
/// `None` means the client closed before sending a full request line —
/// a clean no-op, not an error.  A body shorter than its declared
/// `Content-Length` *is* an error (the client hung up mid-request).
fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    const MAX_HEAD: usize = 64 * 1024;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let (head_end, sep) = loop {
        if let Some(found) = find_head_end(&buf) {
            break found;
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head exceeds 64 KiB",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "client closed mid-request-head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed request line `{request_line}`"),
        ));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }

    let mut body = buf[head_end + sep..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "client closed mid-request-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        target,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

/// Finds the end of the request head: `(index past the head, separator
/// length)` for the first `\r\n\r\n` (or bare `\n\n`).
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| (at, 4))
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|at| (at, 2)))
}

/// Writes one complete response and closes cleanly.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_token_grammar_matches_the_cli() {
        let q = parse_query_tokens(&tokens(&[
            "benchmark=cg",
            "cycles<=1e6",
            "--by",
            "cycles",
            "--top",
            "3",
            "--desc",
        ]))
        .unwrap();
        assert_eq!(q.by, "cycles");
        assert_eq!(q.top, Some(3));
        assert!(q.descending);
        assert_eq!(q.filters.len(), 2);

        let same = parse_query_tokens(&tokens(&[
            "benchmark=cg",
            "cycles<=1e6",
            "--by=cycles",
            "--top=3",
            "--desc",
        ]))
        .unwrap();
        assert_eq!(q, same);

        assert!(parse_query_tokens(&tokens(&["benchmark=cg"])).is_err());
        assert!(parse_query_tokens(&tokens(&["--wat", "--by", "cycles"])).is_err());
        assert!(parse_query_tokens(&tokens(&["--by", "cycles", "--top", "x"])).is_err());
    }

    #[test]
    fn query_strings_decode_into_grammar_tokens() {
        assert_eq!(
            tokenize_query_string("benchmark=cg&--by=cycles&--top=3"),
            tokens(&["benchmark=cg", "--by=cycles", "--top=3"])
        );
        assert_eq!(
            tokenize_query_string("cycles%3C%3D1e6&--by%20cycles"),
            tokens(&["cycles<=1e6", "--by", "cycles"])
        );
        assert_eq!(tokenize_query_string("a+b"), tokens(&["a", "b"]));
        assert_eq!(percent_decode("100%"), "100%");
    }

    #[test]
    fn request_heads_parse_with_either_line_ending() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some((14, 4)));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some((14, 2)));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
