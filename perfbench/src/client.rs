//! The query paths `warm_reads` drives: the in-process `sweep query` (CLI)
//! path and closed-loop HTTP clients against `sweep serve`.

use crate::stats::RequestLog;
use crate::workload::{query_tokens, CLIENTS};
use acmp_store::{Catalog, CatalogSource, DiskStore, QueryHit};
use acmp_sweep::serve::parse_query_tokens;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A request that takes longer than this has failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Renders hits exactly as `sweep query` and `sweep serve` do.
#[must_use]
pub fn render(hits: &[QueryHit<'_>], by: &str) -> String {
    let mut body = String::new();
    for hit in hits {
        body.push_str(&hit.to_jsonl(by));
        body.push('\n');
    }
    body
}

/// One `sweep query` done in-process: a fresh store open, the catalog
/// (persisting it when built by scan, as the CLI does), validation, the
/// query and rendering.
///
/// # Errors
///
/// Returns the I/O error of the open or catalog, or the grammar or
/// validation message as `InvalidData`.
pub fn cli_query(dir: &Path, entry: &str) -> io::Result<String> {
    let store = DiskStore::open(dir)?;
    let catalog = Catalog::open(&store)?;
    if catalog.source() == CatalogSource::Scan && !catalog.rows().is_empty() {
        catalog.persist(&store)?;
    }
    answer(&catalog, entry)
}

/// Parses, validates and answers one query-mix entry from `catalog`.
fn answer(catalog: &Catalog, entry: &str) -> io::Result<String> {
    let query = parse_query_tokens(&query_tokens(entry)).map_err(invalid)?;
    catalog.validate_query(&query).map_err(invalid)?;
    Ok(render(&catalog.query(&query), &query.by))
}

/// The answers to `mix` from one catalog built by value scan, persisting
/// nothing: the reference every later answer must equal byte for byte.
///
/// # Errors
///
/// As [`cli_query`].
pub fn scan_answers(dir: &Path, mix: &[&str]) -> io::Result<Vec<String>> {
    let store = DiskStore::open(dir)?;
    let catalog = Catalog::open(&store)?;
    mix.iter().map(|entry| answer(&catalog, entry)).collect()
}

/// POSTs one query-mix entry to `/query`; returns the status code and body.
///
/// # Errors
///
/// Returns the socket error, a timeout, or `InvalidData` for a malformed
/// response.
pub fn post_query(addr: SocketAddr, entry: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{entry}",
        entry.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8(response).map_err(|e| invalid(e.to_string()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("response has no header end".to_string()))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line in `{head}`")))?;
    Ok((status, body.to_string()))
}

/// What a closed-loop serving phase measured.
#[derive(Debug, Default)]
pub struct ServePhase {
    /// Every request's latency, failures included.
    pub log: RequestLog,
    /// Host seconds from the first send to the last reply.
    pub secs: f64,
}

/// Runs [`CLIENTS`] closed-loop clients against `addr`: each sends the next
/// query of the mix only after its previous reply arrived, until
/// `deadline` has passed and at least `min_requests` were sent, or
/// `max_requests` were sent.  A non-200 reply, a body that differs from
/// `expected`, a socket error or a timeout is a failed request.
#[must_use]
pub fn serve_phase(
    addr: SocketAddr,
    mix: &[&str],
    expected: &[String],
    deadline: Instant,
    min_requests: usize,
    max_requests: usize,
) -> ServePhase {
    let issued = AtomicUsize::new(0);
    let start = Instant::now();
    let log = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = RequestLog::default();
                    loop {
                        let i = issued.fetch_add(1, Ordering::Relaxed);
                        if i >= max_requests || (i >= min_requests && Instant::now() >= deadline) {
                            break;
                        }
                        let case = i % mix.len();
                        let sent = Instant::now();
                        match post_query(addr, mix[case]) {
                            Ok((200, body)) if body == expected[case] => {
                                log.ok(sent.elapsed().as_secs_f64() * 1e3);
                            }
                            _ => log.failed(),
                        }
                    }
                    log
                })
            })
            .collect();
        let mut all = RequestLog::default();
        for client in clients {
            all.merge(client.join().expect("client thread panicked"));
        }
        all
    });
    ServePhase {
        log,
        secs: start.elapsed().as_secs_f64(),
    }
}
