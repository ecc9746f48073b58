//! Integration tests of `sweep serve`: snapshot-consistent concurrent
//! reads while a writer publishes and compacts, and resilience to client
//! hangups.
//!
//! The consistency contract under test: every `/query` response must be
//! byte-identical to some *offline* `sweep query` over a store state that
//! actually existed (a write prefix), no response may mix epochs, and a
//! post-quiesce query must see every write.

use acmp_store::{Catalog, DiskStore, Query, RawKey};
use acmp_sweep::serve::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A result-shaped key, as the engine's `JobKey` mints them.
fn result_key(benchmark: &str, design: &str) -> RawKey {
    RawKey::new(format!(
        "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
         \"design\":{{\"name\":\"{design}\",\"sharing\":\"Private\"}}}}"
    ))
}

/// Publishes one result the way a finished sweep process does: a fresh
/// store handle appends into its own new segment file and exits.
fn publish(root: &PathBuf, benchmark: &str, design: &str, cycles: u64) {
    let writer = DiskStore::open(root).unwrap();
    let value: serde::Value =
        serde_json::from_str(&format!("{{\"cycles\":{cycles},\"ipc\":0.5}}")).unwrap();
    writer.save(&result_key(benchmark, design), &value).unwrap();
}

/// The offline answer: what `sweep query cycles>0 --by cycles` renders
/// over the store as it stands right now.  Uses the same library path as
/// the CLI, so this is the byte-exact reference.
fn offline_answer(root: &PathBuf) -> String {
    let store = DiskStore::open(root).unwrap();
    let catalog = Catalog::open(&store).unwrap();
    let query = Query::parse(&[], "cycles", None, false).unwrap();
    let mut body = String::new();
    for hit in catalog.query(&query) {
        body.push_str(&hit.to_jsonl(&query.by));
        body.push('\n');
    }
    body
}

/// Issues one raw HTTP request and returns (status line, body).
fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head/body separator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

fn post_query(addr: SocketAddr, tokens: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{tokens}",
            tokens.len()
        ),
    )
}

#[test]
fn concurrent_queries_are_snapshot_consistent_across_publish_and_compact() {
    let root = temp_dir("concurrent");
    let benchmarks = ["Cg", "Lu", "Mg", "Ft", "Sp", "Bt"];

    // Precompute the offline answer for every write-prefix state by
    // replaying the same publishes into a scratch store.  The rendered
    // bytes depend only on the record contents, not the directory, so
    // these are exactly the answers the server may legally give.
    let scratch = temp_dir("concurrent-scratch");
    publish(&scratch, "Cg", "base", 100);
    let mut legal: Vec<String> = vec![offline_answer(&scratch)];
    for (i, benchmark) in benchmarks.iter().enumerate().skip(1) {
        publish(&scratch, benchmark, "base", 100 + 10 * i as u64);
        legal.push(offline_answer(&scratch));
    }

    // The served store starts with the first publish already in place.
    publish(&root, "Cg", "base", 100);
    let mut server = Server::start(&root, "127.0.0.1:0", 4).unwrap();
    let addr = server.local_addr();

    // N readers hammer /query until the writer is done.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut seen: Vec<String> = Vec::new();
                // At least 20 queries each, even if the writer finishes
                // first — the tail ones all see the final state, which is
                // as legal as any other.
                while seen.len() < 20 || !done.load(Ordering::SeqCst) {
                    let (status, body) = post_query(addr, "--by cycles");
                    assert_eq!(status, "HTTP/1.1 200 OK");
                    seen.push(body);
                }
                seen
            })
        })
        .collect();

    // The writer publishes the remaining results one segment at a time and
    // compacts mid-stream (deleting the superseded segment files under the
    // server's feet).
    for (i, benchmark) in benchmarks.iter().enumerate().skip(1) {
        publish(&root, benchmark, "base", 100 + 10 * i as u64);
        if i == 3 {
            DiskStore::open(&root).unwrap().compact().unwrap();
        }
    }
    done.store(true, Ordering::SeqCst);

    let mut responses = 0usize;
    for reader in readers {
        for body in reader.join().unwrap() {
            assert!(
                legal.contains(&body),
                "response matches no offline answer over any store state that \
                 existed:\n{body}"
            );
            responses += 1;
        }
    }
    assert!(responses > 0, "the readers actually queried");

    // Post-quiesce: the next query must see every write (the last answer).
    let (status, body) = post_query(addr, "--by cycles");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        body,
        legal[legal.len() - 1],
        "a post-quiesce query sees all writes"
    );

    server.shutdown();
}

#[test]
fn a_client_hangup_is_logged_and_never_fatal() {
    let root = temp_dir("hangup");
    publish(&root, "Cg", "base", 100);
    // Metrics on so the disconnect counter (and /stats) is live.
    acmp_obs::enable_metrics();
    let before = acmp_obs::registry()
        .snapshot()
        .counter(acmp_obs::names::SERVE_CLIENT_DISCONNECTS);

    let mut server = Server::start(&root, "127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();

    // Hang up mid-request: promise a body and close without sending it.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\n--by")
            .unwrap();
    } // dropped: the server sees EOF with 60 bytes still owed

    // And hang up mid-response: send a full query, then close both
    // directions without reading a byte of the answer.
    {
        let stream = TcpStream::connect(addr).unwrap();
        (&stream)
            .write_all(b"GET /query?--by=cycles HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Both).unwrap();
    }

    // The server is still answering, byte-identically to the offline CLI.
    let (status, body) = post_query(addr, "--by cycles");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, offline_answer(&root));

    // The mid-request hangup is deterministic, so at least one disconnect
    // was counted and the server survived it.  The counting happens on a
    // worker thread, so give it a moment to land.
    let mut after = before;
    for _ in 0..400 {
        after = acmp_obs::registry()
            .snapshot()
            .counter(acmp_obs::names::SERVE_CLIENT_DISCONNECTS);
        if after > before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        after > before,
        "the hangup was counted ({before} -> {after})"
    );

    // /stats answers the versioned metrics document.
    let (status, stats) = http(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        stats.contains("\"schema\":\"acmp-obs-metrics/v1\""),
        "{stats}"
    );
    assert!(
        stats.contains(&format!(
            "\"{}\"",
            acmp_obs::names::SERVE_CLIENT_DISCONNECTS
        )),
        "{stats}"
    );

    server.shutdown();
}

#[test]
fn bad_queries_answer_400_with_the_vocabulary() {
    let root = temp_dir("badquery");
    publish(&root, "Cg", "base", 100);
    let mut server = Server::start(&root, "127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();

    let (status, body) = post_query(addr, "--by cylces");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("unknown metric `cylces`"), "{body}");
    assert!(body.contains("cycles"), "the vocabulary is listed: {body}");

    let (status, _) = post_query(addr, "benchmark=cg");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    let (status, body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    server.shutdown();
}
