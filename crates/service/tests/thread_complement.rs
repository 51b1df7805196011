//! The serving tier runs a fixed thread complement: once the first request
//! has started the compute pool's helpers, cold compute under concurrent
//! load adds no thread.
//!
//! This file deliberately holds a single `#[test]`: it reads its own
//! process's thread count, so no sibling test may start threads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use clb_service::{Server, ServiceConfig};

/// One `Connection: close` POST that must answer 200.
fn post(addr: SocketAddr, path: &str, body: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{path}: {raw:.300}");
}

/// `Threads:` of this process.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// A staged sweep over 4 · 4 · 2 · 4 · 4 · 2 = 1,024 candidates.
const DSE_1024: &str = r#"{"co":64,"size":14,"ci":64,"k":3,"batch":1,"grid":{"pe_rows":[8,16,24,32],"pe_cols":[8,16,24,32],"group_rows":[1,2],"lreg_entries_per_pe":[16,32,64,128],"igbuf_entries":[256,640,1024,1600],"wgbuf_entries":[256,1024]},"objective":"energy","top_k":8}"#;

#[test]
fn cold_compute_under_concurrent_load_adds_no_thread() {
    let config = ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    };
    let server = Server::spawn(config).expect("bind an ephemeral port");
    let addr = server.addr();
    post(addr, "/v1/plan", r#"{"co":64,"size":28,"ci":32,"batch":1}"#);

    let start = Barrier::new(4);
    let done = AtomicBool::new(false);
    let (baseline, peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            start.wait();
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        let clients = [
            ("/v1/network", r#"{"net":"vgg16","batch":1}"#),
            ("/v1/dse", DSE_1024),
        ]
        .map(|(path, body)| {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                post(addr, path, body);
            })
        });
        // Every test thread exists now, parked at the barrier.
        let baseline = threads();
        start.wait();
        for client in clients {
            client.join().expect("client finished");
        }
        done.store(true, Ordering::Relaxed);
        (baseline, sampler.join().expect("sampler finished"))
    });
    assert_eq!(
        peak, baseline,
        "the server started threads while computing ({baseline} before, up to {peak} during)"
    );
    server.shutdown().expect("graceful shutdown");
}
