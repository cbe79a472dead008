//! The termination-signal path: `set_termination_requested(true)` takes
//! the signal handler's own route (flag, self-pipe byte, watcher thread,
//! `drain`) and must wake an idle daemon parked in `accept(2)`. A test
//! binary of its own, because the flag is process-global and would
//! drain every other daemon in the process.

use bce_serve::signal::set_termination_requested;
use bce_serve::{ServeConfig, ServeSummary, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn termination_request_drains_an_idle_daemon() {
    let dir = std::env::temp_dir().join(format!("bce-serve-signal-{}", std::process::id()));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        checkpoint_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let (tx, done) = mpsc::channel();
    std::thread::spawn(move || tx.send(server.run()));

    // One request proves the acceptor is up and parked between clients.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("healthz response");
    assert!(buf.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&buf));

    set_termination_requested(true);
    let summary = done.recv_timeout(Duration::from_secs(2)).expect("run did not return within 2 s");
    assert_eq!(summary, ServeSummary { accepted: 1, ..ServeSummary::default() });
    let _ = std::fs::remove_dir_all(&dir);
}
