//! Connection churn must not leak: a daemon serving many short-lived
//! clients returns to its baseline open-descriptor and thread counts once
//! they have gone. This suite is a test binary of its own so that no other
//! test's sockets or threads move the process-wide counts it reads.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use cyclesteal_svc::client::Client;
use cyclesteal_svc::server::{Server, ServerConfig};

/// Entries under a `/proc/self` directory (open fds or live threads).
fn count(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs").count()
}

/// Polls until the fd and thread counts are back at `baseline`, or the
/// deadline passes; returns the last counts seen.
fn settle(baseline: (usize, usize)) -> (usize, usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = (count("/proc/self/fd"), count("/proc/self/task"));
        if now == baseline || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn closed_connections_release_their_descriptors_and_threads() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let baseline = (count("/proc/self/fd"), count("/proc/self/task"));

    // Most clients connect and leave at once; every 50th completes a
    // request first, so its reader has served a frame before the close.
    for i in 0..500 {
        if i % 50 == 0 {
            let mut client = Client::connect(server.addr()).expect("connect");
            client
                .set_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            assert!(client.ping().expect("ping"));
        } else {
            drop(TcpStream::connect(server.addr()).expect("connect"));
        }
    }

    let after = settle(baseline);
    assert_eq!(
        after, baseline,
        "(open fds, threads) after 500 closed connections vs baseline"
    );
    server.drain();
    server.join().expect("join");
}
