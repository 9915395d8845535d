//! Wire fuzzer: hostile bytes against the framing layer, the JSON parser
//! and a live daemon.
//!
//! The offline properties drive `proto::read_frame` → `json::parse` with
//! random streams, truncated and oversized frames, deep nesting,
//! non-finite numbers and byte-mutated queries: every input must come
//! back as a value or an error, never a panic. The live property sends
//! random frames, byte-mutated query documents among them, down one
//! connection of an in-process daemon: each one must get a structured
//! response (a JSON object with an `ok` flag) or a clean close, under a
//! read timeout, so a hang fails instead of stalling the suite;
//! afterwards the daemon must still answer `ping`. A mutated `hosts`
//! field can ask for any fleet up to `[32, 32]`; the daemon's chain-size
//! limit refuses the ones too large to solve before they are admitted.

use std::io::{self, Cursor, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use cyclesteal_svc::client::Client;
use cyclesteal_svc::json::{self, Value};
use cyclesteal_svc::proto::{self, MAX_FRAME};
use cyclesteal_svc::server::{Server, ServerConfig};
use cyclesteal_xtest::prop::vec;
use cyclesteal_xtest::{props, RngExt, SeedableRng, SmallRng};

/// A query the daemon answers cheaply: the paper's (1, 1) system.
const QUERY: &str = r#"{"cmd": "query", "rho_s": 0.9, "rho_l": 0.5, "hosts": [1, 1]}"#;

/// A (2, 2) fleet query, every field the daemon reads spelled out, so a
/// mutation can land in any of them.
const FLEET_QUERY: &str = r#"{"cmd": "query", "rho_s": 1.5, "rho_l": 0.5, "mean_s": 1, "long_mean": 1, "long_scv": 4, "policy": "cs_cq", "hosts": [2, 2], "extend_longs": false, "budget_ns": 9000000000}"#;

/// Tokens that are not finite JSON numbers, or that overflow `f64`.
const NON_FINITE: [&str; 7] = [
    "1e999",
    "-1e999",
    "NaN",
    "Infinity",
    "-Infinity",
    "1e309",
    "inf",
];

fn random_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_below(256) as u8).collect()
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// `depth` nested arrays or objects around `1`, picked by `rng`.
fn nested(rng: &mut SmallRng, depth: usize) -> String {
    let mut doc = String::new();
    let mut close = Vec::new();
    for _ in 0..depth {
        if rng.random::<bool>() {
            doc.push('[');
            close.push(']');
        } else {
            doc.push_str("{\"a\": ");
            close.push('}');
        }
    }
    doc.push('1');
    doc.extend(close.iter().rev());
    doc
}

/// `doc` with up to four random bytes overwritten.
fn mutated(rng: &mut SmallRng, doc: &str) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..1 + rng.random_below(4) {
        let at = rng.random_below(bytes.len() as u64) as usize;
        bytes[at] = rng.random_below(256) as u8;
    }
    bytes
}

/// A query document whose `rho_s` is a non-finite token.
fn non_finite_query(rng: &mut SmallRng) -> String {
    let token = NON_FINITE[rng.random_below(NON_FINITE.len() as u64) as usize];
    format!(r#"{{"cmd": "query", "rho_s": {token}, "rho_l": 0.5}}"#)
}

/// Parses a payload the way the daemon does; returns the document when
/// it is valid UTF-8 JSON.
fn parse_payload(payload: &[u8]) -> Option<Value> {
    json::parse(std::str::from_utf8(payload).ok()?).ok()
}

/// Reads every frame of `stream` until it ends, checking the frame cap.
fn read_all(stream: &[u8]) -> io::Result<Vec<Vec<u8>>> {
    let mut cur = Cursor::new(stream);
    let mut frames = Vec::new();
    while let Some(frame) = proto::read_frame(&mut cur)? {
        assert!(
            frame.len() <= MAX_FRAME,
            "a {} byte frame got through",
            frame.len()
        );
        frames.push(frame);
    }
    Ok(frames)
}

props! {
    cases = 256;

    /// Random byte streams: `read_frame` either yields frames within the
    /// cap or fails cleanly, and the parser takes whatever it yields.
    fn random_streams_never_panic_the_reader_or_parser(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
        small_prefix in 0u32..2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stream = random_bytes(&mut rng, len);
        if small_prefix == 1 && stream.len() >= 4 {
            // Most random prefixes exceed the cap; this one often fits.
            let claimed = rng.random_below(stream.len() as u64) as u32;
            stream[..4].copy_from_slice(&claimed.to_be_bytes());
        }
        if let Ok(frames) = read_all(&stream) {
            for frame in frames {
                let _ = parse_payload(&frame);
            }
        }
    }

    /// A frame cut anywhere fails as a clean EOF error; cut before its
    /// first byte it reads as a closed connection.
    fn truncated_frames_fail_cleanly(seed in 0u64..u64::MAX, len in 1usize..256) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frame = framed(&random_bytes(&mut rng, len));
        let cut = rng.random_below(frame.len() as u64) as usize;
        match proto::read_frame(&mut Cursor::new(&frame[..cut])) {
            Ok(None) => assert_eq!(cut, 0),
            Ok(Some(_)) => panic!("a frame cut at {cut} of {} was read whole", frame.len()),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}"),
        }
    }

    /// A length prefix over the cap is refused before any payload is read.
    fn oversized_frames_are_refused(claimed in (MAX_FRAME as u64 + 1)..(u32::MAX as u64 + 1)) {
        let mut stream = (claimed as u32).to_be_bytes().to_vec();
        stream.extend_from_slice(b"{}");
        let err = proto::read_frame(&mut Cursor::new(stream)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Nesting is refused past depth 16, at any depth a frame can carry,
    /// without recursing further.
    fn deep_nesting_is_refused_past_the_depth_cap(seed in 0u64..u64::MAX, depth in 0usize..9_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let doc = nested(&mut rng, depth);
        let frames = read_all(&framed(doc.as_bytes())).unwrap();
        assert_eq!(parse_payload(&frames[0]).is_some(), depth <= 16, "depth {depth}");
    }

    /// Non-finite numbers never parse, and byte-mutated queries parse or
    /// fail without a panic.
    fn non_finite_and_mutated_queries_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let doc = non_finite_query(&mut rng);
        assert!(parse_payload(doc.as_bytes()).is_none(), "{doc}");
        if let Some(Value::Num(x)) = parse_payload(&mutated(&mut rng, QUERY))
            .as_ref()
            .and_then(|d| d.get("rho_s"))
        {
            assert!(x.is_finite());
        }
    }
}

/// What the daemon must do with one fuzzed frame.
enum Expect {
    /// Answer with one structured response.
    Response,
    /// The frame ends the connection: the client half-closes after it,
    /// and the daemon answers any whole frames it read, then closes.
    Close,
}

/// The bytes of fuzzed frame `kind`, and what the daemon must do with
/// them.
fn live_frame(kind: u32, seed: u64, len: usize) -> (Vec<u8>, Expect) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind {
        0 => (framed(&random_bytes(&mut rng, len)), Expect::Response),
        1 => (
            framed(nested(&mut rng, len * 40).as_bytes()),
            Expect::Response,
        ),
        2 => (
            framed(non_finite_query(&mut rng).as_bytes()),
            Expect::Response,
        ),
        3 => {
            let doc = [
                r#"{"cmd": "ping"}"#,
                r#"{"cmd": "stats"}"#,
                QUERY,
                FLEET_QUERY,
            ][len % 4];
            let bytes = mutated(&mut rng, doc);
            if String::from_utf8_lossy(&bytes).contains("drain") {
                (framed(b"{}"), Expect::Response)
            } else {
                (framed(&bytes), Expect::Response)
            }
        }
        4 => (framed(QUERY.as_bytes()), Expect::Response),
        5 => (random_bytes(&mut rng, len), Expect::Close),
        6 => {
            let frame = framed(&random_bytes(&mut rng, len.max(1)));
            let cut = rng.random_below(frame.len() as u64) as usize;
            (frame[..cut].to_vec(), Expect::Close)
        }
        _ => {
            let claimed = MAX_FRAME as u32 + 1 + rng.random_below(1 << 20) as u32;
            let mut bytes = claimed.to_be_bytes().to_vec();
            bytes.extend_from_slice(&random_bytes(&mut rng, len));
            (bytes, Expect::Close)
        }
    }
}

/// A structured response: a JSON object carrying a boolean `ok`.
fn assert_structured(frame: &[u8]) {
    let doc = parse_payload(frame)
        .unwrap_or_else(|| panic!("unparseable response {:?}", String::from_utf8_lossy(frame)));
    assert!(
        doc.get("ok").and_then(Value::as_bool).is_some(),
        "response without an ok flag: {:?}",
        String::from_utf8_lossy(frame)
    );
}

/// Reads responses until the daemon closes the connection. A reset
/// counts as a close (the daemon may drop unread bytes); a timeout is a
/// hang.
fn read_until_closed(stream: &mut TcpStream) {
    loop {
        match proto::read_frame(stream) {
            Ok(Some(frame)) => assert_structured(&frame),
            Ok(None) => return,
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ),
                    "the daemon neither answered nor closed: {e}"
                );
                return;
            }
        }
    }
}

props! {
    cases = 24;

    /// Each random frame on a live connection gets a structured response
    /// or a clean close, and the daemon answers `ping` afterwards.
    fn a_live_daemon_answers_or_closes_on_every_fuzzed_frame(
        frames in vec((0u32..8, 0u64..u64::MAX, 0usize..200), 6),
    ) {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("start");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for &(kind, seed, len) in &frames {
            let (bytes, expect) = live_frame(kind, seed, len);
            // The daemon may close first on a refused prefix; a failed
            // write is then the close this frame may cause.
            let sent = stream.write_all(&bytes).and_then(|()| stream.flush());
            match expect {
                Expect::Response => {
                    sent.expect("send");
                    let frame = proto::read_frame(&mut stream)
                        .expect("a response, not an error")
                        .expect("a response, not a close");
                    assert_structured(&frame);
                }
                Expect::Close => {
                    let _ = stream.shutdown(Shutdown::Write);
                    read_until_closed(&mut stream);
                    break;
                }
            }
        }
        drop(stream);

        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        assert!(client.ping().expect("ping"), "the daemon stopped answering");
        server.drain();
        server.join().expect("join");
    }
}
