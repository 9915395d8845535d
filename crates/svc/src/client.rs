//! A blocking client for the daemon's framed-JSON protocol.
//!
//! One request, one response, in order — the client never pipelines, so
//! a single [`Client`] maps responses to requests trivially. (The server
//! *does* interleave responses across connections; a tool that wants
//! pipelining can open several clients.)

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cyclesteal_obs::json_str;

use crate::json::{self, Value};
use crate::proto;

/// A query request under construction. `Default` is the paper's 2-host
/// exponential-longs scenario at the given loads, analysis evaluator,
/// no deadline budget.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Short-class load.
    pub rho_s: f64,
    /// Long-class load.
    pub rho_l: f64,
    /// Mean short-job size.
    pub mean_s: f64,
    /// Mean long-job size.
    pub long_mean: f64,
    /// Long-job squared coefficient of variation.
    pub long_scv: f64,
    /// Policy name (`"dedicated"` / `"cs_id"` / `"cs_cq"`).
    pub policy: &'static str,
    /// Fleet shape `(k, m)`.
    pub hosts: (usize, usize),
    /// Evaluate the long class by the extended long-only formula.
    pub extend_longs: bool,
    /// Deadline budget in nanoseconds (`None` = unbudgeted).
    pub budget_ns: Option<u64>,
}

impl Default for QueryRequest {
    fn default() -> Self {
        QueryRequest {
            rho_s: 1.0,
            rho_l: 0.5,
            mean_s: 1.0,
            long_mean: 1.0,
            long_scv: 1.0,
            policy: "cs_cq",
            hosts: (1, 1),
            extend_longs: false,
            budget_ns: None,
        }
    }
}

impl QueryRequest {
    /// The request's wire JSON.
    pub fn to_json(&self) -> String {
        let budget = match self.budget_ns {
            Some(ns) => format!(", \"budget_ns\": {ns}"),
            None => String::new(),
        };
        format!(
            "{{\"cmd\": \"query\", \"rho_s\": {}, \"rho_l\": {}, \"mean_s\": {}, \"long_mean\": {}, \"long_scv\": {}, \"policy\": {}, \"hosts\": [{}, {}], \"extend_longs\": {}{}}}",
            self.rho_s,
            self.rho_l,
            self.mean_s,
            self.long_mean,
            self.long_scv,
            json_str(self.policy),
            self.hosts.0,
            self.hosts.1,
            self.extend_longs,
            budget,
        )
    }
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bounds how long [`Client::call_raw`] waits for a response frame.
    ///
    /// # Errors
    ///
    /// Propagated from the socket option call.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one raw JSON request and returns the raw response text.
    ///
    /// # Errors
    ///
    /// Socket failures, or a connection closed before the response (the
    /// daemon crashed or shed the connection mid-flight).
    pub fn call_raw(&mut self, request: &str) -> io::Result<String> {
        proto::write_frame(&mut self.stream, request.as_bytes())?;
        let frame = proto::read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response arrived",
            )
        })?;
        String::from_utf8(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))
    }

    /// Sends one request and parses the response.
    ///
    /// # Errors
    ///
    /// As [`Client::call_raw`], plus malformed response JSON.
    pub fn call(&mut self, request: &str) -> io::Result<Value> {
        let raw = self.call_raw(request)?;
        json::parse(&raw).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response: {e}"),
            )
        })
    }

    /// Evaluates one scenario query.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn query(&mut self, req: &QueryRequest) -> io::Result<Value> {
        self.call(&req.to_json())
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn ping(&mut self) -> io::Result<bool> {
        let v = self.call("{\"cmd\": \"ping\"}")?;
        Ok(v.get("pong").and_then(Value::as_bool) == Some(true))
    }

    /// Operational counters snapshot.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn stats(&mut self) -> io::Result<Value> {
        self.call("{\"cmd\": \"stats\"}")
    }

    /// Requests a graceful drain of the daemon.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn drain(&mut self) -> io::Result<Value> {
        self.call("{\"cmd\": \"drain\"}")
    }
}
