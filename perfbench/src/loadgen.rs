//! Open-loop load generation: every request has a due time fixed by a
//! constant-rate schedule, and its latency is measured from that due
//! time, so a server stall shows up in every request it delays instead of
//! silently lowering the offered load.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use traj_service::client::http_get_timeout;

use crate::inputs::Query;
use crate::trace;

/// Per-request connect/read/write timeout.  A request that exceeds it is
/// a failed operation.
pub const TIMEOUT: Duration = Duration::from_secs(5);

/// A response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// Sends `GET target` to `addr` on a fresh connection (the server answers
/// one request per connection) and reads the whole response.
///
/// # Errors
///
/// Connection failures, timeouts and malformed responses.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Response> {
    http_get_timeout(addr, target, TIMEOUT).map(|(status, body)| Response { status, body })
}

/// The outcome of one scheduled request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the query pool.
    pub query: usize,
    /// Seconds from the phase start at which the request was due.
    pub due: f64,
    /// Seconds from the phase start at which it was sent.
    pub sent: f64,
    /// Seconds from the phase start at which the response was complete.
    pub done: f64,
    /// The response, or the transport error.
    pub response: Result<Response, String>,
}

impl Sample {
    /// Milliseconds from due time to completion.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Microseconds from send to completion (the server's share).
    pub fn service_us(&self) -> f64 {
        (self.done - self.sent) * 1e6
    }

    /// `true` for a 200 response.
    pub fn ok(&self) -> bool {
        matches!(&self.response, Ok(r) if r.status == 200)
    }
}

/// Sleeps until `start + at` (returns at once when that is past).
pub fn wait_until(start: Instant, at: f64) {
    let target = start + Duration::from_secs_f64(at);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Due times of `n` requests at `rate` per second, starting at `offset`.
pub fn schedule(rate: f64, n: usize, offset: f64) -> Vec<f64> {
    (0..n).map(|i| offset + i as f64 / rate).collect()
}

/// Sends `queries[idx[i]]` at `due[i]` from `threads` generator threads
/// (thread `k` sends every `threads`-th request, one connection open per
/// thread) and returns every sample in schedule order.
pub fn run(
    addr: SocketAddr,
    queries: &[Query],
    idx: &[usize],
    due: &[f64],
    threads: usize,
) -> Vec<Sample> {
    assert_eq!(idx.len(), due.len());
    let start = Instant::now();
    let mut per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(idx.len() / threads + 1);
                    for i in (k..idx.len()).step_by(threads) {
                        wait_until(start, due[i]);
                        let target = queries[idx[i]].target();
                        let sent = start.elapsed().as_secs_f64();
                        let response = {
                            let _span = trace::span("service.http");
                            get(addr, &target).map_err(|e| e.to_string())
                        };
                        out.push(Sample {
                            query: idx[i],
                            due: due[i],
                            sent,
                            done: start.elapsed().as_secs_f64(),
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut all: Vec<Sample> = per_thread.drain(..).flatten().collect();
    all.sort_by(|a, b| a.due.total_cmp(&b.due));
    all
}
