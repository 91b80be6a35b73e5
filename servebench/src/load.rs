//! The closed-loop load generator: each client thread sends its next
//! request only after the previous response is in, on one keep-alive
//! connection.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

use crate::util::{current_tid, RawClient};

/// Run phases, set by the coordinating thread.
pub const WARM: u8 = 0;
pub const MEASURE: u8 = 1;
/// The traced half of a traced run's window: like [`MEASURE`], and each
/// request also records a span.
pub const TRACED: u8 = 2;
pub const STOP: u8 = 3;

/// What a client thread saw.
#[derive(Default)]
pub struct ClientStats {
    pub tid: u32,
    /// Requests sent, in any phase.
    pub sent: u64,
    /// (start, end) of every request answered with a 200, in any phase,
    /// in nanoseconds since the run's origin.
    pub answered: Vec<(u64, u64)>,
    /// Requests sent in the window (measured or traced phase).
    pub window: u64,
    /// Of those, answered with a status other than 200.
    pub non_200: u64,
    /// Of those, lost to a transport failure.
    pub transport: u64,
    /// Of those, 200s whose body the check rejected.
    pub wrong: u64,
    /// Every request (any phase) that was not a 200.
    pub failed_total: u64,
    /// (start, end, request index) of every request sent in the traced
    /// phase.
    pub spans: Vec<(u64, u64, u64)>,
}

/// Drive one connection until the phase reaches [`STOP`]. `next(i)`
/// renders request `i`; `check(i, body)` judges a 200 body and returns
/// whether it was correct.
pub fn closed_loop<'a>(
    addr: SocketAddr,
    phase: &AtomicU8,
    origin: Instant,
    next: &mut dyn FnMut(u64) -> Cow<'a, [u8]>,
    check: &mut dyn FnMut(u64, &[u8]) -> bool,
) -> ClientStats {
    let mut stats = ClientStats {
        tid: current_tid(),
        ..ClientStats::default()
    };
    let mut client = RawClient::connect(addr).expect("connect generator");
    for i in 0.. {
        let request = next(i);
        let now_phase = phase.load(Ordering::SeqCst);
        if now_phase == STOP {
            break;
        }
        let in_window = u64::from(now_phase != WARM);
        let started = Instant::now();
        let outcome = client.round_trip(&request);
        let ended = Instant::now();
        stats.sent += 1;
        stats.window += in_window;
        let (start_ns, end_ns) = (
            started.duration_since(origin).as_nanos() as u64,
            ended.duration_since(origin).as_nanos() as u64,
        );
        if now_phase == TRACED {
            stats.spans.push((start_ns, end_ns, i));
        }
        match outcome {
            Ok((200, body)) => {
                let body = &client.buf()[body];
                let correct = check(i, body);
                stats.wrong += in_window * u64::from(!correct);
                stats.answered.push((start_ns, end_ns));
            }
            Ok(_) => {
                stats.non_200 += in_window;
                stats.failed_total += 1;
            }
            Err(_) => {
                stats.transport += in_window;
                stats.failed_total += 1;
                client = RawClient::connect(addr).expect("reconnect generator");
            }
        }
    }
    stats
}

/// Closed-loop throughput over `[from, to)` (ns since the origin): each
/// answered request counts with the share of its duration inside the
/// interval, so a run with few, long requests is not rounded to whole
/// requests.
pub fn throughput(clients: &[ClientStats], from: u64, to: u64) -> f64 {
    let done: f64 = clients
        .iter()
        .flat_map(|c| &c.answered)
        .map(|&(start, end)| {
            let inside = end.min(to).saturating_sub(start.max(from));
            inside as f64 / (end - start).max(1) as f64
        })
        .sum();
    done / ((to - from) as f64 / 1e9)
}

/// Latencies in microseconds of the answered requests sent in
/// `[from, to)`.
pub fn latencies_us(clients: &[ClientStats], from: u64, to: u64) -> Vec<f64> {
    clients
        .iter()
        .flat_map(|c| &c.answered)
        .filter(|&&(start, _)| start >= from && start < to)
        .map(|&(start, end)| (end - start) as f64 / 1e3)
        .collect()
}
