//! The changing web behind the watches: a mutator thread that advances
//! the in-process `SharedWeb` one epoch at a time, and the webhook
//! receiver every watch delivers to.
//!
//! Epochs alternate: an odd epoch publishes a new content revision of
//! every watched page (each watch must deliver exactly one diff), an
//! even epoch only moves bytes (banner noise; no watch may deliver).

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lixto_elog::SharedWeb;
use lixto_http::{parse_request, Limits};
use lixto_workloads::traffic::{self, watch_page};

use crate::inputs::FLEET;
use crate::util::current_tid;

/// Mean time between epochs; a content revision every second epoch.
/// Revisions stay at least `2 * EPOCH - JITTER` apart, longer than the
/// slowest delivery seen, so two revisions never merge into one diff.
pub const EPOCH: Duration = Duration::from_millis(500);

/// Epoch `n` starts `frac(n * golden ratio) * JITTER` after its slot.
/// The watch scheduler polls on a fixed tick; without the offset the
/// mutations would lock to one phase of that tick, and freshness would
/// measure that phase, not the scheduler.
const JITTER: Duration = Duration::from_millis(250);

fn epoch_due(origin: Instant, n: u64) -> Instant {
    let offset = (n as f64 * 0.618_033_988_749_895).fract();
    origin + EPOCH * n as u32 + JITTER.mul_f64(offset)
}

/// Re-extraction period each watch subscribes with.
pub const WATCH_INTERVAL_MS: u64 = 100;

/// The content revision live at epoch `n`.
pub fn revision(n: u64) -> u64 {
    n.div_ceil(2)
}

/// Publish epoch `n`: every watched page, and the corpus entry pages
/// the interactive connections fetch.
pub fn publish(web: &SharedWeb, seed: u64, n: u64) {
    for (i, w) in traffic::watch_profiles(FLEET).iter().enumerate() {
        web.put(&w.url, watch_page(i, seed, revision(n), n));
    }
    for p in traffic::profiles() {
        web.put(p.entry_url, traffic::perturbed_page(p.name, seed, 0, n));
    }
}

/// Epoch progress shared with the interactive generator: a response
/// fetched between reading `completed` before sending and `started`
/// after receiving saw one of the epochs in that range.
#[derive(Default)]
pub struct EpochClock {
    pub started: AtomicU64,
    pub completed: AtomicU64,
    /// When revision `r` (index `r - 1`) began to publish.
    pub revisions: Mutex<Vec<Instant>>,
}

pub struct Mutator {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<()>,
    pub clock: Arc<EpochClock>,
    pub tid: Arc<AtomicU32>,
}

impl Mutator {
    pub fn start(web: Arc<SharedWeb>, seed: u64) -> Mutator {
        let (stop, stopped) = mpsc::channel::<()>();
        let clock = Arc::new(EpochClock::default());
        let tid = Arc::new(AtomicU32::new(0));
        let (thread_clock, thread_tid) = (clock.clone(), tid.clone());
        let handle = std::thread::Builder::new()
            .name("bench-mutator".into())
            .spawn(move || {
                thread_tid.store(current_tid(), Ordering::SeqCst);
                let origin = Instant::now();
                for n in 1.. {
                    let due = epoch_due(origin, n);
                    match stopped.recv_timeout(due.saturating_duration_since(Instant::now())) {
                        Err(RecvTimeoutError::Timeout) => {}
                        _ => return,
                    }
                    thread_clock.started.store(n, Ordering::SeqCst);
                    if n % 2 == 1 {
                        thread_clock
                            .revisions
                            .lock()
                            .expect("revision log")
                            .push(Instant::now());
                    }
                    publish(&web, seed, n);
                    thread_clock.completed.store(n, Ordering::SeqCst);
                }
            })
            .expect("spawn mutator");
        Mutator {
            stop,
            handle,
            clock,
            tid,
        }
    }

    /// Stop publishing; returns the last epoch published.
    pub fn stop(self) -> u64 {
        let _ = self.stop.send(());
        self.handle.join().expect("mutator thread");
        self.clock.completed.load(Ordering::SeqCst)
    }
}

/// One webhook POST as it arrived.
pub struct Delivery {
    pub at: Instant,
    pub body: String,
}

/// A single-threaded HTTP sink for the watches' webhook. It answers
/// each POST with an empty 200 as soon as the request is in, so the
/// gateway's delivery path is never held up by the benchmark.
pub struct Receiver {
    pub url: String,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    pub deliveries: Arc<Mutex<Vec<Delivery>>>,
    pub tid: Arc<AtomicU32>,
}

impl Receiver {
    pub fn start() -> Receiver {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind webhook receiver");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let url = format!(
            "http://{}/hook",
            listener.local_addr().expect("receiver addr")
        );
        let stop = Arc::new(AtomicBool::new(false));
        let deliveries = Arc::new(Mutex::new(Vec::new()));
        let tid = Arc::new(AtomicU32::new(0));
        let (thread_stop, thread_deliveries, thread_tid) =
            (stop.clone(), deliveries.clone(), tid.clone());
        let handle = std::thread::Builder::new()
            .name("bench-receiver".into())
            .spawn(move || {
                thread_tid.store(current_tid(), Ordering::SeqCst);
                receive(listener, &thread_stop, &thread_deliveries)
            })
            .expect("spawn receiver");
        Receiver {
            url,
            stop,
            handle,
            deliveries,
            tid,
        }
    }

    pub fn count(&self) -> usize {
        self.deliveries.lock().expect("deliveries").len()
    }

    pub fn stop(self) -> Vec<Delivery> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("receiver thread");
        std::mem::take(&mut *self.deliveries.lock().expect("deliveries"))
    }
}

fn receive(listener: TcpListener, stop: &AtomicBool, deliveries: &Mutex<Vec<Delivery>>) {
    let mut conn: Option<TcpStream> = None;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let limits = Limits::default();
    while !stop.load(Ordering::SeqCst) {
        if let Ok((stream, _)) = listener.accept() {
            // The gateway keeps one keep-alive connection per webhook
            // URL and dials a new one only after the old one failed.
            stream.set_nonblocking(false).expect("blocking stream");
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .expect("read timeout");
            stream.set_nodelay(true).expect("nodelay");
            conn = Some(stream);
            buf.clear();
        }
        let Some(stream) = conn.as_mut() else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        match stream.read(&mut chunk) {
            Ok(0) => {
                conn = None;
                continue;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => {
                conn = None;
                continue;
            }
        }
        while let Ok(Some((request, consumed))) = parse_request(&buf, &limits) {
            let at = Instant::now();
            let ok = stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
                .is_ok();
            deliveries.lock().expect("deliveries").push(Delivery {
                at,
                body: request.body_utf8().unwrap_or("").to_string(),
            });
            buf.drain(..consumed);
            if !ok {
                break;
            }
        }
    }
}
