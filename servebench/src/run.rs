//! One benchmark run: set-up on the seeded data directory, the closed
//! loop, the output checks and workload-shape guards, and the metrics.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lixto_elog::{SharedWeb, WebSource};
use lixto_http::Json;
use lixto_server::{durability_layout, fxhash64, StoreConfig, TieredStore, WrapperRegistry};
use lixto_workloads::http_traffic::{extract_body, extract_body_web};
use lixto_workloads::traffic::{self, watch_profiles};

use crate::data;
use crate::fleet::{self, Delivery, EpochClock, Mutator, Receiver, EPOCH, WATCH_INTERVAL_MS};
use crate::inputs::{self, FLEET, HIT_PER_USER};
use crate::load::{self, closed_loop, ClientStats, MEASURE, STOP, TRACED, WARM};
use crate::replay::{self, Item};
use crate::stack::Stack;
use crate::trace::Trace;
use crate::util::{self, json_string_field, median, post_request, quantile, RawClient};

/// Timed stack starts per run, each in a process of its own; `setup_s`
/// is their median. Half run before the workload and half after it, so
/// the figure samples more of the host's slow swings than one burst.
const SETUPS: usize = 24;
/// Closed-loop traffic before the measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// Inputs the traced run replays layer by layer, at most, and the time
/// it may spend on them.
const REPLAY_ITEMS: usize = 240;
const REPLAY_BUDGET: Duration = Duration::from_secs(8);
/// The window is measured in this many equal slices (even, so a traced
/// run can trace the second half).
const SLICES: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitMix,
    DriftWatch,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::HitMix => "hit_mix",
            Workload::DriftWatch => "drift_watch",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        [Workload::HitMix, Workload::DriftWatch]
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One printed metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

pub struct Report {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Figures printed above the result line but not part of it.
    notes: Vec<Metric>,
    problems: Vec<String>,
}

impl Report {
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.notes) {
            println!(
                "{:<28} {:>16.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    if m.value.is_finite() { m.value } else { 0.0 },
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// What the generator threads of a workload recorded beyond
/// [`ClientStats`], for the checks after the window.
enum Records {
    /// hit_mix checks each body as it arrives.
    Inline,
    /// drift_watch: (wrapper, first and last epoch the fetch may have
    /// seen, hash of the returned XML).
    Drift(Vec<(usize, u64, u64, u64)>),
}

struct Window {
    before: Json,
    after: Json,
    /// Slice boundaries: when, and every thread's CPU time then.
    marks: Vec<(Instant, HashMap<u32, u64>)>,
    start: Instant,
    end: Instant,
}

fn num(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Sum of a per-watch counter over the `/metrics` watch list.
fn watch_sum(json: &Json, field: &str) -> f64 {
    json.get("watches")
        .and_then(|w| w.get("watches"))
        .and_then(Json::as_array)
        .map_or(0.0, |list| {
            list.iter()
                .filter_map(|w| w.get(field).and_then(Json::as_f64))
                .sum()
        })
}

fn put_watch(client: &mut RawClient, i: usize, wrapper: &str, url: &str, webhook: &str) -> u16 {
    let body = format!(
        r#"{{"wrapper":"{wrapper}","url":"{url}","interval_ms":{WATCH_INTERVAL_MS},"webhook":"{webhook}"}}"#
    );
    let request = format!(
        "PUT /watches/w{i} HTTP/1.1\r\nhost: lixto\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    client
        .round_trip_redial(request.as_bytes())
        .expect("PUT watch")
        .0
}

/// The request every start is timed to: hit_mix's first document,
/// which the seeded store holds, so recovery must have run to answer it.
fn first_request(seed: u64) -> Vec<u8> {
    let r = &traffic::requests(seed, 2, HIT_PER_USER)[0];
    post_request("/extract", &extract_body(r.wrapper, &r.url, &r.html))
}

/// One timed restart on data directory `dir`: seconds from stack start
/// to the first 200. Each runs in a fresh process, as a restarted
/// deployment does, so no start inherits the heap an earlier one left.
pub fn probe_setup(dir: &Path, seed: u64) -> f64 {
    let (stack, secs) = Stack::start(dir, Arc::new(SharedWeb::new()), &first_request(seed));
    stack.stop();
    secs
}

/// Time `n` restarts, each on a fresh copy of `template` in a child
/// process.
fn probe_setups(template: &Path, run_dir: &Path, seed: u64, n: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable");
    (0..n)
        .map(|i| {
            let dir = run_dir.join(format!("probe-{i}"));
            data::fresh_copy(template, &dir).expect("copy seeded data directory");
            let out = Command::new(&exe)
                .arg("--probe-setup")
                .arg(&dir)
                .arg("--seed")
                .arg(seed.to_string())
                .output()
                .expect("spawn set-up probe");
            assert!(out.status.success(), "set-up probe failed: {}", out.status);
            let _ = fs::remove_dir_all(&dir);
            let secs = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
            secs.expect("set-up probe prints its seconds")
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let origin = Instant::now();
    let seed = args.seed;
    let workload = args.workload;
    let drift = workload == Workload::DriftWatch;
    let watches = if drift { FLEET } else { 0 };
    let template = data::template(seed);
    let run_dir = data::work_root().join(format!("run-{}", std::process::id()));
    let reference = inputs::reference_registry();
    let profiles = traffic::profiles();
    let web = Arc::new(SharedWeb::new());
    if drift {
        fleet::publish(&web, seed, 0);
    }
    let mut problems: Vec<String> = Vec::new();

    // Set-up: the first half of the timed restarts.
    let mut setup_s = probe_setups(&template, &run_dir, seed, SETUPS / 2);
    // The stack that serves the workload, started the same way.
    let serve_dir = run_dir.join("data");
    data::fresh_copy(&template, &serve_dir).expect("copy seeded data directory");
    let (stack, _) = Stack::start(&serve_dir, web.clone(), &first_request(seed));
    let addr = stack.addr();
    let hit_requests = traffic::requests(seed, 2, HIT_PER_USER);

    // Watches: subscribe, then wait until every one has its baseline.
    let receiver = drift.then(Receiver::start);
    let mut admin = RawClient::connect(addr).expect("admin connection");
    // Requests this connection sends, for the `/metrics` agreement check.
    let mut admin_requests = 0u64;
    for (i, w) in watch_profiles(watches).iter().enumerate() {
        let url = &receiver.as_ref().expect("webhook receiver").url;
        let status = put_watch(&mut admin, i, &w.name, &w.url, url);
        admin_requests += 1;
        assert_eq!(status, 201, "watch w{i} registers");
    }
    if drift {
        let deadline = Instant::now() + Duration::from_secs(30);
        let baselined = |list: &Json| {
            list.get("watches")
                .and_then(Json::as_array)
                .is_some_and(|l| {
                    l.len() == watches
                        && l.iter()
                            .all(|w| w.get("ticks").and_then(Json::as_u64).unwrap_or(0) >= 1)
                })
        };
        while !baselined(&admin.get_json("/watches")) {
            admin_requests += 1;
            assert!(Instant::now() < deadline, "watches never baselined");
            std::thread::sleep(Duration::from_millis(20));
        }
        admin_requests += 1;
    }
    let mutator = drift.then(|| Mutator::start(web.clone(), seed));

    // The closed loop.
    let phase = AtomicU8::new(WARM);
    let hit_bodies: Vec<Vec<(Vec<u8>, Vec<u8>)>> = if workload == Workload::HitMix {
        let mut expected: HashMap<(&str, &str), Vec<u8>> = HashMap::new();
        (0..2)
            .map(|user| {
                hit_requests
                    .iter()
                    .filter(|r| r.user == user)
                    .map(|r| {
                        let xml = expected.entry((r.wrapper, &r.html)).or_insert_with(|| {
                            inputs::escaped(&inputs::reference_xml(
                                &reference, r.wrapper, &r.url, &r.html,
                            ))
                        });
                        (
                            post_request("/extract", &extract_body(r.wrapper, &r.url, &r.html)),
                            xml.clone(),
                        )
                    })
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let web_requests: Vec<Vec<u8>> = profiles
        .iter()
        .map(|p| post_request("/extract", &extract_body_web(p.name, p.entry_url)))
        .collect();
    let clock: Option<&EpochClock> = mutator.as_ref().map(|m| &*m.clock);
    let (clients, records, window) = std::thread::scope(|scope| {
        let spawn_hit = |user: usize| {
            let (bodies, phase) = (&hit_bodies[user], &phase);
            scope.spawn(move || {
                let n = bodies.len() as u64;
                let stats = closed_loop(
                    addr,
                    phase,
                    origin,
                    &mut |i| Cow::Borrowed(&bodies[(i % n) as usize].0[..]),
                    &mut |i, body| {
                        json_string_field(body, "xml") == Some(&bodies[(i % n) as usize].1[..])
                    },
                );
                (stats, Records::Inline)
            })
        };
        let spawn_drift = |part: u64| {
            let (phase, web_requests) = (&phase, &web_requests);
            let clock = clock.expect("drift_watch runs the mutator");
            scope.spawn(move || {
                let from = Cell::new(0u64);
                let mut records = Vec::new();
                let n = web_requests.len() as u64;
                let stats = closed_loop(
                    addr,
                    phase,
                    origin,
                    &mut |i| {
                        from.set(clock.completed.load(Ordering::SeqCst));
                        Cow::Borrowed(&web_requests[((i + part) % n) as usize][..])
                    },
                    &mut |i, body| {
                        let to = clock.started.load(Ordering::SeqCst);
                        let hash = json_string_field(body, "xml").map_or(0, fxhash64);
                        records.push((((i + part) % n) as usize, from.get(), to, hash));
                        true
                    },
                );
                (stats, Records::Drift(records))
            })
        };
        let handles = match workload {
            Workload::HitMix => vec![spawn_hit(0), spawn_hit(1)],
            Workload::DriftWatch => vec![spawn_drift(0), spawn_drift(1)],
        };
        std::thread::sleep(WARMUP);
        let before = admin.get_json("/metrics");
        admin_requests += 1;
        let mut marks = vec![(Instant::now(), util::thread_cpu_ns())];
        let start = marks[0].0;
        phase.store(MEASURE, Ordering::SeqCst);
        let slice = Duration::from_secs_f64(args.seconds) / SLICES as u32;
        for k in 1..=SLICES {
            std::thread::sleep(
                (start + slice * k as u32).saturating_duration_since(Instant::now()),
            );
            if args.trace && k == SLICES / 2 {
                phase.store(TRACED, Ordering::SeqCst);
            }
            marks.push((Instant::now(), util::thread_cpu_ns()));
        }
        let end = marks[SLICES].0;
        phase.store(STOP, Ordering::SeqCst);
        let after = admin.get_json("/metrics");
        admin_requests += 1;
        let (clients, records): (Vec<ClientStats>, Vec<Records>) = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .unzip();
        (
            clients,
            records,
            Window {
                before,
                after,
                marks,
                start,
                end,
            },
        )
    });

    // Let the last revision's diffs land, then check that every watch
    // delivered exactly one diff per content revision.
    let (mut revision_times, mut revisions, mut bench_tids) = (Vec::new(), 0, Vec::new());
    if let Some(mutator) = mutator {
        bench_tids.push(mutator.tid.load(Ordering::SeqCst));
        let clock = mutator.clock.clone();
        revisions = fleet::revision(mutator.stop());
        revision_times = clock.revisions.lock().expect("revisions").clone();
    }
    let mut deliveries = Vec::new();
    if let Some(receiver) = receiver {
        let settle = Instant::now() + Duration::from_secs(20);
        while receiver.count() < watches * revisions as usize && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(20));
        }
        std::thread::sleep(EPOCH + Duration::from_millis(2 * WATCH_INTERVAL_MS));
        bench_tids.push(receiver.tid.load(Ordering::SeqCst));
        deliveries = receiver.stop();
    }
    let rss_peak_mb = util::rss_peak_mb();
    let last = admin.get_json("/metrics");
    admin_requests += 1;

    // /metrics agrees with what was sent: every generator and admin
    // request plus the set-up probe, and every webhook POST received.
    let sent: u64 = clients.iter().map(|c| c.sent).sum();
    let failed_total: u64 = clients.iter().map(|c| c.failed_total).sum();
    // The gateway counts a request once its response is out: the set-up
    // probe counts and the GET reading the counters does not, so the
    // two cancel.
    let gateway_requests = num(&last, &["gateway", "requests"]) as u64;
    let expected_requests = admin_requests + sent;
    if gateway_requests != expected_requests {
        problems.push(format!(
            "/metrics counts {gateway_requests} requests; the benchmark sent {expected_requests}"
        ));
    }
    let gateway_errors =
        num(&last, &["gateway", "responses_4xx"]) + num(&last, &["gateway", "responses_5xx"]);
    if gateway_errors as u64 > failed_total {
        problems.push(format!(
            "/metrics counts {gateway_errors} error responses; the generator saw {failed_total}"
        ));
    }
    let webhook_deliveries = num(&last, &["watches", "webhook_deliveries"]) as usize;
    if webhook_deliveries != deliveries.len() {
        problems.push(format!(
            "/metrics counts {webhook_deliveries} webhook deliveries; the receiver got {}",
            deliveries.len()
        ));
    }

    let mut freshness_ms = check_deliveries(
        &deliveries,
        &Deliveries {
            reference: &reference,
            seed,
            watches,
            revision_times: &revision_times,
            window: window.start..=window.end,
        },
        &mut problems,
    );

    // Outputs equal an in-process extraction of the same document.
    let mut wrong: u64 = clients.iter().map(|c| c.wrong).sum();
    for r in &records {
        wrong += match r {
            Records::Inline => 0,
            Records::Drift(list) => verify_drift(&reference, seed, list),
        };
    }
    if wrong > 0 {
        problems.push(format!(
            "{wrong} responses differ from the in-process extraction"
        ));
    }

    // Workload-shape guards.
    let delta = |path: &[&str]| num(&window.after, path) - num(&window.before, path);
    let hits = delta(&["cache", "hits"]);
    let misses = delta(&["cache", "misses"]);
    let lookups = (hits + misses).max(1.0);
    let window_ok: u64 = clients
        .iter()
        .map(|c| c.window - c.non_200 - c.transport)
        .sum();
    match workload {
        Workload::HitMix => {
            let hot = (hits - delta(&["store", "disk_hits"])) / lookups;
            if hot < 0.99 {
                problems.push(format!("hit_mix hot-tier hit ratio {hot:.4} < 0.99"));
            }
        }
        Workload::DriftWatch => {
            let untouched = watch_ticks(&window.before, &window.after)
                .iter()
                .filter(|&&t| t == 0.0)
                .count();
            if untouched > 0 {
                problems.push(format!("{untouched} watches never ticked in the window"));
            }
            if delta(&["cache", "invalidations"]) <= 0.0 {
                problems.push("drift_watch saw no invalidations".into());
            }
        }
    }

    // End-to-end figures.
    // Each figure is the median over the window's slices, so a burst
    // of interference from outside the run moves one slice, not the
    // figure.
    let since_origin = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let (from, to) = (since_origin(window.start), since_origin(window.end));
    let own: Vec<u32> = clients
        .iter()
        .map(|c| c.tid)
        .chain([util::current_tid()])
        .chain(bench_tids)
        .collect();
    let gen_tids: Vec<u32> = clients.iter().map(|c| c.tid).collect();
    let (mut rps, mut p50, mut p99, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pair in window.marks.windows(2) {
        let ((t0, cpu0), (t1, cpu1)) = (&pair[0], &pair[1]);
        let (a, b) = (since_origin(*t0), since_origin(*t1));
        let slice_rps = load::throughput(&clients, a, b);
        let mut slice_us = load::latencies_us(&clients, a, b);
        let (_, sut_ns) = util::cpu_split(cpu0, cpu1, &own);
        rps.push(slice_rps);
        p50.push(quantile(&mut slice_us, 0.50));
        p99.push(quantile(&mut slice_us, 0.99));
        cpu.push(sut_ns as f64 / 1e3 / (slice_rps * (b - a) as f64 / 1e9).max(1e-9));
    }
    let (first_cpu, last_cpu) = (&window.marks[0].1, &window.marks[SLICES].1);
    let (gen_ns, _) = util::cpu_split(first_cpu, last_cpu, &gen_tids);
    let mut latencies_us = load::latencies_us(&clients, from, to);
    let attempted: u64 = clients.iter().map(|c| c.window).sum();
    let failed: u64 = clients.iter().map(|c| c.non_200 + c.transport).sum();
    let ok = window_ok.max(1) as f64;
    let samples = latencies_us.len();
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let end_to_end = vec![
        metric(
            "throughput_rps",
            median(&mut rps),
            "1/s",
            window_ok as usize,
        ),
        metric("latency_p50_us", median(&mut p50), "us", samples),
        metric(
            "server_cpu_us_per_req",
            median(&mut cpu),
            "us",
            window_ok as usize,
        ),
        metric("rss_peak_mb", rss_peak_mb, "MB", 1),
    ];
    let fresh_n = freshness_ms.len();
    let mut ledger = vec![
        // The tail moves with the host more than with the program: over
        // ten seeds its IQR/median reached 0.5 on drift_watch.
        metric("latency_p99_us", median(&mut p99), "us", samples),
        metric(
            "error_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted as usize,
        ),
        metric(
            "freshness_p50_ms",
            quantile(&mut freshness_ms, 0.50),
            "ms",
            fresh_n,
        ),
        metric(
            "freshness_p99_ms",
            quantile(&mut freshness_ms, 0.99),
            "ms",
            fresh_n,
        ),
    ];

    // The second half of the timed restarts, once the serving stack is
    // down.
    let mut finish = |stack: Stack| {
        stack.stop();
        setup_s.extend(probe_setups(&template, &run_dir, seed, SETUPS / 2));
        let _ = fs::remove_dir_all(&run_dir);
        metric("setup_s", median(&mut setup_s), "s", setup_s.len())
    };

    let correct = problems.is_empty() && failed == 0;
    let mut report = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
        notes: Vec::new(),
        problems,
    };
    if !args.trace {
        report.metrics = end_to_end;
        report.metrics.push(finish(stack));
        report.notes = ledger;
        return report;
    }

    // The traced run: window deltas, then the layer replay.
    let completed = delta(&["completed"]).max(1.0);
    let watch_delta = |field| watch_sum(&window.after, field) - watch_sum(&window.before, field);
    let (ticks, events) = (watch_delta("ticks"), watch_delta("seq"));
    let mid = since_origin(window.marks[SLICES / 2].0);
    let overhead = load::throughput(&clients, mid, to) / load::throughput(&clients, from, mid);
    let mut tr = Trace::new(origin);
    for (c, client) in clients.iter().enumerate() {
        for &(start, end, i) in &client.spans {
            tr.push("client.request", start, end, None, (c as u64) << 40 | i);
        }
    }

    let capacity = stack.server.config().cache_capacity;
    let open_copy = |from: &Path, name: &str| {
        let dir = run_dir.join(name);
        data::fresh_copy(from, &dir).expect("copy data directory");
        let config = StoreConfig::new(durability_layout(&dir).store);
        let started = Instant::now();
        let store = TieredStore::open(capacity, &config).expect("open store copy");
        (store, started.elapsed().as_secs_f64())
    };
    // Recovery as at set-up: the seeded directory.
    let mut recover_s: Vec<f64> = (0..3)
        .map(|i| open_copy(&template, &format!("recover-{i}")).1)
        .collect();
    // The replay's store starts where the pool's is now, so a replayed
    // insert meets the same byte budget the pool's inserts meet.
    let (bench_store, _) = open_copy(&serve_dir, "replay");
    let items = replay_items(workload, seed, &web);
    let replayed = replay::replay(
        &items,
        Instant::now() + REPLAY_BUDGET,
        &stack.server,
        &mut admin,
        &reference,
        &bench_store,
        &mut tr,
    );
    if drift {
        replay::replay_watch_diffs(&reference, seed, watches, 2, &mut tr);
    }
    let mut compact_ms: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            bench_store.compact();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut deploy_us = Vec::new();
    let fresh = WrapperRegistry::new();
    for p in &profiles {
        let started = Instant::now();
        fresh
            .register_source(p.name, p.program, inputs::design(p))
            .expect("wrapper compiles");
        deploy_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    for w in watch_profiles(20) {
        let started = Instant::now();
        fresh
            .register_source(&w.name, &w.program, inputs::watch_design())
            .expect("watch wrapper compiles");
        deploy_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let mut by_name = tr.self_us_by_name();
    let mut layer = |name: &'static str| -> (f64, usize) {
        let v = by_name.entry(name).or_default();
        (median(v), v.len())
    };
    let (exec_p50, exec_n) = layer("pool.execute");
    let client_p50 = quantile(&mut latencies_us, 0.5);
    let worker_p50 = median(&mut replayed.worker_us.clone());
    let on_path_p50 = median(&mut replayed.on_path_us.clone());
    let n_items = replayed.on_path_us.len();
    let mut per_layer = Vec::new();
    let mut add = |name: &'static str, value: f64, unit: &'static str, samples: usize| {
        per_layer.push(Metric {
            name,
            value,
            unit,
            samples,
        })
    };
    // Replayed layers: median self time of their spans.
    for (span, name) in [
        ("http.request_parse", "http.request_parse_us"),
        ("http.json_decode", "http.json_decode_us"),
        ("http.json_encode", "http.json_encode_us"),
        ("cache.address", "cache.address_us"),
        ("cache.peek", "cache.peek_us"),
        ("store.insert", "store.insert_us"),
        ("html.parse", "html.parse_us"),
        ("elog.run", "elog.exec_us"),
        ("xml.serialize", "xml.serialize_us"),
        ("diff", "diff.us"),
    ] {
        let (v, n) = layer(span);
        add(name, v, "us", n);
    }
    add(
        "http.residual_p50_us",
        client_p50 - exec_p50,
        "us",
        samples.min(exec_n),
    );
    add("http.non_200", failed as f64, "count", attempted as usize);
    add("pool.execute_p50_us", exec_p50, "us", exec_n);
    add("pool.handoff_us", exec_p50 - worker_p50, "us", n_items);
    add(
        "pool.rejected",
        delta(&["rejected"]),
        "count",
        completed as usize,
    );
    add("cache.hit_ratio", hits / lookups, "ratio", lookups as usize);
    add(
        "cache.invalidations_per_kreq",
        delta(&["cache", "invalidations"]) * 1e3 / completed,
        "1/kreq",
        completed as usize,
    );
    add("store.recover_s", median(&mut recover_s), "s", 3);
    add("store.compact_ms", median(&mut compact_ms), "ms", 3);
    for (field, name) in [
        ("persisted", "store.persisted"),
        ("compactions", "store.compactions"),
        ("write_errors", "store.write_errors"),
    ] {
        add(name, delta(&["store", field]), "count", 1);
    }
    add(
        "registry.deploy_us",
        median(&mut deploy_us),
        "us",
        deploy_us.len(),
    );
    add("watch.ticks", ticks, "count", watches);
    add("watch.events", events, "count", watches);
    add(
        "watch.suppressed",
        watch_delta("suppressed"),
        "count",
        watches,
    );
    add("watch.errors", watch_delta("errors"), "count", watches);
    add(
        "watch.webhook_failures",
        delta(&["watches", "webhook_failures"]),
        "count",
        watches,
    );
    add(
        "watch.useful_ratio",
        events / ticks.max(1.0),
        "ratio",
        ticks as usize,
    );
    add(
        "gen.cpu_us_per_req",
        gen_ns as f64 / 1e3 / ok,
        "us",
        window_ok as usize,
    );
    add(
        "trace.closure_ratio",
        on_path_p50 / client_p50,
        "ratio",
        n_items,
    );
    add(
        "trace.overhead_ratio",
        overhead,
        "ratio",
        window_ok as usize,
    );
    per_layer.append(&mut ledger);
    report.metrics = per_layer;
    report.notes = end_to_end;
    report.notes.push(Metric {
        name: "replay.pool_hits",
        value: replayed.hits as f64,
        unit: "count",
        samples: n_items,
    });
    let trace_path = data::work_root().join(format!("trace-{}-{seed}.tsv", workload.name()));
    tr.write(&trace_path).expect("write trace");
    println!("spans written to {}", trace_path.display());
    drop(bench_store);
    report.notes.push(finish(stack));
    report
}

/// What a watch delivery is checked against.
struct Deliveries<'a> {
    reference: &'a WrapperRegistry,
    seed: u64,
    watches: usize,
    /// When revision `r` (index `r - 1`) was published.
    revision_times: &'a [Instant],
    window: std::ops::RangeInclusive<Instant>,
}

/// Check the webhook deliveries: exactly one diff per content revision
/// and watch, none on perturb-only epochs, each carrying the new
/// revision's records. Returns the freshness (mutation to arrival, ms)
/// of the revisions published inside the window.
fn check_deliveries(
    deliveries: &[Delivery],
    expect: &Deliveries,
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let revisions = expect.revision_times.len() as u64;
    let mut freshness_ms = Vec::new();
    let mut per_watch: Vec<Vec<u64>> = vec![Vec::new(); expect.watches];
    let watch_list = watch_profiles(expect.watches);
    for d in deliveries {
        let Ok(event) = Json::parse(&d.body) else {
            problems.push("webhook body is not JSON".into());
            continue;
        };
        let id = event.get("watch").and_then(Json::as_str).unwrap_or("");
        let seq = event.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let Some(i) = id.strip_prefix('w').and_then(|s| s.parse::<usize>().ok()) else {
            problems.push(format!("delivery for unknown watch {id:?}"));
            continue;
        };
        if i >= expect.watches || seq == 0 || seq > revisions {
            problems.push(format!(
                "watch {id} delivered seq {seq} of {revisions} revisions"
            ));
            continue;
        }
        per_watch[i].push(seq);
        let w = &watch_list[i];
        let page = traffic::watch_page(i, expect.seed, seq, 2 * seq - 1);
        let expected = inputs::reference_xml(expect.reference, &w.name, &w.url, &page);
        let names = expected
            .split("<name>")
            .skip(1)
            .filter_map(|s| s.split("</name>").next());
        for name in names {
            if !d.body.contains(&format!("\"{name}\"")) {
                problems.push(format!("watch {id} seq {seq} lacks record {name:?}"));
            }
        }
        let mutated = expect.revision_times[seq as usize - 1];
        if expect.window.contains(&mutated) {
            freshness_ms.push(d.at.duration_since(mutated).as_secs_f64() * 1e3);
        }
    }
    for (i, seqs) in per_watch.iter_mut().enumerate() {
        seqs.sort_unstable();
        if *seqs != (1..=revisions).collect::<Vec<_>>() {
            problems.push(format!(
                "watch w{i} delivered seqs {:?}, expected 1..={revisions}",
                &seqs[..seqs.len().min(8)]
            ));
        }
    }
    freshness_ms
}

fn watch_ticks(before: &Json, after: &Json) -> Vec<f64> {
    let ticks = |json: &Json| -> HashMap<String, f64> {
        json.get("watches")
            .and_then(|w| w.get("watches"))
            .and_then(Json::as_array)
            .map(|list| {
                list.iter()
                    .filter_map(|w| {
                        Some((
                            w.get("id")?.as_str()?.to_string(),
                            w.get("ticks")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let before = ticks(before);
    ticks(after)
        .into_iter()
        .map(|(id, t)| t - before.get(&id).copied().unwrap_or(0.0))
        .collect()
}

/// The traced run's sample of the workload's own inputs.
fn replay_items(workload: Workload, seed: u64, web: &SharedWeb) -> Vec<Item> {
    let profiles = traffic::profiles();
    match workload {
        Workload::HitMix => traffic::requests(seed, 2, HIT_PER_USER)
            .into_iter()
            .cycle()
            .take(REPLAY_ITEMS)
            .map(|r| Item {
                wrapper: r.wrapper.to_string(),
                url: r.url,
                html: r.html,
                web: false,
            })
            .collect(),
        Workload::DriftWatch => (0..REPLAY_ITEMS)
            .map(|i| {
                let p = &profiles[i % profiles.len()];
                Item {
                    wrapper: p.name.to_string(),
                    url: p.entry_url.to_string(),
                    html: web.fetch(p.entry_url).expect("published page"),
                    web: true,
                }
            })
            .collect(),
    }
}

/// Interactive drift responses whose XML matches no epoch the fetch
/// could have seen.
fn verify_drift(reference: &WrapperRegistry, seed: u64, records: &[(usize, u64, u64, u64)]) -> u64 {
    let profiles = traffic::profiles();
    let mut expected: HashMap<(usize, u64), u64> = HashMap::new();
    let mut wrong = 0;
    for &(w, from, to, hash) in records {
        let matched = (from..=to.max(from)).any(|epoch| {
            *expected.entry((w, epoch)).or_insert_with(|| {
                let p = &profiles[w];
                let html = traffic::perturbed_page(p.name, seed, 0, epoch);
                inputs::escaped_hash(&inputs::reference_xml(
                    reference,
                    p.name,
                    p.entry_url,
                    &html,
                ))
            }) == hash
        });
        wrong += u64::from(!matched);
    }
    wrong
}
