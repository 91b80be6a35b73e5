//! The traced run's layer replay: for a sample of the workload's own
//! inputs, call each layer's public functions from outside, in request
//! order, inside spans. The live pool answers the same request first,
//! so the replay follows the path (hit or miss) the pool took.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lixto_core::to_xml;
use lixto_elog::{ExecProbe, ExtractionResult, Extractor, SinglePage};
use lixto_http::{parse_request, Json, Limits};
use lixto_server::{
    content_address, fxhash64, CacheKey, CachedExtraction, ExtractionRequest, ExtractionServer,
    InstanceProvenance, Provenance, RequestSource, TieredStore, WrapperRegistry,
};
use lixto_transform::{diff_snapshots, ExtractionSnapshot};
use lixto_workloads::http_traffic::{extract_body, extract_body_web};

use crate::trace::Trace;
use crate::util::{post_request, RawClient};

/// One sampled input.
pub struct Item {
    pub wrapper: String,
    pub url: String,
    /// The page: shipped inline, or what the pool will fetch from its
    /// web source when `web` is set.
    pub html: String,
    pub web: bool,
}

/// Per-item sums of replayed self times, in microseconds.
#[derive(Default)]
pub struct Replayed {
    /// Every layer on the path the pool took.
    pub on_path_us: Vec<f64>,
    /// The worker-side share of those layers (content address onward).
    pub worker_us: Vec<f64>,
    /// Pool hits among the sampled requests.
    pub hits: usize,
}

pub fn snapshot(result: &ExtractionResult) -> ExtractionSnapshot {
    ExtractionSnapshot::from_pairs(
        result
            .patterns()
            .iter()
            .flat_map(|p| result.texts_of(p).into_iter().map(move |t| (p.clone(), t))),
    )
}

struct Ids {
    on_path: Vec<usize>,
    worker: Vec<usize>,
}

/// Replay `items` in order until they run out or `deadline` passes.
pub fn replay(
    items: &[Item],
    deadline: Instant,
    server: &ExtractionServer,
    client: &mut RawClient,
    registry: &WrapperRegistry,
    store: &TieredStore,
    trace: &mut Trace,
) -> Replayed {
    let limits = Limits::default();
    let mut ids = Vec::with_capacity(items.len());
    let mut previous: HashMap<&str, ExtractionSnapshot> = HashMap::new();
    let mut hits = 0;
    for (i, item) in items.iter().enumerate() {
        if Instant::now() > deadline {
            break;
        }
        let req = i as u64;
        let body = if item.web {
            extract_body_web(&item.wrapper, &item.url)
        } else {
            extract_body(&item.wrapper, &item.url, &item.html)
        };
        let raw = post_request("/extract", &body);
        let source = if item.web {
            RequestSource::Web {
                url: item.url.clone(),
            }
        } else {
            RequestSource::Inline {
                url: item.url.clone(),
                html: item.html.clone(),
            }
        };
        let response = trace
            .time("pool.execute", None, req, || {
                server.execute(ExtractionRequest {
                    wrapper: item.wrapper.clone(),
                    version: None,
                    source,
                    trace: None,
                })
            })
            .expect("replayed execute");
        let hit = response.cache_hit;
        hits += usize::from(hit);
        let wrapper = registry.latest(&item.wrapper).expect("deployed wrapper");
        let spec = &wrapper.spec;

        let root_id = trace.begin("replay", None, req);
        let root = Some(root_id);
        let span = |trace: &mut Trace, name: &'static str| trace.begin(name, root, req);
        let parse_id = span(trace, "http.request_parse");
        let parsed = parse_request(&raw, &limits);
        trace.end(parse_id);
        assert!(matches!(parsed, Ok(Some(_))), "replayed request parses");
        let decode_id = span(trace, "http.json_decode");
        let decoded = Json::parse(&body);
        trace.end(decode_id);
        std::hint::black_box(decoded.expect("request body is JSON"));
        let address_id = span(trace, "cache.address");
        let content = std::hint::black_box(content_address(&item.url, &item.html));
        trace.end(address_id);
        let key = CacheKey {
            wrapper: item.wrapper.clone(),
            plan: wrapper.plan_id,
            content,
        };

        let html_id = span(trace, "html.parse");
        std::hint::black_box(lixto_html::parse(&item.html));
        trace.end(html_id);
        let page = SinglePage {
            url: item.url.clone(),
            html: item.html.clone(),
        };
        let probe = ExecProbe::new(None);
        let run_id = span(trace, "elog.run");
        let result = Extractor::from_optimized(spec.optimized.clone(), &page)
            .with_options(spec.options.clone())
            .with_probe(&probe)
            .run();
        trace.end(run_id);
        // The probe reports totals, not intervals: its fetch and parse
        // shares become child spans at the start of the run span.
        let run_start = trace.spans[run_id].start_ns;
        let fetch_end = run_start + probe.fetch_ns();
        trace.push("elog.fetch", run_start, fetch_end, Some(run_id), req);
        trace.push(
            "elog.parse",
            fetch_end,
            fetch_end + probe.parse_ns(),
            Some(run_id),
            req,
        );
        let serialize_id = span(trace, "xml.serialize");
        let xml = lixto_xml::to_string(&to_xml(&result, &spec.design));
        trace.end(serialize_id);

        let snap = snapshot(&result);
        if let Some(before) = previous.get(item.wrapper.as_str()) {
            let diff_id = span(trace, "diff");
            std::hint::black_box(diff_snapshots(before, &snap));
            trace.end(diff_id);
        }
        previous.insert(&item.wrapper, snap);

        let value = Arc::new(CachedExtraction {
            provenance: Provenance {
                wrapper: item.wrapper.clone(),
                version: wrapper.version,
                plan: wrapper.plan_id,
                source_url: item.url.clone(),
                source_hash: fxhash64(item.html.as_bytes()),
                instances: result
                    .base
                    .instances
                    .iter()
                    .enumerate()
                    .map(|(i, inst)| InstanceProvenance {
                        pattern: inst.pattern.to_string(),
                        parent: inst.parent,
                        rule: result.producing_rule(i),
                        text: result.base.text_of(i, &result.docs),
                    })
                    .collect(),
            },
            result,
            xml,
            crawl: Vec::new(),
            crawl_live: item.web,
        });
        // A hit finds the entry a previous miss inserted; a miss looks
        // it up first and inserts after extracting.
        let (peek_id, insert_id) = if hit {
            let insert_id = span(trace, "store.insert");
            store.insert(key.clone(), value);
            trace.end(insert_id);
            let peek_id = span(trace, "cache.peek");
            assert!(store.peek(&key).is_some(), "inserted entry is found");
            trace.end(peek_id);
            (peek_id, insert_id)
        } else {
            let peek_id = span(trace, "cache.peek");
            std::hint::black_box(store.peek(&key));
            trace.end(peek_id);
            let insert_id = span(trace, "store.insert");
            store.insert(key, value);
            trace.end(insert_id);
            (peek_id, insert_id)
        };

        let (status, range) = client.round_trip(&raw).expect("replay round trip");
        assert_eq!(status, 200, "replayed request over HTTP");
        let text = std::str::from_utf8(&client.buf()[range]).expect("utf-8 body");
        let response_json = Json::parse(text).expect("response is JSON");
        let encode_id = span(trace, "http.json_encode");
        std::hint::black_box(response_json.dump());
        trace.end(encode_id);
        trace.end(root_id);

        let mut worker = vec![address_id, peek_id];
        if !hit {
            worker.extend([html_id, run_id, serialize_id, insert_id]);
        }
        let mut on_path = vec![parse_id, decode_id, encode_id];
        on_path.extend(&worker);
        ids.push(Ids { on_path, worker });
    }
    let self_us = trace.self_us();
    let sum = |list: &[usize]| list.iter().map(|&id| self_us[id]).sum::<f64>();
    Replayed {
        on_path_us: ids.iter().map(|i| sum(&i.on_path)).collect(),
        worker_us: ids.iter().map(|i| sum(&i.worker)).collect(),
        hits,
    }
}

/// Time the instance-level differ over consecutive content revisions
/// of watched pages, as the watch layer runs it.
pub fn replay_watch_diffs(
    registry: &WrapperRegistry,
    seed: u64,
    watches: usize,
    revisions: u64,
    trace: &mut Trace,
) {
    let profiles = lixto_workloads::traffic::watch_profiles(watches);
    for (i, w) in profiles.iter().enumerate() {
        let spec = &registry.latest(&w.name).expect("watch wrapper").spec;
        let extract = |revision: u64| {
            let page = SinglePage {
                url: w.url.clone(),
                html: lixto_workloads::traffic::watch_page(i, seed, revision, 2 * revision),
            };
            snapshot(
                &Extractor::from_optimized(spec.optimized.clone(), &page)
                    .with_options(spec.options.clone())
                    .run(),
            )
        };
        let mut before = extract(0);
        for revision in 1..=revisions {
            let after = extract(revision);
            trace.time("diff", None, (i as u64) << 32 | revision, || {
                diff_snapshots(&before, &after)
            });
            before = after;
        }
    }
}
