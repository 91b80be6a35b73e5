//! Seeded inputs and their in-process reference outputs.
//!
//! Every document the benchmark sends is a pure function of the seed,
//! a stream tag and an index, so a run can regenerate any input after
//! the measured window to check its response.

use std::sync::Arc;

use lixto_core::{to_xml, XmlDesign};
use lixto_elog::{Extractor, SinglePage};
use lixto_server::{fxhash64, WrapperRegistry};
use lixto_workloads::traffic::{self, WrapperProfile};

use crate::util::mix;

/// Watch wrappers deployed in every seeded data directory; drift_watch
/// subscribes to all of them.
pub const FLEET: usize = 120;

/// hit_mix replays this many requests of `traffic::requests` per
/// connection, cycling; they cover its 15 distinct documents.
pub const HIT_PER_USER: usize = 150;

pub fn design(profile: &WrapperProfile) -> XmlDesign {
    profile
        .auxiliary
        .iter()
        .fold(XmlDesign::new().root(profile.root), |d, aux| {
            d.auxiliary(aux)
        })
}

pub fn watch_design() -> XmlDesign {
    XmlDesign::new().root("offers")
}

/// Deploy the five corpus wrappers and the watch fleet into `registry`.
pub fn deploy_all(registry: &WrapperRegistry) {
    for p in traffic::profiles() {
        registry
            .register_source(p.name, p.program, design(&p))
            .expect("corpus wrapper compiles");
    }
    for w in traffic::watch_profiles(FLEET) {
        registry
            .register_source(&w.name, &w.program, watch_design())
            .expect("watch wrapper compiles");
    }
}

/// An in-memory registry with every wrapper the benchmark serves: the
/// reference side of the output checks.
pub fn reference_registry() -> Arc<WrapperRegistry> {
    let registry = Arc::new(WrapperRegistry::new());
    deploy_all(&registry);
    registry
}

/// The XML an in-process `Extractor::from_optimized` run produces for
/// `html` served at `url`, exactly as a pool worker serializes it.
pub fn reference_xml(registry: &WrapperRegistry, wrapper: &str, url: &str, html: &str) -> String {
    let spec = &registry.latest(wrapper).expect("deployed wrapper").spec;
    let page = SinglePage {
        url: url.to_string(),
        html: html.to_string(),
    };
    let result = Extractor::from_optimized(spec.optimized.clone(), &page)
        .with_options(spec.options.clone())
        .run();
    lixto_xml::to_string(&to_xml(&result, &spec.design))
}

/// `xml` as the JSON string literal the gateway writes.
pub fn escaped(xml: &str) -> Vec<u8> {
    lixto_http::Json::from(xml).dump().into_bytes()
}

/// Hash of the escaped JSON literal of `xml` (what the generator hashes
/// out of each response).
pub fn escaped_hash(xml: &str) -> u64 {
    fxhash64(&escaped(xml))
}

/// Long-tail document `k` of the seeded store's history: wrapper index
/// into `traffic::profiles()` and page bytes, at a realistic 10–40
/// records.
pub fn longtail_doc(seed: u64, k: u64) -> (usize, String) {
    let h = mix(seed, k);
    let profiles = traffic::profiles();
    let w = (h % profiles.len() as u64) as usize;
    let rows = 10 + ((h >> 8) % 31) as usize;
    let html = traffic::page_sized(profiles[w].name, h >> 16, rows, k);
    (w, html)
}
