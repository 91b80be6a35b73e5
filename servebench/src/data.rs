//! The seeded data directory: a wrapper spool plus a result store, as a
//! deployment leaves them behind. It is built once per seed by a child
//! process (so building it does not count toward the measured process's
//! peak memory), and every stack start gets a fresh byte-identical copy,
//! so WAL records one start appends never lengthen the next recovery.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use lixto_elog::SharedWeb;
use lixto_server::{
    durability_layout, fxhash64, ExtractionRequest, ExtractionServer, RequestSource, ServerConfig,
    StoreConfig, WrapperRegistry,
};
use lixto_workloads::traffic;

use crate::inputs::{self, HIT_PER_USER};

/// Long-tail documents extracted into the seeded store before the
/// "restart", on top of hit_mix's documents. The figure is chosen, not
/// measured from any traffic: it makes recovery take a few hundred
/// milliseconds (about 36 MB of store, a snapshot plus a WAL), so that
/// `setup_s` sits far above timer and scheduling noise while staying
/// below the default 64 MiB byte budget, where the store would compact.
/// The count is fixed, so the store's size varies with the seed only
/// through page sizes (well under 1%).
pub const HISTORY_DOCS: u64 = 6000;

/// The benchmark's scratch root, inside the checkout it runs from.
pub fn work_root() -> PathBuf {
    PathBuf::from(".servebench")
}

/// A fingerprint of the running executable. A template records the
/// fingerprint of the build that wrote it, and a different build
/// rebuilds it, so a run never recovers a spool or store written by
/// other code.
fn build_fingerprint() -> String {
    let exe = std::env::current_exe().expect("own executable");
    let bytes = fs::read(&exe).expect("read own executable");
    format!("{:016x} {}\n", fxhash64(&bytes), bytes.len())
}

/// The template directory for `seed`, building it (in a child process)
/// unless this checkout holds one from this build. Other templates are
/// removed, so the scratch root holds one.
pub fn template(seed: u64) -> PathBuf {
    let root = work_root();
    let dir = root.join(format!("seed-{seed}"));
    let fingerprint = build_fingerprint();
    if fs::read_to_string(dir.join("READY")).is_ok_and(|f| f == fingerprint) {
        return dir;
    }
    if let Ok(entries) = fs::read_dir(&root) {
        for entry in entries.flatten() {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
    let staging = root.join(format!("staging-{seed}"));
    fs::create_dir_all(&staging).expect("create staging directory");
    let exe = std::env::current_exe().expect("own executable");
    let status = Command::new(exe)
        .arg("--build-data")
        .arg(&staging)
        .arg("--seed")
        .arg(seed.to_string())
        .status()
        .expect("spawn data builder");
    assert!(status.success(), "data builder failed: {status}");
    fs::write(staging.join("READY"), fingerprint).expect("mark template ready");
    fs::rename(&staging, &dir).expect("publish template");
    dir
}

/// Fill `dir` with the seeded deployment: all wrappers deployed through
/// a spooled registry, then hit_mix's documents and [`HISTORY_DOCS`]
/// long-tail documents extracted through a durable pool. The files are
/// synced before it returns, so their write-back never overlaps a
/// timed set-up.
pub fn build(dir: &Path, seed: u64) {
    let layout = durability_layout(dir);
    let registry =
        Arc::new(WrapperRegistry::with_spool(&layout.wrappers).expect("open wrapper spool"));
    inputs::deploy_all(&registry);
    let server = ExtractionServer::start(
        ServerConfig {
            store: Some(StoreConfig::new(&layout.store)),
            ..ServerConfig::default()
        },
        registry,
        Arc::new(SharedWeb::new()),
    );
    let run = |wrapper: &str, url: &str, html: String| {
        server
            .execute(ExtractionRequest {
                wrapper: wrapper.to_string(),
                version: None,
                source: RequestSource::Inline {
                    url: url.to_string(),
                    html,
                },
                trace: None,
            })
            .expect("seed extraction");
    };
    for r in traffic::requests(seed, 2, HIT_PER_USER) {
        run(r.wrapper, &r.url, r.html);
    }
    let profiles = traffic::profiles();
    std::thread::scope(|scope| {
        for part in 0..2u64 {
            let (run, profiles) = (&run, &profiles);
            scope.spawn(move || {
                for k in (part..HISTORY_DOCS).step_by(2) {
                    let (w, html) = inputs::longtail_doc(seed, k);
                    run(profiles[w].name, profiles[w].entry_url, html);
                }
            });
        }
    });
    server.shutdown();
    sync_dir(dir).expect("sync seeded data directory");
}

/// Copy the template into a fresh directory `to` (replacing it), synced
/// so that no write-back of the copy runs while a start on it is timed.
pub fn fresh_copy(template: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    copy_dir(template, to)?;
    sync_dir(to)
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            sync_dir(&entry.path())?;
        } else {
            fs::File::open(entry.path())?.sync_all()?;
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else if entry.file_name() != "READY" {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
