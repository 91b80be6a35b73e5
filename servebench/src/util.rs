//! Measurement plumbing: quantiles, per-thread CPU from procfs, peak
//! memory, and a minimal keep-alive HTTP/1.1 client whose per-request
//! cost does not depend on the code under test.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The kernel id of the calling thread.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// On-CPU nanoseconds of every live thread of this process, by tid
/// (`/proc/self/task/*/schedstat`, first field).
pub fn thread_cpu_ns() -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            if let Some(ns) = stat.split_whitespace().next().and_then(|s| s.parse().ok()) {
                out.insert(tid, ns);
            }
        }
    }
    out
}

/// CPU nanoseconds between two [`thread_cpu_ns`] snapshots, split into
/// (threads in `own`, every other thread).
pub fn cpu_split(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>, own: &[u32]) -> (u64, u64) {
    let (mut mine, mut others) = (0, 0);
    for (tid, ns) in after {
        let delta = ns.saturating_sub(before.get(tid).copied().unwrap_or(0));
        if own.contains(tid) {
            mine += delta;
        } else {
            others += delta;
        }
    }
    (mine, others)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The full HTTP/1.1 request bytes for a `POST` of a JSON body.
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: lixto\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// The full HTTP/1.1 request bytes for a `GET`.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: lixto\r\naccept: application/json\r\ncontent-length: 0\r\n\r\n")
        .into_bytes()
}

/// A keep-alive client that sends pre-rendered request bytes and reads
/// one `content-length` framed response at a time.
pub struct RawClient {
    stream: TcpStream,
    peer: SocketAddr,
    buf: Vec<u8>,
}

impl RawClient {
    pub fn connect(addr: SocketAddr) -> io::Result<RawClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(RawClient {
            stream,
            peer: addr,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send `request` and read its response: the status and the body's
    /// range in [`RawClient::buf`].
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, Range<usize>)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(io::ErrorKind::InvalidData)?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or(io::ErrorKind::InvalidData)?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, head_end..head_end + length))
    }

    pub fn buf(&self) -> &[u8] {
        &self.buf
    }

    /// [`RawClient::round_trip`], redialing once if the server closed
    /// the connection while it sat idle (the gateway's idle timeout).
    pub fn round_trip_redial(&mut self, request: &[u8]) -> io::Result<(u16, Range<usize>)> {
        match self.round_trip(request) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::BrokenPipe
                ) =>
            {
                *self = RawClient::connect(self.peer)?;
                self.round_trip(request)
            }
            other => other,
        }
    }

    /// `GET path` as parsed JSON (panics on anything but a 200).
    pub fn get_json(&mut self, path: &str) -> lixto_http::Json {
        let (status, body) = self
            .round_trip_redial(&get_request(path))
            .expect("GET round trip");
        let text = std::str::from_utf8(&self.buf[body]).expect("utf-8 body");
        assert_eq!(status, 200, "GET {path}: {text}");
        lixto_http::Json::parse(text).expect("JSON body")
    }
}

/// First index of `needle` in `hay`.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The JSON string literal following `"key":` in `body` (quotes and
/// escapes included), by scanning to the first unescaped quote.
pub fn json_string_field<'a>(body: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let marker = format!("\"{key}\":\"");
    let start = find(body, marker.as_bytes())? + marker.len() - 1;
    let mut i = start + 1;
    while i < body.len() {
        match body[i] {
            b'\\' => i += 2,
            b'"' => return Some(&body[start..=i]),
            _ => i += 1,
        }
    }
    None
}

/// SplitMix64: a seeded, well-mixed stream of input choices.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
