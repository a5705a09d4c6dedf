//! Measurement plumbing: the digesting CSV writer, order statistics,
//! peak RSS and the host facts recorded with every result.

use certify_core::Json;
use std::io::{self, Write};
use std::time::Instant;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An order-sensitive FNV-1a digest over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    bytes: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            hash: FNV_OFFSET,
            bytes: 0,
        }
    }
}

impl Digest {
    /// Folds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.hash = (self.hash ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        self.bytes += data.len() as u64;
    }

    /// Bytes folded in so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The CSV destination of every workload: digests the bytes it is
/// given and notes when each data row arrived, so no row is kept and
/// no disk is touched. Both engines write the header first, then each
/// row in one call.
#[derive(Debug)]
pub struct DigestWriter {
    digest: Digest,
    /// Bytes after which data rows start (the CSV header's length).
    header_len: u64,
    rows_at: Vec<Instant>,
}

impl DigestWriter {
    /// A writer whose first `header_len` bytes are the CSV header.
    pub fn new(header_len: usize) -> DigestWriter {
        DigestWriter {
            digest: Digest::default(),
            header_len: header_len as u64,
            rows_at: Vec::new(),
        }
    }

    /// The digest of everything written.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// When each write past the header arrived.
    pub fn rows_at(&self) -> &[Instant] {
        &self.rows_at
    }
}

impl Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.digest.bytes() + buf.len() as u64 > self.header_len {
            self.rows_at.push(Instant::now());
        }
        self.digest.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule;
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads and processes the workloads may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average, or -1 where `/proc` does not report it.
fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find(|line| line.starts_with("cpu "))
        .map(|line| {
            line.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host state sampled before a run, completed by [`HostFacts::finish`].
#[derive(Debug)]
pub struct HostFacts {
    load_before: f64,
    jiffies_before: (u64, u64),
}

impl HostFacts {
    /// Samples load average and CPU jiffies now.
    pub fn start() -> HostFacts {
        HostFacts {
            load_before: load_average(),
            jiffies_before: cpu_jiffies(),
        }
    }

    /// The facts recorded with a result: the before/after samples plus
    /// the build and run parameters.
    pub fn finish(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
        let (steal_after, total_after) = cpu_jiffies();
        let steal = steal_after.saturating_sub(self.jiffies_before.0);
        let total = total_after.saturating_sub(self.jiffies_before.1);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::U64(seed)),
            ("seconds", Json::U64(seconds)),
            ("trace", Json::Bool(trace)),
            ("nproc", Json::U64(nproc() as u64)),
            ("rustc", Json::str(env!("CERTBENCH_RUSTC"))),
            ("profile", Json::str(env!("CERTBENCH_PROFILE"))),
            ("load_before", Json::F64(self.load_before)),
            ("load_after", Json::F64(load_average())),
            ("steal_jiffies", Json::U64(steal)),
            (
                "steal_share",
                Json::F64(if total == 0 {
                    0.0
                } else {
                    steal as f64 / total as f64
                }),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_writer_notes_rows() {
        let mut writer = DigestWriter::new(4);
        writer.write_all(b"head").unwrap();
        assert!(writer.rows_at().is_empty());
        writer.write_all(b"row\n").unwrap();
        writer.write_all(b"row\n").unwrap();
        assert_eq!(writer.rows_at().len(), 2);
        let mut same = Digest::default();
        same.update(b"headrow\nrow\n");
        assert_eq!(writer.digest(), same);
    }
}
