//! The traced run's barrier recorder and the summary statistics every
//! metric is reported with.
//!
//! [`WaitRecorder`] implements the engine's public `BarrierObserver`
//! hook: each partition thread stamps the wall clock into its own
//! preallocated slot array immediately before and after every barrier
//! wait. Nothing is formatted or written while the run executes; the
//! buffer is read after the executor has joined its threads.

use massf_engine::BarrierObserver;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Per-partition wait-begin / wait-end timestamps, nanoseconds since
/// the recorder was created, stored as `[begin0, end0, begin1, …]`.
pub struct WaitRecorder {
    epoch: Instant,
    parts: Vec<Stamps>,
}

struct Stamps {
    len: AtomicUsize,
    ns: Vec<AtomicU64>,
}

impl WaitRecorder {
    /// Room for `rounds` barrier waits per partition. A parallel run
    /// waits exactly `ExecutionStats::barrier_rounds` times per
    /// partition, and that count is deterministic, so an untraced run
    /// of the same leg sizes the buffer exactly.
    pub fn new(partitions: usize, rounds: u64) -> Self {
        let slots = usize::try_from(rounds).expect("round count fits in memory") * 2;
        WaitRecorder {
            epoch: Instant::now(),
            parts: (0..partitions)
                .map(|_| Stamps {
                    len: AtomicUsize::new(0),
                    ns: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
        }
    }

    // Each slot is written by its partition's thread only and read after
    // the executor joined that thread; the join orders the accesses, so
    // `Relaxed` suffices. The cursor may run past the buffer; `waits`
    // reports that as an error instead of dropping stamps silently.
    fn stamp(&self, p: usize) {
        let ns = self.epoch.elapsed().as_nanos() as u64;
        let part = &self.parts[p];
        let i = part.len.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = part.ns.get(i) {
            slot.store(ns, Ordering::Relaxed);
        }
    }

    /// The recorded `(begin, end)` pairs of every partition.
    pub fn waits(&self) -> Result<Vec<Vec<(u64, u64)>>, String> {
        self.parts
            .iter()
            .enumerate()
            .map(|(p, part)| {
                let len = part.len.load(Ordering::Relaxed);
                if len > part.ns.len() || len % 2 != 0 {
                    return Err(format!(
                        "partition {p}: {len} stamps for {} slots",
                        part.ns.len()
                    ));
                }
                Ok(part.ns[..len]
                    .chunks_exact(2)
                    .map(|w| (w[0].load(Ordering::Relaxed), w[1].load(Ordering::Relaxed)))
                    .collect())
            })
            .collect()
    }
}

impl BarrierObserver for WaitRecorder {
    fn wait_begin(&self, partition: usize) {
        self.stamp(partition);
    }
    fn wait_end(&self, partition: usize) {
        self.stamp(partition);
    }
}

/// Barrier waits and window busy spans (release to next wait) of one
/// traced run, microseconds, pooled over partitions.
pub struct BarrierProfile {
    pub wait_us: Vec<f64>,
    pub busy_us: Vec<f64>,
}

impl BarrierProfile {
    pub fn from_waits(waits: &[Vec<(u64, u64)>]) -> Self {
        let mut wait_us = Vec::new();
        let mut busy_us = Vec::new();
        for part in waits {
            for (i, &(begin, end)) in part.iter().enumerate() {
                wait_us.push(end.saturating_sub(begin) as f64 / 1e3);
                if let Some(&(next_begin, _)) = part.get(i + 1) {
                    busy_us.push(next_begin.saturating_sub(end) as f64 / 1e3);
                }
            }
        }
        BarrierProfile { wait_us, busy_us }
    }

    pub fn total_wait_s(&self) -> f64 {
        self.wait_us.iter().sum::<f64>() / 1e6
    }
}

/// Write the raw stamps as `partition,begin_ns,end_ns` lines.
pub fn write_waits(path: &Path, waits: &[Vec<(u64, u64)>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "partition,begin_ns,end_ns")?;
    for (p, part) in waits.iter().enumerate() {
        for (begin, end) in part {
            writeln!(out, "{p},{begin},{end}")?;
        }
    }
    out.flush()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between
/// order statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn recorder_pairs_stamps_and_detects_overflow() {
        let rec = WaitRecorder::new(2, 2);
        for _ in 0..2 {
            rec.wait_begin(1);
            rec.wait_end(1);
        }
        let waits = rec.waits().expect("within capacity");
        assert!(waits[0].is_empty());
        assert_eq!(waits[1].len(), 2);
        assert!(waits[1].iter().all(|&(b, e)| b <= e));
        let profile = BarrierProfile::from_waits(&waits);
        assert_eq!((profile.wait_us.len(), profile.busy_us.len()), (2, 1));

        rec.wait_begin(1);
        assert!(rec.waits().is_err(), "a third wait overflows two rounds");
    }
}
