//! Output checks, counted as operations: every leg is one attempted
//! operation, and it fails if it returned `Err` or disagrees with its
//! reference.
//!
//! The reference for any leg is the first sequential leg of the run.
//! Sequential and parallel execution are bit-identical by the engine's
//! contract, so every leg must reproduce its event counts and traffic
//! counters exactly; parallel legs must also satisfy their own windowed
//! invariants.

use crate::pipeline::LegRun;
use massf_engine::{ExecutionStats, MassfError};

/// Attempted and failed operations, with the first failures' reasons.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ops {
    /// Count one operation with the verdict of its checks.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{what}: {reason}"));
            }
        }
    }

    /// Count a leg whose run may have failed; returns its output if the
    /// run succeeded and `check` passed.
    pub fn leg(
        &mut self,
        what: &str,
        run: Result<LegRun, MassfError>,
        check: impl FnOnce(&LegRun) -> Result<(), String>,
    ) -> Option<LegRun> {
        match run {
            Ok(out) => {
                let verdict = check(&out);
                let ok = verdict.is_ok();
                self.record(what, verdict);
                ok.then_some(out)
            }
            Err(e) => {
                self.record(what, Err(format!("run failed: {e}")));
                None
            }
        }
    }
}

/// The deterministic outcome two equal runs must share: event totals,
/// per-LP event counts and every traffic counter.
pub fn same_outcome(reference: &LegRun, got: &LegRun) -> Result<(), String> {
    let (want, have) = (&reference.stats, &got.stats);
    if have.total_events != want.total_events {
        return Err(format!(
            "total_events {} != reference {}",
            have.total_events, want.total_events
        ));
    }
    if have.lp_events != want.lp_events {
        let lp = have
            .lp_events
            .iter()
            .zip(&want.lp_events)
            .position(|(a, b)| a != b)
            .unwrap_or(have.lp_events.len().min(want.lp_events.len()));
        return Err(format!("lp_events first differ at LP {lp}"));
    }
    let (want, have) = (&reference.profile, &got.profile);
    if have != want {
        return Err(format!(
            "ProfileData differs (drops {} vs {}, completed {} vs {}, fluid completed {} vs {})",
            have.drops,
            want.drops,
            have.completed_flows,
            want.completed_flows,
            have.fluid.completed,
            want.fluid.completed
        ));
    }
    Ok(())
}

/// The documented invariants of a windowed run's statistics.
pub fn windowed_invariants(stats: &ExecutionStats) -> Result<(), String> {
    let bucket_sum: u64 = stats.bucket_totals.iter().sum();
    if bucket_sum != stats.total_events {
        return Err(format!(
            "bucket_totals sum {bucket_sum} != total_events {}",
            stats.total_events
        ));
    }
    let partition_sum: u64 = stats.partition_totals.iter().sum();
    if partition_sum != stats.total_events {
        return Err(format!(
            "partition_totals sum {partition_sum} != total_events {}",
            stats.total_events
        ));
    }
    if stats.windows_executed + stats.windows_skipped != stats.n_windows as u64 {
        return Err(format!(
            "windows_executed {} + windows_skipped {} != n_windows {}",
            stats.windows_executed, stats.windows_skipped, stats.n_windows
        ));
    }
    Ok(())
}

/// A parallel leg against the sequential reference.
pub fn parallel_matches(reference: &LegRun, par: &LegRun) -> Result<(), String> {
    same_outcome(reference, par)?;
    windowed_invariants(&par.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Prepared, Variant};
    use crate::workload::Workload;
    use massf_engine::NoopBarrierObserver;

    fn tiny_pair() -> (LegRun, LegRun) {
        let prepared = Prepared::build(Workload::SaPacket.tiny_spec(), 3).expect("tiny set-up");
        let seq = prepared.leg(Variant::FULL).expect("leg").run_sequential();
        let par = prepared
            .leg(Variant::FULL)
            .expect("leg")
            .run_parallel(&prepared, &NoopBarrierObserver)
            .expect("parallel leg");
        (seq, par)
    }

    #[test]
    fn unperturbed_parallel_leg_passes() {
        let (seq, par) = tiny_pair();
        let mut ops = Ops::default();
        ops.leg("par", Ok(par), |p| parallel_matches(&seq, p));
        assert_eq!((ops.attempted, ops.failed), (1, 0), "{:?}", ops.reasons);
    }

    #[test]
    fn every_perturbation_registers_as_a_failure() {
        let (seq, par) = tiny_pair();
        type Perturb = fn(&mut LegRun);
        let perturbations: [(&str, Perturb); 6] = [
            ("total_events", |r| r.stats.total_events += 1),
            ("lp_events", |r| r.stats.lp_events[0] += 1),
            ("profile counter", |r| r.profile.completed_flows += 1),
            ("bucket_totals", |r| r.stats.bucket_totals[0] += 1),
            ("partition_totals", |r| r.stats.partition_totals[0] += 1),
            ("window counts", |r| r.stats.windows_skipped += 1),
        ];
        let mut ops = Ops::default();
        for (what, perturb) in perturbations {
            let mut bad = par.clone();
            perturb(&mut bad);
            ops.leg(what, Ok(bad), |p| parallel_matches(&seq, p));
        }
        ops.leg(
            "failed run",
            Err(MassfError::InvalidConfig("injected".into())),
            |_| Ok(()),
        );
        assert_eq!(ops.attempted, 7);
        assert_eq!(ops.failed, 7, "undetected: {:?}", ops.reasons);
    }
}
