//! Online dynamic re-partitioning: deterministic LP migration that
//! keeps the mapping optimal while the sim runs.
//!
//! A rebalancing [`Session`] advances in *epochs* (absolute multiples
//! of the configured cadence from virtual time zero). Within an epoch
//! the parallel shards stay resident and are chained segment-to-segment
//! with no export/restore cost. At each epoch boundary the driver:
//!
//! 1. folds the epoch's per-LP event counts (a deterministic function
//!    of simulated state — never wall-clock barrier waits) into
//!    per-partition loads,
//! 2. tests `massf_engine::imbalance_permille` against the configured
//!    threshold, and
//! 3. if exceeded, asks `massf_partition::rebalance` (RNG-free,
//!    integer-only Kurve-style local moves over the topology graph with
//!    core's standard inverse-latency edge weights) for a bounded move
//!    list, then **migrates**: the resident shards are flushed through
//!    owner-filtered `WorldState` export + `merge_partitions`, the
//!    assignment is rewritten, and the next segment restores
//!    partition-subset shards under the new map. Pending events for a
//!    migrated LP travel in the session's [`ResumeState`] frontier; the
//!    engine routes them to the LP's new owner when the next segment
//!    starts. The barrier window is recomputed from the new cut's MLL.
//!
//! **Determinism.** Every input to steps 1–3 (event counts, topology,
//! assignment, config) is identical on every host and thread count, so
//! the decision trajectory — and therefore the simulation output — is
//! bit-identical to a sequential run at any cadence, threshold, or
//! partition count (proptest-pinned in `tests/tests/rebalance.rs`).
//! Epoch boundaries being absolute means a checkpoint taken mid-epoch
//! (the partial epoch's loads are captured in the snapshot's rebalance
//! section) restores and replays the very same decisions.

use crate::checkpoint::Session;
use crate::wire::{fnv1a64, ByteWriter};
use massf_engine::{
    imbalance_permille, partition_loads, run_parallel, should_rebalance, LpId, NoopBarrierObserver,
    RebalanceConfig, RebalanceCounters, ResumeState, SimTime,
};
use massf_netsim::{NetEvent, NetWorld, NoApp, SharedNet};
use massf_partition::{apply_moves, rebalance, RebalanceParams, WeightedGraph};
use massf_topology::MassfError;
use std::sync::Arc;

/// The rebalancer's live state, carried inside rebalancing sessions and
/// their checkpoints: without it a restored run could not replay the
/// same decision trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceSessionState {
    /// Epoch cadence, trigger threshold and per-epoch migration budget
    /// (fingerprint-bound). The move search's cost weights are
    /// [`RebalanceParams`]' defaults.
    pub cfg: RebalanceConfig,
    /// Partition count (fixed for the session; migration moves LPs
    /// between existing partitions, it never grows the set).
    pub partitions: u32,
    /// The live LP → partition map (the initial mapping plus every
    /// migration applied so far).
    pub assignment: Vec<u32>,
    /// Per-LP event counts accumulated inside the current — possibly
    /// partial — epoch; folded and reset at each boundary.
    pub epoch_loads: Vec<u64>,
    /// Cumulative activity.
    pub counters: RebalanceCounters,
}

impl RebalanceSessionState {
    /// Structural validation against `lp_count` (snapshot bytes are
    /// untrusted input).
    pub fn validate(&self, lp_count: usize) -> Result<(), MassfError> {
        self.cfg.validate()?;
        if self.partitions == 0 {
            return Err(MassfError::InvalidConfig(
                "rebalance state has zero partitions".into(),
            ));
        }
        if self.assignment.len() != lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance assignment covers {} LPs, network has {lp_count}",
                self.assignment.len()
            )));
        }
        if let Some(&p) = self.assignment.iter().find(|&&p| p >= self.partitions) {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance assignment references partition {p} of {}",
                self.partitions
            )));
        }
        if self.epoch_loads.len() != lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance epoch loads cover {} LPs, network has {lp_count}",
                self.epoch_loads.len()
            )));
        }
        Ok(())
    }
}

/// Fingerprint of a rebalancing scenario: the base
/// [`crate::scenario_fingerprint`] mixed with the rebalancer config and
/// the initial assignment. Rebalancing alters the *trajectory* of a
/// session (which assignment is live when), so a rebalancing snapshot
/// must never restore into a plain session or one with different knobs.
pub fn rebalancing_fingerprint(base: u64, cfg: &RebalanceConfig, assignment: &[u32]) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(base);
    w.put_u64(cfg.epoch.as_ns());
    w.put_u64(cfg.threshold_permille);
    w.put_count(cfg.max_moves);
    w.put_count(assignment.len());
    for &p in assignment {
        w.put_u32(p);
    }
    fnv1a64(&w.into_inner())
}

/// What one [`Session::run_rebalancing`] call did, for reporting.
/// Everything here except `epochs`-independent sums is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// Epoch boundaries evaluated during this call.
    pub epochs: u64,
    /// Migration rounds executed.
    pub rebalances: u64,
    /// LPs migrated.
    pub migrations: u64,
    /// Per completed epoch: `imbalance_permille` of the measured
    /// per-partition loads (pre-decision, i.e. what the static mapping
    /// delivered over that epoch).
    pub epoch_imbalance_permille: Vec<u64>,
    /// Σ over completed epochs of the busiest partition's load.
    pub max_load_sum: u64,
    /// Σ over completed epochs of all partitions' load (= events).
    pub total_load: u64,
    /// Σ per-segment critical-path event counts
    /// ([`massf_engine::ExecutionStats::critical_path_events`]).
    pub critical_path_events: u64,
    /// Σ windows that actually synchronized.
    pub windows_executed: u64,
    /// Σ barrier rounds performed.
    pub barrier_rounds: u64,
}

impl RebalanceOutcome {
    /// Aggregate max/mean load imbalance across all completed epochs,
    /// permille: `Σ max_p load · 1000 · k / Σ total load`. This is the
    /// quantity a barrier-synchronized cluster pays for — each epoch
    /// costs its busiest partition — and the headline number of the
    /// `rebalance_study` bench.
    pub fn aggregate_imbalance_permille(&self, partitions: usize) -> u64 {
        if self.total_load == 0 {
            return 1000;
        }
        (self.max_load_sum as u128 * 1000 * partitions as u128 / self.total_load as u128) as u64
    }
}

/// The move-search graph: topology vertices with unit weights and the
/// standard inverse-latency edge weights of `massf_core::weights`
/// (`round(64 / latency_ms)`, min 1) — low-latency links are expensive
/// to cut, both for routing locality and because the cut MLL bounds the
/// barrier window.
fn conflict_graph(shared: &SharedNet) -> WeightedGraph {
    let edges: Vec<(u32, u32, u64)> = shared
        .net
        .links
        .iter()
        .map(|l| {
            let w = (64.0 / l.latency_ms).round() as u64;
            (l.a.0, l.b.0, w.max(1))
        })
        .collect();
    WeightedGraph::from_edges(vec![1; shared.net.node_count()], &edges)
}

impl Session {
    /// A session at virtual time zero that rebalances online: it starts
    /// on `assignment` (LP → partition, e.g. an HPROF mapping) and
    /// migrates LPs whenever an epoch's measured load imbalance exceeds
    /// `cfg`'s threshold. The fingerprint binds `cfg` and the initial
    /// assignment on top of the base scenario ([`Session::new`]).
    pub fn new_rebalancing(
        shared: Arc<SharedNet>,
        initial: Vec<(SimTime, LpId, NetEvent)>,
        max_retries: u32,
        cfg: RebalanceConfig,
        assignment: Vec<u32>,
    ) -> Result<Session, MassfError> {
        cfg.validate()?;
        let lp_count = shared.lp_count();
        if assignment.len() != lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "initial assignment covers {} LPs, network has {lp_count}",
                assignment.len()
            )));
        }
        let partitions = assignment.iter().copied().max().map_or(1, |m| m + 1);
        let mut session = Session::new(shared, initial, max_retries);
        session.fingerprint = rebalancing_fingerprint(session.fingerprint, &cfg, &assignment);
        session.rebalance = Some(RebalanceSessionState {
            cfg,
            partitions,
            assignment,
            epoch_loads: vec![0; lp_count],
            counters: RebalanceCounters::default(),
        });
        Ok(session)
    }

    /// The rebalancer's live state, if this is a rebalancing session.
    pub fn rebalance_state(&self) -> Option<&RebalanceSessionState> {
        self.rebalance.as_ref()
    }

    /// Advance a rebalancing session to virtual time `end`, evaluating
    /// the imbalance trigger at every epoch boundary crossed and
    /// migrating LPs when it fires. Like [`Session::run_until`],
    /// segmentation is invisible: stopping at any `end` (mid-epoch
    /// included) and continuing — directly or through snapshot bytes —
    /// reproduces the straight-through run bit for bit.
    pub fn run_rebalancing(&mut self, end: SimTime) -> Result<RebalanceOutcome, MassfError> {
        let Some(mut rb) = self.rebalance.take() else {
            return Err(MassfError::InvalidConfig(
                "session has no rebalance policy; use run_until".into(),
            ));
        };
        let result = self.run_rebalancing_inner(end, &mut rb);
        self.rebalance = Some(rb);
        result
    }

    fn run_rebalancing_inner(
        &mut self,
        end: SimTime,
        rb: &mut RebalanceSessionState,
    ) -> Result<RebalanceOutcome, MassfError> {
        if end < self.now {
            return Err(MassfError::InvalidConfig(format!(
                "cannot run backwards: session is at {} ns, requested end {} ns",
                self.now.as_ns(),
                end.as_ns()
            )));
        }
        let lp_count = self.shared.lp_count();
        let partitions = rb.partitions as usize;
        let graph = conflict_graph(&self.shared);
        let params = RebalanceParams {
            max_moves: rb.cfg.max_moves,
            ..RebalanceParams::default()
        };
        let mut outcome = RebalanceOutcome::default();
        // Shards stay resident across epoch boundaries; they are flushed
        // into the canonical WorldState only when a migration rewrites
        // the assignment (export under the old map, merge, and let the
        // next segment restore under the new one) or when this call
        // returns.
        let mut shards: Option<Vec<NetWorld<NoApp>>> = None;
        let mut window = self.shared.safe_parallel_window(&rb.assignment);

        while self.now < end {
            let boundary = rb.cfg.next_boundary(self.now);
            let seg_end = boundary.min(end);
            // End time is exclusive in the executors, so a frontier whose
            // head is at or past seg_end executes nothing: skip the
            // engine round-trip entirely (zero loads leave every decision
            // unchanged, so the fast path cannot alter the trajectory).
            let has_events = self.resume.next_event_time().is_some_and(|t| t < seg_end);
            if has_events {
                let current = match shards.take() {
                    Some(s) => s,
                    None => self.restore_shards(&rb.assignment, rb.partitions)?,
                };
                let resume =
                    std::mem::replace(&mut self.resume, ResumeState::seeded(Vec::new(), lp_count));
                let (next_shards, stats, frontier) = run_parallel(
                    current,
                    &rb.assignment,
                    resume,
                    seg_end,
                    window,
                    &NoopBarrierObserver,
                )?;
                shards = Some(next_shards);
                self.resume = frontier;
                self.total_events += stats.total_events;
                for ((acc, epoch), n) in self
                    .lp_events
                    .iter_mut()
                    .zip(rb.epoch_loads.iter_mut())
                    .zip(&stats.lp_events)
                {
                    *acc += n;
                    *epoch += n;
                }
                outcome.critical_path_events += stats.critical_path_events();
                outcome.windows_executed += stats.windows_executed;
                outcome.barrier_rounds += stats.barrier_rounds;
            }
            self.now = seg_end;

            if seg_end == boundary {
                // Epoch complete: evaluate the deterministic load signal.
                let loads = partition_loads(&rb.epoch_loads, &rb.assignment, partitions);
                rb.counters.epochs += 1;
                outcome.epochs += 1;
                outcome
                    .epoch_imbalance_permille
                    .push(imbalance_permille(&loads));
                outcome.max_load_sum += loads.iter().copied().max().unwrap_or(0);
                outcome.total_load += loads.iter().sum::<u64>();
                if should_rebalance(&rb.cfg, &loads) {
                    let moves =
                        rebalance(&graph, partitions, &rb.assignment, &rb.epoch_loads, &params);
                    if !moves.is_empty() {
                        // Migrate. Flushing under the *old* assignment and
                        // restoring under the new one is the owner-filtered
                        // handoff: each LP's world state moves to its new
                        // shard, and the engine re-routes the frontier's
                        // pending events by assignment when the next
                        // segment starts.
                        if let Some(s) = shards.take() {
                            self.flush_shards(&s, &rb.assignment)?;
                        }
                        apply_moves(&mut rb.assignment, &moves);
                        window = self.shared.safe_parallel_window(&rb.assignment);
                        rb.counters.rebalances += 1;
                        rb.counters.migrations += moves.len() as u64;
                        outcome.rebalances += 1;
                        outcome.migrations += moves.len() as u64;
                    }
                }
                rb.epoch_loads.fill(0);
            }
        }

        if let Some(s) = shards.take() {
            self.flush_shards(&s, &rb.assignment)?;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session_state() -> RebalanceSessionState {
        RebalanceSessionState {
            cfg: RebalanceConfig::default(),
            partitions: 2,
            assignment: vec![0, 1, 0],
            epoch_loads: vec![0; 3],
            counters: RebalanceCounters::default(),
        }
    }

    #[test]
    fn policy_validation_delegates_to_config() {
        assert!(session_state().validate(3).is_ok());
        let mut bad = session_state();
        bad.cfg.epoch = SimTime::ZERO;
        assert!(bad.validate(3).is_err());
    }

    #[test]
    fn session_state_validation_rejects_shape_mismatches() {
        let good = session_state();
        assert!(good.validate(3).is_ok());
        assert!(good.validate(4).is_err());
        let mut bad = good.clone();
        bad.partitions = 0;
        assert!(bad.validate(3).is_err());
        let mut bad = good.clone();
        bad.assignment[1] = 2; // >= partitions
        assert!(bad.validate(3).is_err());
        let mut bad = good.clone();
        bad.epoch_loads.pop();
        assert!(bad.validate(3).is_err());
    }

    #[test]
    fn fingerprint_binds_policy_and_assignment() {
        let cfg = RebalanceConfig::default();
        let base = 0x1234_5678_9abc_def0;
        let fp = rebalancing_fingerprint(base, &cfg, &[0, 1, 0]);
        assert_ne!(fp, base);
        assert_ne!(fp, rebalancing_fingerprint(base, &cfg, &[0, 1, 1]));
        let other = RebalanceConfig {
            max_moves: cfg.max_moves + 1,
            ..cfg
        };
        assert_ne!(fp, rebalancing_fingerprint(base, &other, &[0, 1, 0]));
        assert_eq!(fp, rebalancing_fingerprint(base, &cfg, &[0, 1, 0]));
    }

    #[test]
    fn aggregate_imbalance_is_sum_ratio() {
        let o = RebalanceOutcome {
            max_load_sum: 60,
            total_load: 80,
            ..RebalanceOutcome::default()
        };
        assert_eq!(o.aggregate_imbalance_permille(2), 1500);
        assert_eq!(
            RebalanceOutcome::default().aggregate_imbalance_permille(4),
            1000
        );
    }
}
