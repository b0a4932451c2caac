//! # massf-engine
//!
//! A conservative parallel discrete-event simulation (PDES) kernel in the
//! DaSSF family, for the `massf-rs` reproduction of *Realistic Large-Scale
//! Online Network Simulation* (Liu & Chien, SC 2004).
//!
//! The MaSSF simulator of the paper runs one event-driven engine per
//! cluster node and synchronizes all engines with a global barrier every
//! *minimum link latency* (MLL) of virtual time: any event crossing
//! between engines is guaranteed (by link latency ≥ MLL) to arrive in a
//! later window, so each window executes with no rollbacks. This crate
//! implements that design:
//!
//! * [`SimTime`] — nanosecond-resolution virtual time.
//! * [`Model`] — the event-handling trait implemented by simulation
//!   models; handlers may touch only their target LP's state, which makes
//!   sequential and parallel execution bit-identical.
//! * Two executors, one public function each. Both take the run's
//!   starting [`ResumeState`] and return the executed segment's
//!   [`ExecutionStats`] plus the frontier it stopped at, so a paused run
//!   continues on either executor bit-identically.
//!   - [`run_sequential`] — the reference executor (one global heap).
//!     Given a `(window, assignment, partitions)` trace layout it also
//!     attributes events to `(window, partition)` cells, producing the
//!     per-window load traces that drive the paper's evaluation metrics.
//!   - [`run_parallel`] — the real multi-threaded barrier-windowed
//!     executor (one thread per partition) with lock-free per-pair
//!     outbox exchange and empty-window fast-forward. A
//!     [`BarrierObserver`] wraps every barrier for bench-side sync-cost
//!     measurement ([`NoopBarrierObserver`] measures nothing).
//! * [`ResumeState::seeded`] — the frontier a fresh run starts from: the
//!   initial events tagged in injection order, all LP counters zero.
//! * Fallible contract: neither executor panics on bad input. A
//!   malformed frontier or an inconsistent layout (zero window, no
//!   partitions, an assignment not covering every LP, an entry naming a
//!   missing partition) is [`MassfError::InvalidConfig`]; a window above
//!   the cut's minimum link latency is
//!   [`MassfError::LookaheadViolation`].
//! * [`synccost`] — the TeraGrid cluster synchronization-cost model of
//!   the paper's Figure 5, plus a live barrier-cost measurement.
//! * [`rebalance`] — the online re-partitioning decision layer: epoch
//!   geometry, deterministic per-partition load folding, and the
//!   integer-only imbalance trigger that drives mid-run LP migration
//!   (the move search lives in `massf-partition`, the migration
//!   transport in the snapshot session layer).
//!
//! Determinism: every event carries a `(source LP, per-source counter)`
//! tag; heaps order by `(time, tag)`. Since handlers only touch target-LP
//! state, the per-LP event sequences — and therefore all model state —
//! are identical under sequential and parallel execution (property-tested
//! in this crate and in the integration suite).

#![forbid(unsafe_code)]

pub mod arena;
pub mod event;
pub mod model;
pub mod par;
pub mod rebalance;
pub mod resume;
pub mod seq;
pub mod stats;
pub mod synccost;
pub mod time;

pub use arena::{EventArena, EventHandle};
pub use event::{external_tag, EventRecord, LpId, EXTERNAL_SOURCE};
pub use massf_topology::MassfError;
pub use model::{Emitter, Model};
pub use par::{run_parallel, BarrierObserver, NoopBarrierObserver};
pub use rebalance::{partition_loads, should_rebalance, RebalanceConfig, RebalanceCounters};
pub use resume::ResumeState;
pub use seq::run_sequential;
pub use stats::{imbalance_permille, ExecutionStats, TRACE_BUCKETS};
pub use synccost::SyncCostModel;
pub use time::SimTime;
