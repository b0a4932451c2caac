//! Checkpoint sessions: deterministic pause/resume and what-if
//! branching over the netsim world.
//!
//! A [`Session`] owns the two halves of a paused simulation — the
//! engine's pending-event frontier ([`ResumeState`]) and the canonical
//! netsim [`WorldState`] — plus the bookkeeping that glues segments
//! together (virtual time reached, the external-tag cursor for branch
//! injections, cumulative statistics). Because both halves round-trip
//! exactly and the engine orders events by `(time, tag)`, running a
//! session in segments — saving and restoring between them, switching
//! between sequential and parallel execution at any boundary — is
//! bit-identical to one straight-through run.
//!
//! Branching ([`Session::branch`]) forks a divergent continuation off a
//! shared prefix: N what-if runs over a `T`-long prefix and `S`-long
//! suffixes cost `O(T + N·S)` instead of `O(N·(T+S))` — the speedup the
//! `checkpoint_study` bench quantifies.
//!
//! Snapshots are bound to their scenario by a fingerprint
//! ([`scenario_fingerprint`]) over the topology, fault script, initial
//! events, and tuning knobs; restoring a snapshot against a different
//! scenario is refused up front instead of silently diverging.

use crate::codec;
use crate::format::{
    self, Section, SECTION_ENGINE, SECTION_META, SECTION_REBALANCE, SECTION_STATS, SECTION_WORLD,
};
use crate::wire::{fnv1a64, ByteReader, ByteWriter};
use massf_engine::{
    external_tag, run_parallel, run_sequential, EventRecord, LpId, NoopBarrierObserver,
    ResumeState, SimTime, EXTERNAL_SOURCE,
};
use massf_netsim::{
    validate_net_event, NetEvent, NetWorld, NoApp, ProfileData, SharedNet, WorldState,
};
use massf_topology::MassfError;
use std::path::Path;
use std::sync::Arc;

/// Which executor a segment runs on. Determinism does not depend on the
/// choice — segments may switch modes freely at any checkpoint.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// The single-threaded reference executor.
    Sequential,
    /// The conservative parallel executor: one thread per partition of
    /// `assignment`, barrier-synchronized every `window`.
    Parallel {
        /// Node → partition map, one entry per LP.
        assignment: Vec<u32>,
        /// Barrier window; must not exceed the cut's minimum
        /// cross-partition link latency.
        window: SimTime,
    },
}

/// Deterministic digest binding a snapshot to its scenario: topology
/// shape and link constants, fault script, initial events, route-cache
/// capacity, and TCP retry budget. Two runs with equal fingerprints and
/// equal snapshots are continuations of the same simulation; a loader
/// seeing a different fingerprint refuses the restore.
pub fn scenario_fingerprint(
    shared: &SharedNet,
    initial: &[(SimTime, LpId, NetEvent)],
    route_cache_capacity: usize,
    max_retries: u32,
) -> u64 {
    let mut w = ByteWriter::new();
    w.put_count(shared.net.node_count());
    w.put_count(shared.net.links.len());
    for link in &shared.net.links {
        w.put_u32(link.a.0);
        w.put_u32(link.b.0);
        w.put_u64(link.bandwidth_bps.to_bits());
        w.put_u64(link.latency_ms.to_bits());
        w.put_u8(u8::from(link.inter_as));
    }
    match &shared.faults {
        None => w.put_count(0),
        Some(f) => {
            let events = f.script().events();
            w.put_count(events.len());
            for e in events {
                w.put_u64(e.at.as_ns());
                codec::put_fault_kind(&mut w, e.kind);
            }
        }
    }
    w.put_count(initial.len());
    for (at, lp, ev) in initial {
        w.put_u64(at.as_ns());
        w.put_u32(lp.0);
        codec::put_net_event(&mut w, ev);
    }
    w.put_count(route_cache_capacity);
    w.put_u32(max_retries);
    fnv1a64(&w.into_inner())
}

/// A checkpointable simulation: world + frontier + segment bookkeeping.
pub struct Session {
    pub(crate) shared: Arc<SharedNet>,
    pub(crate) fingerprint: u64,
    /// Virtual time the session has executed up to.
    pub(crate) now: SimTime,
    /// Next tag position for externally injected (branch-suffix) events;
    /// starts after the initial events so injected tags never collide.
    pub(crate) next_external: u32,
    pub(crate) resume: ResumeState<NetEvent>,
    pub(crate) world: WorldState,
    pub(crate) total_events: u64,
    pub(crate) lp_events: Vec<u64>,
    /// Online-rebalancer state; `Some` iff the session was created with
    /// [`Session::new_rebalancing`]. Such sessions advance through
    /// [`Session::run_rebalancing`] only.
    pub(crate) rebalance: Option<crate::rebalance::RebalanceSessionState>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .field("now_ns", &self.now.as_ns())
            .field("next_external", &self.next_external)
            .field("frontier_events", &self.resume.events.len())
            .field("live_flows", &self.world.flows.len())
            .field("total_events", &self.total_events)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A session at virtual time zero, seeded with `initial` events
    /// (pass `NetSimBuilder::initial_events()` to match a builder-driven
    /// run exactly — that list already includes scripted fault events).
    pub fn new(
        shared: Arc<SharedNet>,
        initial: Vec<(SimTime, LpId, NetEvent)>,
        route_cache_capacity: usize,
        max_retries: u32,
    ) -> Self {
        let lp_count = shared.lp_count();
        let fingerprint =
            scenario_fingerprint(&shared, &initial, route_cache_capacity, max_retries);
        // simlint: allow(cast-lossy) -- 2^32 initial events is far past any supported scale
        let next_external = initial.len() as u32;
        let resume = ResumeState::seeded(initial, lp_count);
        let world = NetWorld::with_config(shared.clone(), NoApp, route_cache_capacity, max_retries)
            .export_state();
        Session {
            shared,
            fingerprint,
            now: SimTime::ZERO,
            next_external,
            resume,
            world,
            total_events: 0,
            lp_events: vec![0; lp_count],
            rebalance: None,
        }
    }

    /// Advance the session to virtual time `end` on the chosen
    /// executor. Segment boundaries and executor switches are
    /// invisible: any segmentation reproduces the straight-through run
    /// bit for bit.
    ///
    /// # Errors
    /// [`MassfError::InvalidConfig`] for a backwards `end`, a rebalancing
    /// session, or an inconsistent parallel layout (zero window, an
    /// assignment not covering every node, a partition id at or above
    /// the node count); [`MassfError::LookaheadViolation`] for a window
    /// above the cut's minimum link latency. A failed call leaves the
    /// session untouched.
    pub fn run_until(&mut self, end: SimTime, mode: &ExecMode) -> Result<(), MassfError> {
        if self.rebalance.is_some() {
            return Err(MassfError::InvalidConfig(
                "rebalancing sessions advance via run_rebalancing, not run_until \
                 (mixing executors would skip epoch-load accounting and diverge \
                 from the recorded decision trajectory)"
                    .into(),
            ));
        }
        if end < self.now {
            return Err(MassfError::InvalidConfig(format!(
                "cannot run backwards: session is at {} ns, requested end {} ns",
                self.now.as_ns(),
                end.as_ns()
            )));
        }
        // The executors consume their start state; run on a copy so an
        // error leaves the session as it was.
        let resume = self.resume.clone();
        let prefix_profile = self.world.profile.clone();
        let (stats, frontier, mut world) = match mode {
            ExecMode::Sequential => {
                let mut w = NetWorld::restore(self.shared.clone(), NoApp, &self.world)?;
                let (stats, frontier) = run_sequential(&mut w, resume, end, None)?;
                (stats, frontier, w.export_state())
            }
            ExecMode::Parallel { assignment, window } => {
                // One shard per partition id up to the highest assigned.
                // Ids past the node count cannot come from a cut; refuse
                // them before building that many shards.
                let top = assignment.iter().copied().max().unwrap_or(0);
                if top as usize >= self.shared.lp_count() {
                    return Err(MassfError::InvalidConfig(format!(
                        "assignment names partition {top}, but the network has {} nodes",
                        self.shared.lp_count()
                    )));
                }
                let shards = (0..=top)
                    .map(|p| {
                        NetWorld::restore_partition(
                            self.shared.clone(),
                            NoApp,
                            &self.world,
                            assignment,
                            p,
                        )
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let (shards, stats, frontier) = run_parallel(
                    shards,
                    assignment,
                    resume,
                    end,
                    *window,
                    &NoopBarrierObserver,
                )?;
                let parts: Vec<WorldState> = shards.iter().map(NetWorld::export_state).collect();
                (
                    stats,
                    frontier,
                    WorldState::merge_partitions(&parts, assignment)?,
                )
            }
        };
        // Restored worlds start with zeroed profiles; fold the prefix
        // counters back in so the session's profile stays cumulative.
        world.profile.merge(&prefix_profile);
        self.world = world;
        self.resume = frontier;
        self.now = end;
        self.total_events += stats.total_events;
        for (acc, n) in self.lp_events.iter_mut().zip(&stats.lp_events) {
            *acc += n;
        }
        Ok(())
    }

    /// Serialize the session into the versioned, checksummed snapshot
    /// container.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u64(self.fingerprint);
        meta.put_u64(self.now.as_ns());
        meta.put_u32(self.next_external);
        let mut engine = ByteWriter::new();
        codec::put_resume_state(&mut engine, &self.resume);
        let mut world = ByteWriter::new();
        codec::put_world_state(&mut world, &self.world);
        let mut stats = ByteWriter::new();
        stats.put_u64(self.total_events);
        stats.put_count(self.lp_events.len());
        for &n in &self.lp_events {
            stats.put_u64(n);
        }
        let mut sections = vec![
            Section {
                id: SECTION_META,
                payload: meta.into_inner(),
            },
            Section {
                id: SECTION_ENGINE,
                payload: engine.into_inner(),
            },
            Section {
                id: SECTION_WORLD,
                payload: world.into_inner(),
            },
            Section {
                id: SECTION_STATS,
                payload: stats.into_inner(),
            },
        ];
        if let Some(rb) = &self.rebalance {
            let mut w = ByteWriter::new();
            codec::put_rebalance_state(&mut w, rb);
            sections.push(Section {
                id: SECTION_REBALANCE,
                payload: w.into_inner(),
            });
        }
        format::encode_container(&sections)
    }

    /// Write the session atomically to `path` (temp + fsync + rename; a
    /// crash mid-save never leaves a torn file behind).
    pub fn save(&self, path: &Path) -> Result<(), MassfError> {
        format::write_atomic(path, &self.encode())
    }

    /// Reconstruct a session from snapshot bytes. The bytes are
    /// untrusted: container framing, section checksums, frontier order,
    /// event sanity (paths must exist in the topology, hops in range),
    /// and world invariants are all verified here — corruption yields a
    /// structured error naming the failing section, never a panic. A
    /// fingerprint other than `expected_fingerprint` (compute it with
    /// [`scenario_fingerprint`] from the scenario you are restoring
    /// into) is refused as [`MassfError::InvalidConfig`].
    pub fn decode(
        shared: Arc<SharedNet>,
        expected_fingerprint: u64,
        bytes: &[u8],
    ) -> Result<Self, MassfError> {
        let lp_count = shared.lp_count();
        let sections = format::decode_container(bytes)?;

        let meta = format::require_section(&sections, SECTION_META)?;
        let mut r = ByteReader::new(&meta.payload, "meta");
        let fingerprint = r.get_u64()?;
        let now = SimTime::from_ns(r.get_u64()?);
        let next_external = r.get_u32()?;
        r.finish()?;
        if fingerprint != expected_fingerprint {
            return Err(MassfError::InvalidConfig(format!(
                "snapshot fingerprint {fingerprint:#018x} does not match scenario \
                 {expected_fingerprint:#018x}: wrong topology, script, traffic, or tuning"
            )));
        }

        let engine = format::require_section(&sections, SECTION_ENGINE)?;
        let mut r = ByteReader::new(&engine.payload, "engine");
        let resume = codec::get_resume_state(&mut r)?;
        r.finish()?;
        let corrupt = |section: &str, reason: String| MassfError::SnapshotCorrupt {
            section: section.to_owned(),
            reason,
        };
        resume
            .validate(lp_count)
            .map_err(|e| corrupt("engine", e.to_string()))?;
        for ev in &resume.events {
            if ev.time < now {
                return Err(corrupt(
                    "engine",
                    format!(
                        "frontier event at {} ns predates the checkpoint time {} ns",
                        ev.time.as_ns(),
                        now.as_ns()
                    ),
                ));
            }
            let source = (ev.tag >> 32) as u32;
            // simlint: allow(cast-lossy) -- low half of the tag is the counter by construction
            let counter = (ev.tag & 0xFFFF_FFFF) as u32;
            if source == EXTERNAL_SOURCE && counter >= next_external {
                return Err(corrupt(
                    "engine",
                    format!(
                        "frontier event claims external position {counter}, \
                         only {next_external} were issued"
                    ),
                ));
            }
            validate_net_event(&shared, ev.target, &ev.payload)?;
        }

        let world_section = format::require_section(&sections, SECTION_WORLD)?;
        let mut r = ByteReader::new(&world_section.payload, "world");
        let world = codec::get_world_state(&mut r)?;
        r.finish()?;
        // Dry-run restore: surface hostile world state at load time
        // rather than at first use.
        NetWorld::restore(shared.clone(), NoApp, &world)?;

        let stats = format::require_section(&sections, SECTION_STATS)?;
        let mut r = ByteReader::new(&stats.payload, "stats");
        let total_events = r.get_u64()?;
        let n = r.get_count(8)?;
        let mut lp_events = Vec::with_capacity(n);
        for _ in 0..n {
            lp_events.push(r.get_u64()?);
        }
        r.finish()?;
        if lp_events.len() != lp_count {
            return Err(corrupt(
                "stats",
                format!(
                    "per-LP counters cover {} LPs, network has {lp_count}",
                    lp_events.len()
                ),
            ));
        }

        let rebalance = match sections.iter().find(|s| s.id == SECTION_REBALANCE) {
            None => None,
            Some(section) => {
                let mut r = ByteReader::new(&section.payload, "rebalance");
                let rb = codec::get_rebalance_state(&mut r)?;
                r.finish()?;
                rb.validate(lp_count)
                    .map_err(|e| corrupt("rebalance", e.to_string()))?;
                Some(rb)
            }
        };

        Ok(Session {
            shared,
            fingerprint,
            now,
            next_external,
            resume,
            world,
            total_events,
            lp_events,
            rebalance,
        })
    }

    /// [`Session::decode`] from a file.
    pub fn load(
        path: &Path,
        shared: Arc<SharedNet>,
        expected_fingerprint: u64,
    ) -> Result<Self, MassfError> {
        Self::decode(shared, expected_fingerprint, &format::read_file(path)?)
    }

    /// Fork a what-if continuation: same prefix state, divergent
    /// future. `shared` is the branch's network handle — pass a clone of
    /// the session's own to replay the original timeline, or a handle
    /// built over the *same topology* with an extended fault script to
    /// explore one (the added faults must also appear in `suffix` as
    /// [`NetEvent::Fault`] events, mirroring what
    /// `NetSimBuilder::initial_events` does for scripted faults — only
    /// script entries at or after the checkpoint time may differ from
    /// the session's own script, or the shared prefix would diverge).
    /// `suffix` events are injected at times at or after the checkpoint
    /// and tagged after every already-issued external event, so every
    /// branch orders its inherited frontier identically.
    pub fn branch(
        &self,
        shared: Arc<SharedNet>,
        suffix: Vec<(SimTime, LpId, NetEvent)>,
    ) -> Result<Session, MassfError> {
        if shared.net.node_count() != self.shared.net.node_count()
            || shared.net.links.len() != self.shared.net.links.len()
        {
            return Err(MassfError::InvalidConfig(format!(
                "branch network has {} nodes / {} links, session has {} / {}",
                shared.net.node_count(),
                shared.net.links.len(),
                self.shared.net.node_count(),
                self.shared.net.links.len()
            )));
        }
        let mut events = self.resume.events.clone();
        let mut next_external = self.next_external;
        let mut suffix_digest = ByteWriter::new();
        for (at, lp, ev) in suffix {
            if at < self.now {
                return Err(MassfError::InvalidConfig(format!(
                    "branch event at {} ns predates the checkpoint time {} ns",
                    at.as_ns(),
                    self.now.as_ns()
                )));
            }
            validate_net_event(&shared, lp, &ev)?;
            suffix_digest.put_u64(at.as_ns());
            suffix_digest.put_u32(lp.0);
            codec::put_net_event(&mut suffix_digest, &ev);
            events.push(EventRecord {
                time: at,
                target: lp,
                tag: external_tag(next_external),
                payload: ev,
            });
            next_external += 1;
        }
        events.sort_unstable();
        // The branch is a different scenario; derive a fingerprint from
        // the base plus everything that diverges (suffix + script).
        let mut fp = ByteWriter::new();
        fp.put_u64(self.fingerprint);
        fp.put_bytes(&suffix_digest.into_inner());
        match &shared.faults {
            None => fp.put_count(0),
            Some(f) => {
                let script = f.script().events();
                fp.put_count(script.len());
                for e in script {
                    fp.put_u64(e.at.as_ns());
                    codec::put_fault_kind(&mut fp, e.kind);
                }
            }
        }
        Ok(Session {
            shared,
            fingerprint: fnv1a64(&fp.into_inner()),
            now: self.now,
            next_external,
            resume: ResumeState {
                events,
                counters: self.resume.counters.clone(),
            },
            world: self.world.clone(),
            total_events: self.total_events,
            lp_events: self.lp_events.clone(),
            // A branch of a rebalancing session keeps rebalancing: the
            // live assignment and partial-epoch loads carry over, so the
            // branch's decision trajectory matches the trunk's up to the
            // fork and diverges only with the injected suffix.
            rebalance: self.rebalance.clone(),
        })
    }

    /// Virtual time the session has executed up to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scenario fingerprint this session's snapshots carry.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shared network handle the session runs over.
    pub fn shared(&self) -> Arc<SharedNet> {
        self.shared.clone()
    }

    /// Cumulative traffic profile (prefix included).
    pub fn profile(&self) -> &ProfileData {
        &self.world.profile
    }

    /// The canonical world state at the current checkpoint.
    pub fn world_state(&self) -> &WorldState {
        &self.world
    }

    /// The pending-event frontier at the current checkpoint.
    pub fn frontier(&self) -> &ResumeState<NetEvent> {
        &self.resume
    }

    /// Events executed across all segments so far.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Per-LP event counts across all segments so far.
    pub fn lp_events(&self) -> &[u64] {
        &self.lp_events
    }
}
