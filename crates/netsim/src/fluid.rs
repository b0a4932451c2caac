//! Fluid (flow-level) background traffic coexisting with packet-level
//! TCP on the same links (DESIGN.md §3 item 16).
//!
//! A fluid flow is not a packet train: it is a *rate on a path*. The
//! only events it generates are flow start, flow finish, and
//! bottleneck-rate recomputation — so a background flow that would cost
//! `2·hops` packet events per MSS round-trip costs a handful of events
//! over its whole lifetime. Rates are shared max-min fairly per
//! bottleneck link by an integer water-filling solver; all schedule-
//! ordered arithmetic is fixed-point (`u64` bytes/s rates, `u128`
//! byte-nanosecond residuals), so results are bit-identical at any
//! thread count and simlint's float-order rule (D4) stays clean.
//!
//! **Placement.** All solver state lives at one coordinator LP
//! ([`FLUID_COORDINATOR`], node 0): max-min fairness is a global fixed
//! point over every flow sharing a bottleneck, which cannot be computed
//! under the engine's LP-locality contract unless one LP owns it.
//! Every fluid control event targets (or originates at) the
//! coordinator, making sequential ↔ parallel bit-identity structural
//! rather than incidental.
//!
//! **Coupling.** The two fidelities interact in both directions:
//!
//! * fluid → packet: after each solve the coordinator reports the
//!   aggregate fluid rate per (link, direction) to the LP that
//!   serializes packets onto it ([`NetEvent::FluidCapUpdate`]). The
//!   packet path subtracts that rate from the line rate and charges the
//!   fluid share against the drop-tail buffer (see `transmit`).
//! * packet → fluid: once subscribed (first cap update seen), the
//!   transmitting LP estimates its packet load per link direction over
//!   [`FLUID_EST_WINDOW`] virtual-time windows and reports level
//!   changes back ([`NetEvent::FluidPacketLoad`]); the solver shares
//!   only the capacity packets leave behind.
//!
//! Both directions keep a `1/16` floor of the line rate for the other
//! fidelity so neither can starve the other into silence (a starved
//! side would stop generating the very events that feed the estimate).
//!
//! **Event economy.** Stored rates are always exact; completion alarms
//! are lazy. A rate *decrease* does not reschedule the armed
//! [`NetEvent::FluidFinish`] — the alarm fires early, notices the flow
//! is unfinished, and re-arms at the exact current rate. A rate
//! *increase* reschedules only past 25 % hysteresis
//! (`REARM_NUM / REARM_DEN`), bounding completion lateness to
//! the same factor (quantified by the `fluid_fidelity` bench). Flows
//! whose fair share is zero park without any pending event and are
//! re-armed by the next solve that touches their links.
//!
//! **Lookahead.** All cross-LP fluid control events use one uniform
//! delay, [`FLUID_CONTROL_DELAY`], *independent of partition
//! placement* — a placement-dependent delay would change event times
//! between sequential and parallel runs. Parallel executions of worlds
//! carrying fluid traffic must therefore use a synchronization window
//! `≤ min(MLL, FLUID_CONTROL_DELAY)`; a larger window fails with the
//! engine's structured `LookaheadViolation`, never silent divergence.

use crate::packet::{FlowId, NetEvent};
use crate::profiling::ProfileData;
use crate::world::{validate_route, SharedNet};
use massf_engine::{Emitter, LpId, SimTime};
use massf_faults::FaultKind;
use massf_topology::{MassfError, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The LP that owns all fluid solver state. Node 0 exists in every
/// non-empty topology.
pub const FLUID_COORDINATOR: NodeId = NodeId(0);

/// Uniform virtual-time delay for every cross-LP fluid control event
/// (cap updates, packet-load reports, API-initiated starts). Uniformity
/// is a determinism requirement, not a tuning knob: the delay must not
/// depend on where partition boundaries fall. Parallel windows must be
/// `≤` this value when fluid traffic is present.
pub const FLUID_CONTROL_DELAY: SimTime = SimTime::from_ms(1);

/// Virtual-time window over which transmitting LPs estimate their
/// packet load per link direction for the packet → fluid feedback.
pub const FLUID_EST_WINDOW: SimTime = SimTime::from_ms(10);

/// Stored-demand sentinel (bytes/s): the flow takes whatever its
/// bottleneck grants. Requests spell this `peak_bps == 0`.
pub(crate) const FLUID_UNBOUNDED: u64 = u64::MAX;

/// Eager re-arm hysteresis: a rate increase reschedules the armed
/// finish alarm only when `new ≥ armed · REARM_NUM / REARM_DEN`.
const REARM_NUM: u64 = 5;
const REARM_DEN: u64 = 4;

/// Fraction of the line rate each fidelity keeps from the other:
/// packets never see less than `cap / PACKET_FLOOR_DIV`, and the fluid
/// solver never shares less than the same floor.
pub(crate) const PACKET_FLOOR_DIV: u64 = 16;

/// Aggregate-rate report quantum divisor: the coordinator re-reports a
/// link direction's fluid aggregate only when it moved by more than
/// `cap / CAP_REPORT_QUANTUM_DIV` (or crossed zero) since the last
/// report, keeping the fluid → packet event stream sparse.
const CAP_REPORT_QUANTUM_DIV: u64 = 64;

const NS_PER_SEC: u128 = 1_000_000_000;

/// Fluid-model profile counters, all owned by the coordinator LP (so
/// per-partition merges are plain sums with no double counting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FluidStats {
    /// Fluid flows admitted (routable at start time).
    pub started: u64,
    /// Flows that transferred all their bytes.
    pub completed: u64,
    /// Flows terminated by a fault with no surviving path.
    pub aborted: u64,
    /// Fault-driven path replacements on live flows.
    pub rerouted: u64,
    /// Start requests with no route (or `src == dst`).
    pub unroutable: u64,
    /// Per-flow rate assignments changed by the solver.
    pub rate_recomputes: u64,
    /// Link directions water-filled (closure size summed over solves).
    pub bottleneck_recomputes: u64,
    /// Finish alarms armed (initial arms plus lazy/eager re-arms).
    pub finish_arms: u64,
    /// Fluid → packet residual-capacity reports emitted.
    pub cap_updates: u64,
    /// Packet → fluid load reports received.
    pub packet_load_updates: u64,
}

impl FluidStats {
    /// Accumulate another partition's counters.
    pub fn merge(&mut self, other: &FluidStats) {
        self.started += other.started;
        self.completed += other.completed;
        self.aborted += other.aborted;
        self.rerouted += other.rerouted;
        self.unroutable += other.unroutable;
        self.rate_recomputes += other.rate_recomputes;
        self.bottleneck_recomputes += other.bottleneck_recomputes;
        self.finish_arms += other.finish_arms;
        self.cap_updates += other.cap_updates;
        self.packet_load_updates += other.packet_load_updates;
    }

    /// Flows currently in progress.
    pub fn active(&self) -> u64 {
        self.started
            .saturating_sub(self.completed)
            .saturating_sub(self.aborted)
    }
}

/// One live fluid flow in a [`FluidWorldState`]. All rates are bytes
/// per second; `remaining_bns` is byte-nanoseconds (`bytes · 10⁹`), the
/// fixed-point residual the solver decrements by `rate · Δt_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidFlowEntryState {
    /// Flow id (owned by the coordinator's counter space).
    pub flow: FlowId,
    /// Resolved forward path.
    pub path: Vec<NodeId>,
    /// Demand cap, bytes/s (`u64::MAX` = bottleneck-limited).
    pub demand_bps: u64,
    /// Current max-min rate, bytes/s.
    pub rate_bps: u64,
    /// Rate the pending finish alarm was computed at (0 = parked, no
    /// pending alarm).
    pub armed_rate_bps: u64,
    /// Residual transfer, byte-nanoseconds.
    pub remaining_bns: u128,
    /// Virtual time `remaining_bns` was last settled at.
    pub updated: SimTime,
    /// Finish-alarm epoch; stale alarms are ignored.
    pub epoch: u32,
}

/// Canonical image of all fluid state, independent of slab slot
/// recycling: flows sorted by id, coordinator-side per-slot arrays
/// (`packet_bps`, `reported_bps`) either empty (fluid never active) or
/// exactly `2·links` long. Link membership, aggregates, and the path
/// memo are derived and rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FluidWorldState {
    /// Live fluid flows, sorted by flow id.
    pub flows: Vec<FluidFlowEntryState>,
    /// Last packet-load report per (link, direction), bytes/s.
    pub packet_bps: Vec<u64>,
    /// Last aggregate fluid rate reported to the packet side per
    /// (link, direction); `u64::MAX` = never reported.
    pub reported_bps: Vec<u64>,
}

impl FluidWorldState {
    /// True when there is no fluid state to carry (the world never
    /// created a coordinator).
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty() && self.packet_bps.is_empty() && self.reported_bps.is_empty()
    }
}

/// Struct-of-arrays slab of live fluid flows (PR 6 layout pattern):
/// parallel arrays indexed by slot, freed slots recycled LIFO, and a
/// sorted id → slot index. Slot numbers never leak into events or
/// exports, so recycling order cannot affect results.
struct FluidSlab {
    flow: Vec<FlowId>,
    path: Vec<Arc<[NodeId]>>,
    /// Demand cap, bytes/s.
    demand: Vec<u64>,
    /// Current max-min rate, bytes/s.
    rate: Vec<u64>,
    /// Rate the pending finish alarm assumes (0 = parked).
    armed_rate: Vec<u64>,
    /// Residual transfer, byte-nanoseconds.
    remaining: Vec<u128>,
    /// Last settle time.
    updated: Vec<SimTime>,
    /// Finish-alarm epoch.
    epoch: Vec<u32>,
    free: Vec<u32>,
    by_id: BTreeMap<u64, u32>,
}

impl FluidSlab {
    fn new() -> Self {
        FluidSlab {
            flow: Vec::new(),
            path: Vec::new(),
            demand: Vec::new(),
            rate: Vec::new(),
            armed_rate: Vec::new(),
            remaining: Vec::new(),
            updated: Vec::new(),
            epoch: Vec::new(),
            free: Vec::new(),
            by_id: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.flow.len()
    }
}

/// All fluid solver state; lives inside the `NodeStates` of whichever
/// world owns [`FLUID_COORDINATOR`] and is only touched while handling
/// events at that LP.
pub(crate) struct FluidState {
    slab: FluidSlab,
    /// Line rate per (link, direction), bytes/s, derived once from the
    /// topology (`≥ 1` so integer shares never divide by zero).
    cap: Vec<u64>,
    /// Last packet-load report per slot, bytes/s.
    packet_bps: Vec<u64>,
    /// Aggregate fluid rate per slot (derived; rebuilt on restore).
    agg_bps: Vec<u64>,
    /// Last aggregate reported to the packet side; `u64::MAX` = never.
    reported_bps: Vec<u64>,
    /// Member flow slots per (link, direction).
    members: Vec<Vec<u32>>,
    /// Path memo for the coordinator (the world's sharded route cache
    /// is owned per *source* LP and must not be touched from here).
    /// Cleared on fault-epoch change.
    path_memo: BTreeMap<u64, Arc<[NodeId]>>,
    memo_epoch: u32,
    /// Generation-stamped scratch marks for closure computation (no
    /// per-solve set allocation at million-flow scale).
    link_mark: Vec<u32>,
    flow_mark: Vec<u32>,
    /// Closure-local index of each marked flow slot, valid for the
    /// current `mark_gen` only.
    flow_local: Vec<u32>,
    mark_gen: u32,
    scratch_links: Vec<u32>,
    scratch_flows: Vec<u32>,
}

/// Visit the (link, direction) slot of every hop of `path`; returns
/// `false` if a hop is not an existing link (hostile input — callers
/// validate first, this is the backstop).
fn for_path_slots(shared: &SharedNet, path: &[NodeId], mut f: impl FnMut(u32)) -> bool {
    for w in path.windows(2) {
        let Some(link) = shared.link_between(w[0], w[1]) else {
            return false;
        };
        let dir = u32::from(link.a != w[0]);
        f(link.id.0 * 2 + dir);
    }
    true
}

/// The node that serializes onto slot `s` (`s = link·2 + dir`; dir 0
/// sends from `link.a`).
pub(crate) fn slot_sender(shared: &SharedNet, s: u32) -> NodeId {
    let link = &shared.net.links[(s / 2) as usize];
    if s.is_multiple_of(2) {
        link.a
    } else {
        link.b
    }
}

impl FluidState {
    pub(crate) fn new(shared: &SharedNet) -> Self {
        let slots = shared.net.links.len() * 2;
        let mut cap = Vec::with_capacity(slots);
        for &c in &shared.cap_bytes_per_sec {
            cap.push(c);
            cap.push(c);
        }
        FluidState {
            slab: FluidSlab::new(),
            cap,
            packet_bps: vec![0; slots],
            agg_bps: vec![0; slots],
            reported_bps: vec![u64::MAX; slots],
            members: vec![Vec::new(); slots],
            path_memo: BTreeMap::new(),
            memo_epoch: 0,
            link_mark: vec![0; slots],
            flow_mark: Vec::new(),
            flow_local: Vec::new(),
            mark_gen: 0,
            scratch_links: Vec::new(),
            scratch_flows: Vec::new(),
        }
    }

    /// Capacity the solver may share on slot `s`: line rate minus the
    /// reported packet load, floored at `cap / PACKET_FLOOR_DIV` so
    /// saturating packet traffic cannot park fluid flows forever (a
    /// parked link with no packet events would never be re-reported).
    fn cap_avail(&self, s: usize) -> u64 {
        self.cap[s]
            .saturating_sub(self.packet_bps[s])
            .max(self.cap[s] / PACKET_FLOOR_DIV)
    }

    /// Resolve `src → dst` against the fault epoch at `now` through the
    /// coordinator's own memo (interns one `Arc` per pair per epoch).
    fn resolve(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Arc<[NodeId]>> {
        let epoch = match &shared.faults {
            Some(f) => f.epoch_at(now) as u32,
            None => 0,
        };
        if epoch != self.memo_epoch {
            self.path_memo.clear();
            self.memo_epoch = epoch;
        }
        let key = ((src.0 as u64) << 32) | dst.0 as u64;
        if let Some(p) = self.path_memo.get(&key) {
            return Some(p.clone());
        }
        let p = shared.resolver_at(now).route_arc(src, dst)?;
        self.path_memo.insert(key, p.clone());
        Some(p)
    }

    /// Advance `remaining` to `now` at the exact stored rate.
    fn settle(&mut self, f: usize, now: SimTime) {
        let dt = now.saturating_sub(self.slab.updated[f]).as_ns();
        if dt > 0 && self.slab.rate[f] > 0 {
            let done = (self.slab.rate[f] as u128) * (dt as u128);
            self.slab.remaining[f] = self.slab.remaining[f].saturating_sub(done);
        }
        self.slab.updated[f] = now;
    }

    /// Arm the finish alarm for flow slot `f` at its current rate.
    fn arm(
        &mut self,
        f: usize,
        now: SimTime,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let r = self.slab.rate[f];
        debug_assert!(r > 0, "arming a rate-0 flow would never fire");
        self.slab.epoch[f] = self.slab.epoch[f].wrapping_add(1);
        self.slab.armed_rate[f] = r;
        let d = self.slab.remaining[f].div_ceil(r as u128);
        let headroom = (u64::MAX - now.as_ns()) as u128;
        let delay = SimTime::from_ns(u64::try_from(d.min(headroom)).unwrap_or(u64::MAX));
        out.emit(
            delay,
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidFinish {
                flow: self.slab.flow[f],
                epoch: self.slab.epoch[f],
            },
        );
        profile.fluid.finish_arms += 1;
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(s) = self.slab.free.pop() {
            return s as usize;
        }
        self.slab.flow.push(FlowId(0));
        self.slab.path.push(Arc::from([]));
        self.slab.demand.push(0);
        self.slab.rate.push(0);
        self.slab.armed_rate.push(0);
        self.slab.remaining.push(0);
        self.slab.updated.push(SimTime::ZERO);
        self.slab.epoch.push(0);
        self.flow_mark.push(0);
        self.flow_local.push(0);
        self.slab.len() - 1
    }

    fn add_membership(&mut self, shared: &SharedNet, f: usize, seeds: &mut Vec<u32>) {
        let path = self.slab.path[f].clone();
        for_path_slots(shared, &path, |s| {
            self.members[s as usize].push(f as u32);
            seeds.push(s);
        });
    }

    fn remove_membership(&mut self, shared: &SharedNet, f: usize, seeds: &mut Vec<u32>) {
        let path = self.slab.path[f].clone();
        for_path_slots(shared, &path, |s| {
            self.members[s as usize].retain(|&m| m != f as u32);
            seeds.push(s);
        });
    }

    /// Handle [`NetEvent::FluidStart`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
        counter: &mut u32,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) -> Option<FlowId> {
        if src == dst {
            profile.fluid.unroutable += 1;
            return None;
        }
        let Some(path) = self.resolve(shared, now, src, dst) else {
            profile.fluid.unroutable += 1;
            return None;
        };
        let flow = FlowId::new(FLUID_COORDINATOR, *counter);
        *counter += 1;
        profile.fluid.started += 1;
        let f = self.alloc_slot();
        self.slab.flow[f] = flow;
        self.slab.path[f] = path;
        // peak_bps is bits/s at the API surface (matching link
        // bandwidth); stored demand is bytes/s, floored at 1 so a
        // bounded flow can always finish.
        self.slab.demand[f] = if peak_bps == 0 {
            FLUID_UNBOUNDED
        } else {
            (peak_bps / 8).max(1)
        };
        self.slab.rate[f] = 0;
        self.slab.armed_rate[f] = 0;
        self.slab.remaining[f] = bytes as u128 * NS_PER_SEC;
        self.slab.updated[f] = now;
        self.slab.epoch[f] = 0;
        self.slab.by_id.insert(flow.0, f as u32);
        let mut seeds = Vec::new();
        self.add_membership(shared, f, &mut seeds);
        self.solve(shared, now, &seeds, profile, out);
        Some(flow)
    }

    /// Handle [`NetEvent::FluidFinish`]; returns `(src, dst)` when the
    /// flow actually completed (for the app callback).
    pub(crate) fn finish(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        flow: FlowId,
        epoch: u32,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) -> Option<(NodeId, NodeId)> {
        let f = *self.slab.by_id.get(&flow.0)? as usize;
        if self.slab.epoch[f] != epoch {
            return None; // stale alarm: the flow was re-armed since
        }
        self.settle(f, now);
        if self.slab.remaining[f] == 0 {
            let path = self.slab.path[f].clone();
            let (src, dst) = (path[0], *path.last().unwrap_or(&path[0]));
            let mut seeds = Vec::new();
            self.remove_membership(shared, f, &mut seeds);
            self.slab.by_id.remove(&flow.0);
            self.slab.rate[f] = 0;
            self.slab.armed_rate[f] = 0;
            self.slab.path[f] = Arc::from([]);
            self.slab.free.push(f as u32);
            profile.fluid.completed += 1;
            self.solve(shared, now, &seeds, profile, out);
            Some((src, dst))
        } else if self.slab.rate[f] > 0 {
            // Early alarm (the rate dropped since arming, lazily):
            // re-arm at the exact current rate.
            self.arm(f, now, profile, out);
            None
        } else {
            // Fair share is currently zero: park. The next solve that
            // touches this flow's links re-arms it.
            self.slab.armed_rate[f] = 0;
            None
        }
    }

    /// Handle [`NetEvent::FluidPacketLoad`].
    pub(crate) fn packet_load(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        slot: u32,
        bps: u64,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let s = slot as usize;
        if s >= self.packet_bps.len() {
            return; // validated on snapshot load; backstop for in-run events
        }
        profile.fluid.packet_load_updates += 1;
        if self.packet_bps[s] == bps {
            return;
        }
        self.packet_bps[s] = bps;
        if self.members[s].is_empty() {
            return;
        }
        self.solve(shared, now, &[slot], profile, out);
    }

    /// Handle [`NetEvent::FluidFault`]: reroute or terminate every
    /// fluid flow traversing the failed element, then re-share. Returns
    /// the aborted flows as `(flow, src, dst)`, in flow-id order.
    pub(crate) fn fault(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        kind: FaultKind,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) -> Vec<(FlowId, NodeId, NodeId)> {
        // Affected flows: members of the failed element's link
        // directions. Restores are deliberately no-ops — live flows
        // keep their (still valid) detour paths, mirroring packet TCP,
        // which also fails over only on loss. Adjacency failures cannot
        // be localized to links, so every flow re-resolves.
        let mut touched: Vec<u32> = Vec::new();
        match kind {
            FaultKind::LinkDown(l) => {
                touched.push(l.0 * 2);
                touched.push(l.0 * 2 + 1);
            }
            FaultKind::RouterCrash(n) => {
                for &l in shared.incident_links(n) {
                    touched.push(l * 2);
                    touched.push(l * 2 + 1);
                }
            }
            FaultKind::AsAdjacencyFail { .. } => {}
            FaultKind::LinkUp(_)
            | FaultKind::RouterRecover(_)
            | FaultKind::AsAdjacencyRestore { .. } => return Vec::new(),
        }
        let mut affected: Vec<(u64, u32)> = match kind {
            FaultKind::AsAdjacencyFail { .. } => self
                .slab
                .by_id
                .iter()
                .map(|(&id, &slot)| (id, slot))
                .collect(),
            _ => {
                let mut v: Vec<(u64, u32)> = Vec::new();
                for &s in &touched {
                    if let Some(m) = self.members.get(s as usize) {
                        v.extend(m.iter().map(|&f| (self.slab.flow[f as usize].0, f)));
                    }
                }
                v.sort_unstable();
                v.dedup();
                v
            }
        };
        affected.sort_unstable();
        let mut aborted = Vec::new();
        let mut seeds: Vec<u32> = touched;
        for &(_, fslot) in &affected {
            let f = fslot as usize;
            self.settle(f, now);
            let old = self.slab.path[f].clone();
            let (src, dst) = (old[0], *old.last().unwrap_or(&old[0]));
            match self.resolve(shared, now, src, dst) {
                Some(new) if new == old => {}
                Some(new) => {
                    self.remove_membership(shared, f, &mut seeds);
                    self.slab.path[f] = new;
                    self.add_membership(shared, f, &mut seeds);
                    profile.fluid.rerouted += 1;
                }
                None => {
                    self.remove_membership(shared, f, &mut seeds);
                    self.slab.by_id.remove(&self.slab.flow[f].0);
                    self.slab.rate[f] = 0;
                    self.slab.armed_rate[f] = 0;
                    self.slab.path[f] = Arc::from([]);
                    self.slab.free.push(fslot);
                    profile.fluid.aborted += 1;
                    aborted.push((self.slab.flow[f], src, dst));
                }
            }
        }
        if !seeds.is_empty() {
            self.solve(shared, now, &seeds, profile, out);
        }
        aborted
    }

    /// Recompute max-min fair rates over the closure of `seeds`:
    /// starting from the seed link directions, alternate
    /// link → member flows → their path links to a fixed point, settle
    /// every closure flow, then water-fill with a monotone integer
    /// level. Emission order is canonical (finish alarms in flow-id
    /// order, cap updates in slot order), so slab slot recycling can
    /// never reorder events.
    fn solve(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        seeds: &[u32],
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        // 1. Closure (generation-stamped marks; no per-solve sets).
        self.mark_gen = self.mark_gen.wrapping_add(1);
        if self.mark_gen == 0 {
            // Wrapped: stale marks could alias; reset and burn gen 0.
            self.link_mark.iter_mut().for_each(|m| *m = 0);
            self.flow_mark.iter_mut().for_each(|m| *m = 0);
            self.mark_gen = 1;
        }
        let gen = self.mark_gen;
        let mut links = std::mem::take(&mut self.scratch_links);
        let mut flows = std::mem::take(&mut self.scratch_flows);
        links.clear();
        flows.clear();
        for &s in seeds {
            if let Some(m) = self.link_mark.get_mut(s as usize) {
                if *m != gen {
                    *m = gen;
                    links.push(s);
                }
            }
        }
        let mut i = 0;
        while i < links.len() {
            let s = links[i] as usize;
            i += 1;
            let mut mi = 0;
            while mi < self.members[s].len() {
                let f = self.members[s][mi] as usize;
                mi += 1;
                if self.flow_mark[f] != gen {
                    self.flow_mark[f] = gen;
                    flows.push(f as u32);
                    let path = self.slab.path[f].clone();
                    for_path_slots(shared, &path, |slot| {
                        let m = &mut self.link_mark[slot as usize];
                        if *m != gen {
                            *m = gen;
                            links.push(slot);
                        }
                    });
                }
            }
        }
        links.sort_unstable();

        // 2. Canonical flow order + closure-local indices.
        let mut fl: Vec<(u64, u32)> = flows
            .iter()
            .map(|&f| (self.slab.flow[f as usize].0, f))
            .collect();
        fl.sort_unstable();
        for (li, &(_, f)) in fl.iter().enumerate() {
            self.flow_local[f as usize] = li as u32;
        }
        for &(_, f) in &fl {
            self.settle(f as usize, now);
        }

        // 3. Water-fill. `avail`/`unfixed` are indexed like `links`
        // (sorted, binary-searchable); demands ascend once, and each
        // round either fixes the globally smallest unfixed demand (it
        // is ≤ every fair share, so demand-limited) or saturates the
        // minimum-share link, fixing all its unfixed members at the
        // floor share. Every round fixes ≥ 1 flow.
        let lidx = |links: &[u32], s: u32| -> usize {
            links.partition_point(|&x| x < s) // s is always present
        };
        let mut avail: Vec<u64> = links.iter().map(|&s| self.cap_avail(s as usize)).collect();
        let mut unfixed_cnt: Vec<u64> = vec![0; links.len()];
        for &(_, f) in &fl {
            let path = self.slab.path[f as usize].clone();
            for_path_slots(shared, &path, |s| {
                unfixed_cnt[lidx(&links, s)] += 1;
            });
        }
        let mut fixed = vec![false; fl.len()];
        let mut newrate = vec![0u64; fl.len()];
        let mut by_demand: Vec<(u64, u32)> = fl
            .iter()
            .enumerate()
            .map(|(li, &(_, f))| (self.slab.demand[f as usize], li as u32))
            .collect();
        by_demand.sort_unstable();
        let mut dp = 0usize;
        let mut left = fl.len();
        while left > 0 {
            let mut min_share = u64::MAX;
            let mut min_link = usize::MAX;
            for (li, &cnt) in unfixed_cnt.iter().enumerate() {
                if let Some(share) = avail[li].checked_div(cnt) {
                    if share < min_share {
                        min_share = share;
                        min_link = li;
                    }
                }
            }
            debug_assert!(min_link != usize::MAX, "every flow traverses ≥ 1 link");
            while dp < by_demand.len() && fixed[by_demand[dp].1 as usize] {
                dp += 1;
            }
            let fix = |fi: usize,
                       r: u64,
                       fixed: &mut [bool],
                       newrate: &mut [u64],
                       avail: &mut [u64],
                       unfixed_cnt: &mut [u64],
                       left: &mut usize| {
                fixed[fi] = true;
                newrate[fi] = r;
                *left -= 1;
                let f = fl[fi].1 as usize;
                let path = self.slab.path[f].clone();
                for_path_slots(shared, &path, |s| {
                    let li = lidx(&links, s);
                    avail[li] = avail[li].saturating_sub(r);
                    unfixed_cnt[li] = unfixed_cnt[li].saturating_sub(1);
                });
            };
            if dp < by_demand.len() && by_demand[dp].0 <= min_share {
                let fi = by_demand[dp].1 as usize;
                let d = by_demand[dp].0;
                fix(
                    fi,
                    d,
                    &mut fixed,
                    &mut newrate,
                    &mut avail,
                    &mut unfixed_cnt,
                    &mut left,
                );
            } else {
                let s = links[min_link] as usize;
                let mut mi = 0;
                while mi < self.members[s].len() {
                    let f = self.members[s][mi] as usize;
                    mi += 1;
                    if self.flow_mark[f] == gen {
                        let fi = self.flow_local[f] as usize;
                        if !fixed[fi] {
                            fix(
                                fi,
                                min_share,
                                &mut fixed,
                                &mut newrate,
                                &mut avail,
                                &mut unfixed_cnt,
                                &mut left,
                            );
                        }
                    }
                }
            }
        }

        // 4. Apply rates and (re-)arm finish alarms, flow-id order.
        for (fi, &(_, f)) in fl.iter().enumerate() {
            let f = f as usize;
            let r = newrate[fi];
            if r != self.slab.rate[f] {
                self.slab.rate[f] = r;
                profile.fluid.rate_recomputes += 1;
            }
            let armed = self.slab.armed_rate[f];
            // Lazy on decreases (the pending alarm fires early and
            // re-arms exactly); eager past 25 % hysteresis on
            // increases; always on wake-from-park.
            if r > 0 && (armed == 0 || r >= (armed / REARM_DEN).saturating_mul(REARM_NUM)) {
                self.arm(f, now, profile, out);
            }
        }

        // 5. Refresh aggregates; report level changes, slot order.
        profile.fluid.bottleneck_recomputes += links.len() as u64;
        for &s in &links {
            let s = s as usize;
            let mut agg = 0u64;
            for &f in &self.members[s] {
                agg = agg.saturating_add(self.slab.rate[f as usize]);
            }
            self.agg_bps[s] = agg;
            let reported = self.reported_bps[s];
            let quantum = (self.cap[s] / CAP_REPORT_QUANTUM_DIV).max(1);
            if reported == u64::MAX
                || agg.abs_diff(reported) >= quantum
                || (agg == 0) != (reported == 0)
            {
                self.reported_bps[s] = agg;
                profile.fluid.cap_updates += 1;
                out.emit(
                    FLUID_CONTROL_DELAY,
                    // simlint: allow(cast-lossy) -- slot count bounded by 2·links, far below u32::MAX
                    LpId(slot_sender(shared, s as u32).0),
                    NetEvent::FluidCapUpdate {
                        slot: s as u32,
                        fluid_bps: agg,
                    },
                );
            }
        }
        self.scratch_links = links;
        self.scratch_flows = flows;
    }

    /// Canonical export (see [`FluidWorldState`]).
    pub(crate) fn export(&self) -> FluidWorldState {
        let mut flows = Vec::with_capacity(self.slab.by_id.len());
        for (&id, &slot) in &self.slab.by_id {
            let f = slot as usize;
            flows.push(FluidFlowEntryState {
                flow: FlowId(id),
                path: self.slab.path[f].to_vec(),
                demand_bps: self.slab.demand[f],
                rate_bps: self.slab.rate[f],
                armed_rate_bps: self.slab.armed_rate[f],
                remaining_bns: self.slab.remaining[f],
                updated: self.slab.updated[f],
                epoch: self.slab.epoch[f],
            });
        }
        FluidWorldState {
            flows,
            packet_bps: self.packet_bps.clone(),
            reported_bps: self.reported_bps.clone(),
        }
    }

    /// Rebuild from a canonical state, validated as hostile input.
    /// Slots are assigned in sorted flow-id order, so restore → export
    /// is byte-identical regardless of the original world's recycling
    /// history. `issued` is the coordinator's flow counter.
    pub(crate) fn restore(
        shared: &SharedNet,
        st: &FluidWorldState,
        issued: u32,
    ) -> Result<FluidState, MassfError> {
        let bad = |reason: String| MassfError::SnapshotCorrupt {
            section: "fluid".into(),
            reason,
        };
        let slots = shared.net.links.len() * 2;
        let mut fs = FluidState::new(shared);
        for (name, arr) in [
            ("packet_bps", &st.packet_bps),
            ("reported_bps", &st.reported_bps),
        ] {
            if !arr.is_empty() && arr.len() != slots {
                return Err(bad(format!(
                    "fluid {name} covers {} slots, network has {slots}",
                    arr.len()
                )));
            }
        }
        if !st.packet_bps.is_empty() {
            fs.packet_bps = st.packet_bps.clone();
        }
        if !st.reported_bps.is_empty() {
            fs.reported_bps = st.reported_bps.clone();
        }
        let mut prev: Option<u64> = None;
        for e in &st.flows {
            if prev.is_some_and(|p| e.flow.0 <= p) {
                return Err(bad("fluid flows are not strictly sorted by id".into()));
            }
            prev = Some(e.flow.0);
            if e.flow.source() != FLUID_COORDINATOR {
                return Err(bad(format!(
                    "fluid flow {:#x} not in the coordinator's counter space",
                    e.flow.0
                )));
            }
            let counter = (e.flow.0 & 0xFFFF_FFFF) as u32;
            if counter >= issued {
                return Err(bad(format!(
                    "fluid flow counter {counter} not yet issued by the coordinator"
                )));
            }
            validate_route(shared, &e.path, "fluid")?;
            let f = fs.alloc_slot();
            fs.slab.flow[f] = e.flow;
            fs.slab.path[f] = Arc::from(e.path.as_slice());
            fs.slab.demand[f] = e.demand_bps;
            fs.slab.rate[f] = e.rate_bps;
            fs.slab.armed_rate[f] = e.armed_rate_bps;
            fs.slab.remaining[f] = e.remaining_bns;
            fs.slab.updated[f] = e.updated;
            fs.slab.epoch[f] = e.epoch;
            fs.slab.by_id.insert(e.flow.0, f as u32);
            let mut seeds = Vec::new();
            fs.add_membership(shared, f, &mut seeds);
        }
        // Aggregates are derived: rebuild without emitting reports.
        for s in 0..slots {
            let mut agg = 0u64;
            for &f in &fs.members[s] {
                agg = agg.saturating_add(fs.slab.rate[f as usize]);
            }
            fs.agg_bps[s] = agg;
        }
        Ok(fs)
    }

    /// Max-min fairness invariants over the live state, for tests:
    /// no link direction oversubscribed beyond its shareable capacity,
    /// no flow above demand, and every below-demand flow bottlenecked
    /// at some link that cannot grant each member one more byte/s.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for (s, members) in self.members.iter().enumerate() {
            let mut agg = 0u64;
            for &f in members {
                agg = agg.saturating_add(self.slab.rate[f as usize]);
            }
            if agg != self.agg_bps[s] {
                return Err(format!(
                    "slot {s}: aggregate {} != cached {}",
                    agg, self.agg_bps[s]
                ));
            }
            if agg > self.cap_avail(s) {
                return Err(format!(
                    "slot {s} oversubscribed: {agg} > {}",
                    self.cap_avail(s)
                ));
            }
        }
        for (&id, &slot) in &self.slab.by_id {
            let f = slot as usize;
            let (rate, demand) = (self.slab.rate[f], self.slab.demand[f]);
            if rate > demand {
                return Err(format!("flow {id:#x}: rate {rate} above demand {demand}"));
            }
            if rate < demand {
                let mut bottlenecked = false;
                for (s, members) in self.members.iter().enumerate() {
                    if members.contains(&(f as u32))
                        && self.cap_avail(s).saturating_sub(self.agg_bps[s]) < members.len() as u64
                    {
                        bottlenecked = true;
                        break;
                    }
                }
                if !bottlenecked {
                    return Err(format!(
                        "flow {id:#x}: below demand ({rate} < {demand}) with no saturated link"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of live fluid flows.
    pub(crate) fn live_flows(&self) -> usize {
        self.slab.by_id.len()
    }
}

/// Per-world, per-(link, direction) coupling state on the *packet*
/// side: the fluid rate last reported by the coordinator, and the
/// packet-load estimator windows. Lazily allocated on the first
/// [`NetEvent::FluidCapUpdate`] a world receives, so packet-only runs
/// carry no extra state (and export empty arrays).
#[derive(Default)]
pub(crate) struct FluidCoupling {
    /// Fluid rate per slot, bytes/s; `u64::MAX` = slot not subscribed
    /// (no estimator, full line rate for packets).
    pub(crate) fluid_bps: Vec<u64>,
    /// Open estimator window start per slot; `SimTime::MAX` = closed.
    pub(crate) est_start: Vec<SimTime>,
    /// Bytes serialized in the open window.
    pub(crate) est_bytes: Vec<u64>,
    /// Last load level reported to the coordinator, bytes/s.
    pub(crate) est_reported: Vec<u64>,
}

impl FluidCoupling {
    fn ensure(&mut self, slots: usize) {
        if self.fluid_bps.is_empty() {
            self.fluid_bps = vec![u64::MAX; slots];
            self.est_start = vec![SimTime::MAX; slots];
            self.est_bytes = vec![0; slots];
            self.est_reported = vec![0; slots];
        }
    }

    /// Install a coordinator-reported fluid rate; first contact
    /// allocates the arrays and activates the estimator for that slot.
    pub(crate) fn subscribe(&mut self, slots: usize, slot: u32, fluid_bps: u64) {
        self.ensure(slots);
        if let Some(v) = self.fluid_bps.get_mut(slot as usize) {
            *v = fluid_bps;
        }
    }

    /// Account `bytes` serialized onto `slot` at `now`; when the
    /// estimator window rolls over, quantize the observed level and
    /// report a change to the coordinator. Integer throughout.
    pub(crate) fn observe(
        &mut self,
        cap_bytes: u64,
        slot: usize,
        bytes: u64,
        now: SimTime,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let start = self.est_start[slot];
        if start == SimTime::MAX {
            self.est_start[slot] = now;
            self.est_bytes[slot] = bytes;
            return;
        }
        let span = now.saturating_sub(start);
        if span < FLUID_EST_WINDOW {
            self.est_bytes[slot] += bytes;
            return;
        }
        // Window rolls: level over the *actual* virtual-time span, so
        // idle gaps decay the estimate naturally.
        let level = ((self.est_bytes[slot] as u128 * NS_PER_SEC) / span.as_ns().max(1) as u128)
            .min(u64::MAX as u128) as u64;
        let quantum = (cap_bytes / CAP_REPORT_QUANTUM_DIV).max(1);
        let level_q = level / quantum * quantum;
        if level_q != self.est_reported[slot] {
            self.est_reported[slot] = level_q;
            out.emit(
                FLUID_CONTROL_DELAY,
                LpId(FLUID_COORDINATOR.0),
                NetEvent::FluidPacketLoad {
                    // simlint: allow(cast-lossy) -- slot count bounded by 2·links, far below u32::MAX
                    slot: slot as u32,
                    bps: level_q,
                },
            );
        }
        self.est_start[slot] = now;
        self.est_bytes[slot] = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::segments_for;
    use crate::world::{events_per_roundtrip, AppLogic, NetWorld, NoApp, SimApi};
    use massf_engine::{run_sequential, ResumeState};
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{AsId, Network, NodeKind, Point};

    /// host A — r1 — r2 — B; the middle link is the bottleneck. With
    /// `bottleneck_bps = 8e6` the shareable capacity is exactly
    /// 1 000 000 bytes/s, which keeps expected fair shares integral.
    fn dumbbell(bottleneck_bps: f64) -> (Arc<SharedNet>, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
        let r1 = net.add_node(NodeKind::Router, Point::new(10.0, 0.0), AsId(0));
        let r2 = net.add_node(NodeKind::Router, Point::new(20.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Host, Point::new(30.0, 0.0), AsId(0));
        net.add_link(a, r1, 1e9, 0.1);
        net.add_link(r1, r2, bottleneck_bps, 1.0);
        net.add_link(r2, b, 1e9, 0.1);
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        (SharedNet::new(net, resolver), a, b)
    }

    fn fluid_start(
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
    ) -> (SimTime, LpId, NetEvent) {
        (
            SimTime::ZERO,
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidStart {
                src,
                dst,
                bytes,
                peak_bps,
            },
        )
    }

    fn run<A: AppLogic>(
        shared: Arc<SharedNet>,
        app: A,
        events: Vec<(SimTime, LpId, NetEvent)>,
        end: SimTime,
    ) -> (NetWorld<A>, massf_engine::ExecutionStats) {
        let n = shared.lp_count();
        let mut world = NetWorld::new(shared, app);
        let (stats, _) = run_sequential(&mut world, ResumeState::seeded(events, n), end, None)
            .expect("well-formed sequential run");
        (world, stats)
    }

    #[test]
    fn unbounded_flows_share_the_bottleneck_max_min() {
        let (shared, a, b) = dumbbell(8e6); // 1_000_000 B/s shareable
        let events = (0..3)
            .map(|_| fluid_start(a, b, 1_000_000_000_000, 0))
            .collect();
        let (world, _) = run(shared, NoApp, events, SimTime::from_ms(100));
        world
            .check_fluid_invariants()
            .expect("max-min invariants must hold");
        assert_eq!(world.fluid_live_flows(), 3);
        let st = world.export_state();
        assert_eq!(st.fluid.flows.len(), 3);
        for f in &st.fluid.flows {
            assert_eq!(f.rate_bps, 333_333, "equal max-min shares of 1 MB/s");
            assert_eq!(f.demand_bps, FLUID_UNBOUNDED);
        }
        assert_eq!(world.profile().fluid.started, 3);
        assert_eq!(world.profile().fluid.completed, 0);
    }

    #[test]
    fn capped_flow_frees_share_for_the_rest() {
        let (shared, a, b) = dumbbell(8e6);
        // 800 kbit/s peak = 100_000 B/s demand; the remaining
        // 900_000 B/s splits evenly between the two unbounded flows.
        let events = vec![
            fluid_start(a, b, 1_000_000_000_000, 800_000),
            fluid_start(a, b, 1_000_000_000_000, 0),
            fluid_start(a, b, 1_000_000_000_000, 0),
        ];
        let (world, _) = run(shared, NoApp, events, SimTime::from_ms(100));
        world
            .check_fluid_invariants()
            .expect("max-min invariants must hold");
        let st = world.export_state();
        // Flow ids are issued in seed order; export is id-sorted.
        let rates: Vec<u64> = st.fluid.flows.iter().map(|f| f.rate_bps).collect();
        assert_eq!(rates, vec![100_000, 450_000, 450_000]);
    }

    #[test]
    fn completion_fires_callback_with_few_events() {
        struct Sink(Vec<(NodeId, FlowId, NodeId)>);
        impl AppLogic for Sink {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
            fn on_fluid_complete(
                &mut self,
                src: NodeId,
                flow: FlowId,
                dst: NodeId,
                _: &mut SimApi<'_, '_>,
            ) {
                self.0.push((src, flow, dst));
            }
        }
        let (shared, a, b) = dumbbell(8e6);
        // 1 MB at 1 MB/s: finishes at exactly t = 1 s.
        let bytes = 1_000_000u64;
        let (world, stats) = run(
            shared,
            Sink(Vec::new()),
            vec![fluid_start(a, b, bytes, 0)],
            SimTime::from_secs(2),
        );
        assert_eq!(world.profile().fluid.completed, 1);
        assert_eq!(world.fluid_live_flows(), 0);
        assert_eq!(world.app().0.len(), 1);
        let (src, flow, dst) = world.app().0[0];
        assert_eq!((src, dst), (a, b));
        assert_eq!(flow.source(), FLUID_COORDINATOR);
        // Event economy: start + finish + a handful of cap reports,
        // versus 2 events per hop per MSS segment at packet level.
        assert!(stats.total_events < 20, "got {}", stats.total_events);
        let packet_equiv = segments_for(bytes) as u64 * events_per_roundtrip(3);
        assert!(
            packet_equiv >= 50 * stats.total_events,
            "reduction only {packet_equiv}/{}",
            stats.total_events
        );
    }

    #[test]
    fn src_eq_dst_counts_unroutable() {
        let (shared, a, _) = dumbbell(8e6);
        let (world, _) = run(
            shared,
            NoApp,
            vec![fluid_start(a, a, 1_000, 0)],
            SimTime::from_ms(10),
        );
        assert_eq!(world.profile().fluid.unroutable, 1);
        assert_eq!(world.profile().fluid.started, 0);
        assert_eq!(world.fluid_live_flows(), 0);
    }

    /// A mid-run export with live flows, as hostile-restore raw material.
    fn exported_mid_run() -> (Arc<SharedNet>, crate::world::WorldState) {
        let (shared, a, b) = dumbbell(8e6);
        let events = vec![
            fluid_start(a, b, 1_000_000_000, 0),
            fluid_start(a, b, 1_000_000_000, 0),
        ];
        let (world, _) = run(shared.clone(), NoApp, events, SimTime::from_ms(50));
        assert_eq!(world.fluid_live_flows(), 2);
        (shared, world.export_state())
    }

    #[test]
    fn restore_rejects_unsorted_flows() {
        let (shared, mut st) = exported_mid_run();
        st.fluid.flows.swap(0, 1);
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_foreign_counter_space() {
        let (shared, mut st) = exported_mid_run();
        st.fluid.flows[0].flow = FlowId::new(NodeId(1), 0);
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_unissued_flow_ids() {
        let (shared, mut st) = exported_mid_run();
        st.flow_counter[FLUID_COORDINATOR.index()] = 0;
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_non_adjacent_paths() {
        let (shared, mut st) = exported_mid_run();
        let path = st.fluid.flows[0].path.clone();
        st.fluid.flows[0].path = vec![path[0], *path.last().expect("path is non-empty")];
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_wrong_slot_array_length() {
        let (shared, mut st) = exported_mid_run();
        st.fluid.packet_bps = vec![0; 1];
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_export_is_idempotent_under_slot_recycling() {
        let (shared, a, b) = dumbbell(8e6);
        // Flow 0 finishes at t = 0.1 s and frees its slot; flows started
        // afterwards recycle it. The canonical export must not care.
        let mut events = vec![fluid_start(a, b, 100_000, 0)];
        for _ in 0..3 {
            events.push((
                SimTime::from_ms(200),
                LpId(FLUID_COORDINATOR.0),
                NetEvent::FluidStart {
                    src: a,
                    dst: b,
                    bytes: 1_000_000_000,
                    peak_bps: 0,
                },
            ));
        }
        let (world, _) = run(shared.clone(), NoApp, events, SimTime::from_ms(300));
        assert_eq!(world.profile().fluid.completed, 1);
        assert_eq!(world.fluid_live_flows(), 3);
        let st1 = world.export_state();
        let world2 = NetWorld::restore(shared, NoApp, &st1).expect("mid-run export must restore");
        world2
            .check_fluid_invariants()
            .expect("max-min invariants must hold");
        let st2 = world2.export_state();
        assert_eq!(st1.fluid, st2.fluid);
        assert_eq!(st1.flow_counter, st2.flow_counter);
        assert_eq!(st1.busy_until, st2.busy_until);
        assert_eq!(st1.fluid_seen_bps, st2.fluid_seen_bps);
        assert_eq!(st1.fluid_est_start, st2.fluid_est_start);
        assert_eq!(st1.fluid_est_bytes, st2.fluid_est_bytes);
        assert_eq!(st1.fluid_est_reported, st2.fluid_est_reported);
    }
}
