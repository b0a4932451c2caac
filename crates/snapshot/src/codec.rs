//! Wire encoding of the simulation state types.
//!
//! One function pair per type, hand-rolled over [`crate::wire`]. The
//! decoders perform *structural* validation only (bounds, known
//! discriminants, flag bytes strictly 0/1); *semantic* validation —
//! path adjacency, issued-flow counters, TCP invariants, frontier sort
//! order — happens where the state is installed
//! ([`massf_netsim::NetWorld::restore`], `validate_net_event`,
//! `ResumeState::validate`), so a hostile payload that parses cleanly
//! still cannot reach a panic path.
//!
//! Determinism: every encoder walks plain `Vec`s in index order — no
//! hash-map iteration anywhere (D1-clean), no clocks, no entropy.

use crate::rebalance::RebalanceSessionState;
use crate::wire::{ByteReader, ByteWriter};
use massf_engine::{EventRecord, LpId, RebalanceConfig, RebalanceCounters, ResumeState, SimTime};
use massf_netsim::{
    FaultKind, FlowEntryState, FlowId, FluidFlowEntryState, FluidStats, FluidWorldState, NetEvent,
    Packet, PacketKind, ProfileData, ReceiverEntryState, TcpSenderState, WorldState,
};
use massf_routing::{RouteCacheEntryState, RouteCacheShardState, RouteCacheStats};
use massf_topology::{LinkId, MassfError, NodeId};

fn put_time(w: &mut ByteWriter, t: SimTime) {
    w.put_u64(t.as_ns());
}

fn get_time(r: &mut ByteReader) -> Result<SimTime, MassfError> {
    Ok(SimTime::from_ns(r.get_u64()?))
}

fn put_bool(w: &mut ByteWriter, v: bool) {
    w.put_u8(u8::from(v));
}

fn get_bool(r: &mut ByteReader) -> Result<bool, MassfError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(r.corrupt(format!("flag byte {other} (want 0 or 1)"))),
    }
}

fn put_opt_time(w: &mut ByteWriter, v: Option<SimTime>) {
    match v {
        None => w.put_u8(0),
        Some(t) => {
            w.put_u8(1);
            put_time(w, t);
        }
    }
}

fn get_opt_time(r: &mut ByteReader) -> Result<Option<SimTime>, MassfError> {
    Ok(if get_bool(r)? {
        Some(get_time(r)?)
    } else {
        None
    })
}

fn put_nodes(w: &mut ByteWriter, nodes: &[NodeId]) {
    w.put_count(nodes.len());
    for n in nodes {
        w.put_u32(n.0);
    }
}

fn get_nodes(r: &mut ByteReader) -> Result<Vec<NodeId>, MassfError> {
    let n = r.get_count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(NodeId(r.get_u32()?));
    }
    Ok(out)
}

fn put_u64s(w: &mut ByteWriter, vs: &[u64]) {
    w.put_count(vs.len());
    for &v in vs {
        w.put_u64(v);
    }
}

fn get_u64s(r: &mut ByteReader) -> Result<Vec<u64>, MassfError> {
    let n = r.get_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_u64()?);
    }
    Ok(out)
}

fn put_u128(w: &mut ByteWriter, v: u128) {
    w.put_u64((v >> 64) as u64);
    w.put_u64(v as u64);
}

fn get_u128(r: &mut ByteReader) -> Result<u128, MassfError> {
    let hi = r.get_u64()? as u128;
    let lo = r.get_u64()? as u128;
    Ok((hi << 64) | lo)
}

fn put_u32s(w: &mut ByteWriter, vs: &[u32]) {
    w.put_count(vs.len());
    for &v in vs {
        w.put_u32(v);
    }
}

fn get_u32s(r: &mut ByteReader) -> Result<Vec<u32>, MassfError> {
    let n = r.get_count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_u32()?);
    }
    Ok(out)
}

pub fn put_fault_kind(w: &mut ByteWriter, kind: FaultKind) {
    match kind {
        FaultKind::LinkDown(l) => {
            w.put_u8(0);
            w.put_u32(l.0);
        }
        FaultKind::LinkUp(l) => {
            w.put_u8(1);
            w.put_u32(l.0);
        }
        FaultKind::RouterCrash(n) => {
            w.put_u8(2);
            w.put_u32(n.0);
        }
        FaultKind::RouterRecover(n) => {
            w.put_u8(3);
            w.put_u32(n.0);
        }
        FaultKind::AsAdjacencyFail { as_a, as_b } => {
            w.put_u8(4);
            w.put_u16(as_a);
            w.put_u16(as_b);
        }
        FaultKind::AsAdjacencyRestore { as_a, as_b } => {
            w.put_u8(5);
            w.put_u16(as_a);
            w.put_u16(as_b);
        }
    }
}

pub fn get_fault_kind(r: &mut ByteReader) -> Result<FaultKind, MassfError> {
    Ok(match r.get_u8()? {
        0 => FaultKind::LinkDown(LinkId(r.get_u32()?)),
        1 => FaultKind::LinkUp(LinkId(r.get_u32()?)),
        2 => FaultKind::RouterCrash(NodeId(r.get_u32()?)),
        3 => FaultKind::RouterRecover(NodeId(r.get_u32()?)),
        4 => FaultKind::AsAdjacencyFail {
            as_a: r.get_u16()?,
            as_b: r.get_u16()?,
        },
        5 => FaultKind::AsAdjacencyRestore {
            as_a: r.get_u16()?,
            as_b: r.get_u16()?,
        },
        other => return Err(r.corrupt(format!("unknown fault kind {other}"))),
    })
}

fn put_packet(w: &mut ByteWriter, p: &Packet) {
    w.put_u64(p.flow.0);
    w.put_u64(p.meta);
    put_nodes(w, &p.path);
    w.put_u32(p.dst.0);
    w.put_u32(p.seq);
    w.put_u32(p.size_bytes);
    w.put_u16(p.hop);
    w.put_u8(match p.kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
        PacketKind::Datagram => 2,
    });
}

fn get_packet(r: &mut ByteReader) -> Result<Packet, MassfError> {
    let flow = FlowId(r.get_u64()?);
    let meta = r.get_u64()?;
    let path = get_nodes(r)?;
    let dst = NodeId(r.get_u32()?);
    let seq = r.get_u32()?;
    let size_bytes = r.get_u32()?;
    let hop = r.get_u16()?;
    let kind = match r.get_u8()? {
        0 => PacketKind::Data,
        1 => PacketKind::Ack,
        2 => PacketKind::Datagram,
        other => return Err(r.corrupt(format!("unknown packet kind {other}"))),
    };
    Ok(Packet {
        flow,
        meta,
        path: path.into(),
        dst,
        seq,
        size_bytes,
        hop,
        kind,
    })
}

pub fn put_net_event(w: &mut ByteWriter, ev: &NetEvent) {
    match ev {
        NetEvent::Arrive(p) => {
            w.put_u8(0);
            put_packet(w, p);
        }
        NetEvent::RtoTimer { flow, epoch } => {
            w.put_u8(1);
            w.put_u64(flow.0);
            w.put_u32(*epoch);
        }
        NetEvent::AppTimer { token } => {
            w.put_u8(2);
            w.put_u64(*token);
        }
        NetEvent::StartFlow { dst, bytes } => {
            w.put_u8(3);
            w.put_u32(dst.0);
            w.put_u64(*bytes);
        }
        NetEvent::SendDatagram { dst, bytes, meta } => {
            w.put_u8(4);
            w.put_u32(dst.0);
            w.put_u32(*bytes);
            w.put_u64(*meta);
        }
        NetEvent::Fault { kind } => {
            w.put_u8(5);
            put_fault_kind(w, *kind);
        }
        NetEvent::FluidStart {
            src,
            dst,
            bytes,
            peak_bps,
        } => {
            w.put_u8(6);
            w.put_u32(src.0);
            w.put_u32(dst.0);
            w.put_u64(*bytes);
            w.put_u64(*peak_bps);
        }
        NetEvent::FluidFinish { flow, epoch } => {
            w.put_u8(7);
            w.put_u64(flow.0);
            w.put_u32(*epoch);
        }
        NetEvent::FluidFault { kind } => {
            w.put_u8(8);
            put_fault_kind(w, *kind);
        }
        NetEvent::FluidCapUpdate { slot, fluid_bps } => {
            w.put_u8(9);
            w.put_u32(*slot);
            w.put_u64(*fluid_bps);
        }
        NetEvent::FluidPacketLoad { slot, bps } => {
            w.put_u8(10);
            w.put_u32(*slot);
            w.put_u64(*bps);
        }
    }
}

pub fn get_net_event(r: &mut ByteReader) -> Result<NetEvent, MassfError> {
    Ok(match r.get_u8()? {
        0 => NetEvent::Arrive(get_packet(r)?),
        1 => NetEvent::RtoTimer {
            flow: FlowId(r.get_u64()?),
            epoch: r.get_u32()?,
        },
        2 => NetEvent::AppTimer {
            token: r.get_u64()?,
        },
        3 => NetEvent::StartFlow {
            dst: NodeId(r.get_u32()?),
            bytes: r.get_u64()?,
        },
        4 => NetEvent::SendDatagram {
            dst: NodeId(r.get_u32()?),
            bytes: r.get_u32()?,
            meta: r.get_u64()?,
        },
        5 => NetEvent::Fault {
            kind: get_fault_kind(r)?,
        },
        6 => NetEvent::FluidStart {
            src: NodeId(r.get_u32()?),
            dst: NodeId(r.get_u32()?),
            bytes: r.get_u64()?,
            peak_bps: r.get_u64()?,
        },
        7 => NetEvent::FluidFinish {
            flow: FlowId(r.get_u64()?),
            epoch: r.get_u32()?,
        },
        8 => NetEvent::FluidFault {
            kind: get_fault_kind(r)?,
        },
        9 => NetEvent::FluidCapUpdate {
            slot: r.get_u32()?,
            fluid_bps: r.get_u64()?,
        },
        10 => NetEvent::FluidPacketLoad {
            slot: r.get_u32()?,
            bps: r.get_u64()?,
        },
        other => return Err(r.corrupt(format!("unknown event kind {other}"))),
    })
}

pub fn put_event_record(w: &mut ByteWriter, ev: &EventRecord<NetEvent>) {
    put_time(w, ev.time);
    w.put_u32(ev.target.0);
    w.put_u64(ev.tag);
    put_net_event(w, &ev.payload);
}

pub fn get_event_record(r: &mut ByteReader) -> Result<EventRecord<NetEvent>, MassfError> {
    Ok(EventRecord {
        time: get_time(r)?,
        target: LpId(r.get_u32()?),
        tag: r.get_u64()?,
        payload: get_net_event(r)?,
    })
}

pub fn put_resume_state(w: &mut ByteWriter, s: &ResumeState<NetEvent>) {
    put_u32s(w, &s.counters);
    w.put_count(s.events.len());
    for ev in &s.events {
        put_event_record(w, ev);
    }
}

pub fn get_resume_state(r: &mut ByteReader) -> Result<ResumeState<NetEvent>, MassfError> {
    let counters = get_u32s(r)?;
    // An event record is at least 21 bytes (time + target + tag + kind).
    let n = r.get_count(21)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event_record(r)?);
    }
    Ok(ResumeState { events, counters })
}

fn put_sender(w: &mut ByteWriter, s: &TcpSenderState) {
    w.put_u32(s.total_segments);
    w.put_u32(s.acked);
    w.put_u32(s.next_seq);
    w.put_f64(s.cwnd);
    w.put_f64(s.ssthresh);
    w.put_u32(s.dup_acks);
    put_opt_time(w, s.srtt);
    put_time(w, s.rttvar);
    put_time(w, s.rto);
    w.put_u32(s.timer_epoch);
    match s.rtt_probe {
        None => w.put_u8(0),
        Some((seq, at)) => {
            w.put_u8(1);
            w.put_u32(seq);
            put_time(w, at);
        }
    }
    put_bool(w, s.retransmitted_low);
    w.put_u32(s.retries);
    w.put_u32(s.max_retries);
    put_bool(w, s.done);
    put_bool(w, s.aborted);
}

fn get_sender(r: &mut ByteReader) -> Result<TcpSenderState, MassfError> {
    Ok(TcpSenderState {
        total_segments: r.get_u32()?,
        acked: r.get_u32()?,
        next_seq: r.get_u32()?,
        cwnd: r.get_f64()?,
        ssthresh: r.get_f64()?,
        dup_acks: r.get_u32()?,
        srtt: get_opt_time(r)?,
        rttvar: get_time(r)?,
        rto: get_time(r)?,
        timer_epoch: r.get_u32()?,
        rtt_probe: if get_bool(r)? {
            Some((r.get_u32()?, get_time(r)?))
        } else {
            None
        },
        retransmitted_low: get_bool(r)?,
        retries: r.get_u32()?,
        max_retries: r.get_u32()?,
        done: get_bool(r)?,
        aborted: get_bool(r)?,
    })
}

fn put_flow_entry(w: &mut ByteWriter, f: &FlowEntryState) {
    w.put_u64(f.flow.0);
    put_sender(w, &f.sender);
    put_nodes(w, &f.path);
    w.put_u32(f.dst.0);
    w.put_u32(f.armed_epoch);
    put_bool(w, f.unroutable);
}

fn get_flow_entry(r: &mut ByteReader) -> Result<FlowEntryState, MassfError> {
    Ok(FlowEntryState {
        flow: FlowId(r.get_u64()?),
        sender: get_sender(r)?,
        path: get_nodes(r)?,
        dst: NodeId(r.get_u32()?),
        armed_epoch: r.get_u32()?,
        unroutable: get_bool(r)?,
    })
}

fn put_receiver_entry(w: &mut ByteWriter, e: &ReceiverEntryState) {
    w.put_u32(e.node.0);
    w.put_u64(e.flow.0);
    w.put_u32(e.rcv_next);
    w.put_u64(e.segments_seen);
}

fn get_receiver_entry(r: &mut ByteReader) -> Result<ReceiverEntryState, MassfError> {
    Ok(ReceiverEntryState {
        node: NodeId(r.get_u32()?),
        flow: FlowId(r.get_u64()?),
        rcv_next: r.get_u32()?,
        segments_seen: r.get_u64()?,
    })
}

pub fn put_route_cache(w: &mut ByteWriter, shards: &[RouteCacheShardState]) {
    w.put_count(shards.len());
    for shard in shards {
        put_shard(w, shard);
    }
}

fn put_shard(w: &mut ByteWriter, s: &RouteCacheShardState) {
    w.put_count(s.entries.len());
    for e in &s.entries {
        w.put_u64(e.key);
        w.put_u64(e.stamp);
        match &e.path {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                put_nodes(w, p);
            }
        }
    }
    w.put_count(s.queue.len());
    for &(stamp, key) in &s.queue {
        w.put_u64(stamp);
        w.put_u64(key);
    }
    w.put_u64(s.stamp);
}

pub fn get_route_cache(r: &mut ByteReader) -> Result<Vec<RouteCacheShardState>, MassfError> {
    // A shard is at least 24 bytes (two counts + stamp).
    let n = r.get_count(24)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(get_shard(r)?);
    }
    Ok(shards)
}

fn get_shard(r: &mut ByteReader) -> Result<RouteCacheShardState, MassfError> {
    let n = r.get_count(17)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u64()?;
        let stamp = r.get_u64()?;
        let path = if get_bool(r)? {
            Some(get_nodes(r)?)
        } else {
            None
        };
        entries.push(RouteCacheEntryState { key, stamp, path });
    }
    let qn = r.get_count(16)?;
    let mut queue = Vec::with_capacity(qn);
    for _ in 0..qn {
        let stamp = r.get_u64()?;
        let key = r.get_u64()?;
        queue.push((stamp, key));
    }
    let stamp = r.get_u64()?;
    Ok(RouteCacheShardState {
        entries,
        queue,
        stamp,
    })
}

fn put_fluid_flow_entry(w: &mut ByteWriter, f: &FluidFlowEntryState) {
    w.put_u64(f.flow.0);
    put_nodes(w, &f.path);
    w.put_u64(f.demand_bps);
    w.put_u64(f.rate_bps);
    w.put_u64(f.armed_rate_bps);
    put_u128(w, f.remaining_bns);
    put_time(w, f.updated);
    w.put_u32(f.epoch);
}

fn get_fluid_flow_entry(r: &mut ByteReader) -> Result<FluidFlowEntryState, MassfError> {
    Ok(FluidFlowEntryState {
        flow: FlowId(r.get_u64()?),
        path: get_nodes(r)?,
        demand_bps: r.get_u64()?,
        rate_bps: r.get_u64()?,
        armed_rate_bps: r.get_u64()?,
        remaining_bns: get_u128(r)?,
        updated: get_time(r)?,
        epoch: r.get_u32()?,
    })
}

fn put_fluid_world(w: &mut ByteWriter, s: &FluidWorldState) {
    w.put_count(s.flows.len());
    for f in &s.flows {
        put_fluid_flow_entry(w, f);
    }
    put_u64s(w, &s.packet_bps);
    put_u64s(w, &s.reported_bps);
}

fn get_fluid_world(r: &mut ByteReader) -> Result<FluidWorldState, MassfError> {
    // A fluid flow entry is at least 68 bytes (no path nodes).
    let n = r.get_count(68)?;
    let mut flows = Vec::with_capacity(n);
    for _ in 0..n {
        flows.push(get_fluid_flow_entry(r)?);
    }
    Ok(FluidWorldState {
        flows,
        packet_bps: get_u64s(r)?,
        reported_bps: get_u64s(r)?,
    })
}

fn put_fluid_stats(w: &mut ByteWriter, s: &FluidStats) {
    w.put_u64(s.started);
    w.put_u64(s.completed);
    w.put_u64(s.aborted);
    w.put_u64(s.rerouted);
    w.put_u64(s.unroutable);
    w.put_u64(s.rate_recomputes);
    w.put_u64(s.bottleneck_recomputes);
    w.put_u64(s.finish_arms);
    w.put_u64(s.cap_updates);
    w.put_u64(s.packet_load_updates);
}

fn get_fluid_stats(r: &mut ByteReader) -> Result<FluidStats, MassfError> {
    Ok(FluidStats {
        started: r.get_u64()?,
        completed: r.get_u64()?,
        aborted: r.get_u64()?,
        rerouted: r.get_u64()?,
        unroutable: r.get_u64()?,
        rate_recomputes: r.get_u64()?,
        bottleneck_recomputes: r.get_u64()?,
        finish_arms: r.get_u64()?,
        cap_updates: r.get_u64()?,
        packet_load_updates: r.get_u64()?,
    })
}

fn put_profile(w: &mut ByteWriter, p: &ProfileData) {
    put_u64s(w, &p.node_packets);
    put_u64s(w, &p.link_packets);
    w.put_u64(p.drops);
    w.put_u64(p.completed_flows);
    w.put_u64(p.completed_segments);
    w.put_u64(p.unroutable);
    w.put_u64(p.fault_drops);
    w.put_u64(p.aborted_flows);
    w.put_u64(p.fault_events);
    w.put_u64(p.route_cache.hits);
    w.put_u64(p.route_cache.misses);
    w.put_u64(p.route_cache.evictions);
    put_fluid_stats(w, &p.fluid);
}

fn get_profile(r: &mut ByteReader) -> Result<ProfileData, MassfError> {
    Ok(ProfileData {
        node_packets: get_u64s(r)?,
        link_packets: get_u64s(r)?,
        drops: r.get_u64()?,
        completed_flows: r.get_u64()?,
        completed_segments: r.get_u64()?,
        unroutable: r.get_u64()?,
        fault_drops: r.get_u64()?,
        aborted_flows: r.get_u64()?,
        fault_events: r.get_u64()?,
        route_cache: RouteCacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            evictions: r.get_u64()?,
        },
        fluid: get_fluid_stats(r)?,
    })
}

pub fn put_world_state(w: &mut ByteWriter, s: &WorldState) {
    put_u32s(w, &s.flow_counter);
    w.put_count(s.busy_until.len());
    for &t in &s.busy_until {
        put_time(w, t);
    }
    w.put_count(s.flows.len());
    for f in &s.flows {
        put_flow_entry(w, f);
    }
    w.put_count(s.receivers.len());
    for e in &s.receivers {
        put_receiver_entry(w, e);
    }
    put_route_cache(w, &s.route_cache);
    put_profile(w, &s.profile);
    w.put_u32(s.max_retries);
    put_fluid_world(w, &s.fluid);
    put_u64s(w, &s.fluid_seen_bps);
    w.put_count(s.fluid_est_start.len());
    for &t in &s.fluid_est_start {
        put_time(w, t);
    }
    put_u64s(w, &s.fluid_est_bytes);
    put_u64s(w, &s.fluid_est_reported);
}

pub fn get_world_state(r: &mut ByteReader) -> Result<WorldState, MassfError> {
    let flow_counter = get_u32s(r)?;
    let n = r.get_count(8)?;
    let mut busy_until = Vec::with_capacity(n);
    for _ in 0..n {
        busy_until.push(get_time(r)?);
    }
    // A flow entry is at least 96 bytes; receivers are exactly 24.
    let fn_ = r.get_count(96)?;
    let mut flows = Vec::with_capacity(fn_);
    for _ in 0..fn_ {
        flows.push(get_flow_entry(r)?);
    }
    let rn = r.get_count(24)?;
    let mut receivers = Vec::with_capacity(rn);
    for _ in 0..rn {
        receivers.push(get_receiver_entry(r)?);
    }
    let route_cache = get_route_cache(r)?;
    let profile = get_profile(r)?;
    let max_retries = r.get_u32()?;
    let fluid = get_fluid_world(r)?;
    let fluid_seen_bps = get_u64s(r)?;
    let en = r.get_count(8)?;
    let mut fluid_est_start = Vec::with_capacity(en);
    for _ in 0..en {
        fluid_est_start.push(get_time(r)?);
    }
    let fluid_est_bytes = get_u64s(r)?;
    let fluid_est_reported = get_u64s(r)?;
    Ok(WorldState {
        flow_counter,
        busy_until,
        flows,
        receivers,
        route_cache,
        profile,
        max_retries,
        fluid,
        fluid_seen_bps,
        fluid_est_start,
        fluid_est_bytes,
        fluid_est_reported,
    })
}

pub fn put_rebalance_state(w: &mut ByteWriter, s: &RebalanceSessionState) {
    let cfg = &s.cfg;
    put_time(w, cfg.epoch);
    w.put_u64(cfg.threshold_permille);
    w.put_count(cfg.max_moves);
    w.put_u32(s.partitions);
    put_u32s(w, &s.assignment);
    put_u64s(w, &s.epoch_loads);
    let counters = &s.counters;
    w.put_u64(counters.epochs);
    w.put_u64(counters.rebalances);
    w.put_u64(counters.migrations);
}

pub fn get_rebalance_state(r: &mut ByteReader) -> Result<RebalanceSessionState, MassfError> {
    let epoch = get_time(r)?;
    let threshold_permille = r.get_u64()?;
    // A scalar budget, not a collection length: get_count's
    // fits-in-remaining heuristic does not apply.
    let max_moves = usize::try_from(r.get_u64()?)
        .map_err(|_| r.corrupt("rebalance max_moves exceeds usize"))?;
    let partitions = r.get_u32()?;
    let assignment = get_u32s(r)?;
    let epoch_loads = get_u64s(r)?;
    let epochs = r.get_u64()?;
    let rebalances = r.get_u64()?;
    let migrations = r.get_u64()?;
    Ok(RebalanceSessionState {
        cfg: RebalanceConfig {
            epoch,
            threshold_permille,
            max_moves,
        },
        partitions,
        assignment,
        epoch_loads,
        counters: RebalanceCounters {
            epochs,
            rebalances,
            migrations,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> Packet {
        Packet {
            flow: FlowId::new(NodeId(3), 7),
            meta: 99,
            path: vec![NodeId(3), NodeId(1), NodeId(5)].into(),
            dst: NodeId(5),
            seq: 12,
            size_bytes: 1500,
            hop: 1,
            kind: PacketKind::Data,
        }
    }

    fn sample_events() -> Vec<NetEvent> {
        vec![
            NetEvent::Arrive(sample_packet()),
            NetEvent::RtoTimer {
                flow: FlowId::new(NodeId(3), 7),
                epoch: 4,
            },
            NetEvent::AppTimer { token: 17 },
            NetEvent::StartFlow {
                dst: NodeId(2),
                bytes: 500_000,
            },
            NetEvent::SendDatagram {
                dst: NodeId(4),
                bytes: 900,
                meta: 5,
            },
            NetEvent::Fault {
                kind: FaultKind::AsAdjacencyFail { as_a: 1, as_b: 2 },
            },
            NetEvent::Fault {
                kind: FaultKind::LinkDown(LinkId(6)),
            },
            NetEvent::FluidStart {
                src: NodeId(1),
                dst: NodeId(9),
                bytes: 10_000_000,
                peak_bps: 0,
            },
            NetEvent::FluidFinish {
                flow: FlowId::new(NodeId(0), 3),
                epoch: 2,
            },
            NetEvent::FluidFault {
                kind: FaultKind::RouterCrash(NodeId(4)),
            },
            NetEvent::FluidCapUpdate {
                slot: 13,
                fluid_bps: 125_000_000,
            },
            NetEvent::FluidPacketLoad {
                slot: 12,
                bps: 42_000,
            },
        ]
    }

    fn round_trip_event(ev: &NetEvent) -> NetEvent {
        let mut w = ByteWriter::new();
        put_net_event(&mut w, ev);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "test");
        let out = get_net_event(&mut r).expect("decode");
        r.finish().expect("consumed");
        out
    }

    #[test]
    fn net_events_round_trip() {
        for ev in sample_events() {
            let back = round_trip_event(&ev);
            // NetEvent is not PartialEq (it holds an Arc); compare debug
            // renderings, which print every field.
            assert_eq!(format!("{back:?}"), format!("{ev:?}"));
        }
    }

    #[test]
    fn resume_state_round_trips() {
        let events = sample_events()
            .into_iter()
            .enumerate()
            .map(|(i, payload)| EventRecord {
                time: SimTime::from_ns(1_000 * i as u64),
                target: LpId(i as u32),
                tag: massf_engine::external_tag(i as u32),
                payload,
            })
            .collect::<Vec<_>>();
        let state = ResumeState {
            events,
            counters: vec![5, 0, 9],
        };
        let mut w = ByteWriter::new();
        put_resume_state(&mut w, &state);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "engine");
        let back = get_resume_state(&mut r).expect("decode");
        r.finish().expect("consumed");
        assert_eq!(back.counters, state.counters);
        assert_eq!(format!("{:?}", back.events), format!("{:?}", state.events));
    }

    #[test]
    fn unknown_discriminants_are_rejected() {
        for bad in [vec![11u8], vec![200u8], vec![5u8, 77]] {
            let mut r = ByteReader::new(&bad, "engine");
            assert!(get_net_event(&mut r).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn fluid_world_state_round_trips() {
        let state = FluidWorldState {
            flows: vec![
                FluidFlowEntryState {
                    flow: FlowId::new(NodeId(0), 0),
                    path: vec![NodeId(2), NodeId(0), NodeId(5)],
                    demand_bps: u64::MAX,
                    rate_bps: 125_000,
                    armed_rate_bps: 125_000,
                    remaining_bns: 1_000_000_000_000_000_000_000u128,
                    updated: SimTime::from_ms(25),
                    epoch: 3,
                },
                FluidFlowEntryState {
                    flow: FlowId::new(NodeId(0), 7),
                    path: vec![NodeId(1), NodeId(4)],
                    demand_bps: 10_000,
                    rate_bps: 0,
                    armed_rate_bps: 0,
                    remaining_bns: 42,
                    updated: SimTime::ZERO,
                    epoch: 0,
                },
            ],
            packet_bps: vec![0, 5_000, 0, 0],
            reported_bps: vec![u64::MAX, 125_000, u64::MAX, 0],
        };
        let mut w = ByteWriter::new();
        put_fluid_world(&mut w, &state);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "fluid");
        let back = get_fluid_world(&mut r).expect("decode");
        r.finish().expect("consumed");
        assert_eq!(back, state);
    }

    #[test]
    fn u128_round_trips_both_halves() {
        for v in [0u128, 1, u64::MAX as u128, u128::MAX, 1u128 << 64] {
            let mut w = ByteWriter::new();
            put_u128(&mut w, v);
            let buf = w.into_inner();
            let mut r = ByteReader::new(&buf, "fluid");
            assert_eq!(get_u128(&mut r).expect("decode"), v);
            r.finish().expect("consumed");
        }
    }

    #[test]
    fn flag_bytes_must_be_binary() {
        let mut r = ByteReader::new(&[2], "world");
        assert!(get_bool(&mut r).is_err());
    }
}
