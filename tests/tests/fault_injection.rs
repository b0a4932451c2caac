//! End-to-end fault-injection acceptance tests (ISSUE 2):
//!
//! 1. A scripted mid-run link failure triggers OSPF reconvergence and
//!    subsequent traffic reroutes — the pre-fault and post-fault paths
//!    differ and no packets are lost after the reconvergence window.
//! 2. A failure under an in-flight flow drops packets mid-flight, and
//!    TCP retransmission fails over to the reconverged path.
//! 3. A crashed router with no alternative path makes flows abort with
//!    a structured reason within the retry budget instead of hanging.
//! 4. Every flat fault epoch routes exactly as a fresh resolver over the
//!    network with that epoch's dead links and dead routers' links
//!    removed (an independent reference for reconvergence).

use massf_engine::SimTime;
use massf_netsim::{
    AbortReason, AppLogic, FaultScript, FaultState, FlowId, NetEvent, NetSimBuilder, NoApp, SimApi,
};
use massf_routing::{CostMetric, FlatResolver, PathResolver};
use massf_topology::{
    generate_flat_network, AsId, FlatTopologyConfig, LinkId, Network, NodeId, NodeKind, Point,
};
use proptest::prelude::*;
use std::sync::Arc;

/// ha — r0 — r1 — hb with a detour r0 — r2 — r1. The primary r0–r1 hop
/// is cheap (1 ms); the detour legs cost 3 ms each, so OSPF only uses
/// them once the primary is gone.
fn diamond(bw: f64) -> (Network, [NodeId; 5]) {
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
    let r2 = net.add_node(NodeKind::Router, Point::new(1.5, 1.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
    net.add_link(ha, r0, bw, 0.1);
    net.add_link(r0, r1, bw, 1.0);
    net.add_link(r0, r2, bw, 3.0);
    net.add_link(r2, r1, bw, 3.0);
    net.add_link(r1, hb, bw, 0.1);
    (net, [ha, r0, r1, r2, hb])
}

fn link_between(net: &Network, a: NodeId, b: NodeId) -> LinkId {
    net.links
        .iter()
        .find(|l| (l.a, l.b) == (a, b) || (l.a, l.b) == (b, a))
        .expect("link exists")
        .id
}

#[test]
fn link_failure_reconverges_and_reroutes_without_loss() {
    // Fast links: a pre-fault flow finishes well before the fault, a
    // post-fault flow starts well after it.
    let (net, [ha, r0, r1, r2, hb]) = diamond(1e9);
    let primary = link_between(&net, r0, r1);
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(500), primary);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");

    // The routing view: pre-fault path differs from post-fault path.
    let pre = faults
        .resolver_at(SimTime::ZERO)
        .route(ha, hb)
        .expect("reachable before the fault");
    let post = faults
        .resolver_at(SimTime::from_ms(500))
        .route(ha, hb)
        .expect("reachable after reconvergence");
    assert_eq!(pre, vec![ha, r0, r1, hb]);
    assert_eq!(post, vec![ha, r0, r2, r1, hb]);
    assert_ne!(pre, post, "fault must change the routed path");

    // The packet view: one flow entirely before, one entirely after.
    let mut builder = NetSimBuilder::new_with_faults(net.clone(), faults.clone());
    builder.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 50_000,
        },
    );
    builder.add_initial(
        SimTime::from_secs(1),
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 50_000,
        },
    );
    let out = builder.run_sequential(NoApp, SimTime::from_secs(30));

    assert_eq!(out.profile.completed_flows, 2, "both flows must complete");
    assert_eq!(out.profile.aborted_flows, 0);
    assert_eq!(
        out.profile.fault_drops, 0,
        "zero lost packets outside the fault window: flow 1 precedes the \
         fault, flow 2 starts after reconvergence"
    );
    assert_eq!(out.profile.fault_events, 1);
    assert!(faults.reconvergence_count() >= 1, "OSPF must reconverge");
    assert!(
        out.profile.node_packets[r2.index()] > 0,
        "post-fault flow must traverse the detour router"
    );

    // Clean reference: the detour router is never touched.
    let mut clean = NetSimBuilder::new(
        net.clone(),
        Arc::new(massf_routing::FlatResolver::new(&net, CostMetric::Latency)),
    );
    clean.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 50_000,
        },
    );
    let clean_out = clean.run_sequential(NoApp, SimTime::from_secs(30));
    assert_eq!(clean_out.profile.node_packets[r2.index()], 0);
    assert_eq!(clean_out.profile.fault_events, 0);
}

#[test]
fn in_flight_flow_survives_failure_via_retransmission() {
    // Slow links so a 200 kB flow is still in flight when the primary
    // dies at 300 ms; in-flight packets are lost, the RTO re-resolves
    // onto the detour, and the flow still completes.
    let (net, [ha, r0, r1, _r2, hb]) = diamond(1e6);
    let primary = link_between(&net, r0, r1);
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(300), primary);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");

    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    builder.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 200_000,
        },
    );
    let out = builder.run_sequential(NoApp, SimTime::from_secs(120));

    assert!(
        out.profile.fault_drops > 0,
        "packets crossing the dying link must be lost mid-flight"
    );
    assert_eq!(
        out.profile.completed_flows, 1,
        "TCP must recover over the reconverged path"
    );
    assert_eq!(out.profile.aborted_flows, 0);
}

/// Captures abort callbacks for inspection.
#[derive(Clone, Default)]
struct AbortProbe {
    aborts: Vec<(NodeId, FlowId, AbortReason, SimTime)>,
}

impl AppLogic for AbortProbe {
    fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
    fn on_flow_aborted(
        &mut self,
        host: NodeId,
        flow: FlowId,
        reason: AbortReason,
        api: &mut SimApi<'_, '_>,
    ) {
        self.aborts.push((host, flow, reason, api.now()));
    }
}

#[test]
fn crashed_router_without_alternative_aborts_within_budget() {
    // ha — r — hb: the only router crashes under an in-flight flow.
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(2.0, 0.0), AsId(0));
    net.add_link(ha, r, 1e6, 1.0);
    net.add_link(r, hb, 1e6, 1.0);

    let mut script = FaultScript::new();
    script.router_crash(SimTime::from_ms(200), r);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    assert!(
        faults
            .resolver_at(SimTime::from_ms(200))
            .route(ha, hb)
            .is_none(),
        "no alternative path exists after the crash"
    );

    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    builder.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 500_000,
        },
    );
    let out = builder.run_sequential(AbortProbe::default(), SimTime::from_secs(90));

    assert_eq!(out.profile.completed_flows, 0);
    assert_eq!(out.profile.aborted_flows, 1, "the flow must give up");
    let probe = &out.apps[0];
    assert_eq!(probe.aborts.len(), 1);
    let (host, flow, reason, at) = probe.aborts[0];
    assert_eq!(host, ha);
    assert_eq!(flow.source(), ha);
    assert_eq!(
        reason,
        AbortReason::Unroutable,
        "failover found no route, so the abort is structured as unroutable"
    );
    assert!(
        at <= SimTime::from_secs(60),
        "abort must land within the retry budget (~47 s worst case), got {:?}",
        at
    );
    assert!(out.profile.fault_drops > 0, "retransmissions were dropped");
}

#[test]
fn fault_free_script_changes_nothing() {
    // Fault machinery with an empty script must reproduce the plain
    // resolver's run exactly (guards the fault-free hot path).
    let (net, [ha, _, _, _, hb]) = diamond(1e9);
    let faults = FaultState::flat(&net, CostMetric::Latency, FaultScript::new())
        .expect("empty script validates");
    let start = (
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 100_000,
        },
    );

    let mut plain = NetSimBuilder::new(
        net.clone(),
        Arc::new(massf_routing::FlatResolver::new(&net, CostMetric::Latency)),
    );
    plain.add_initial(start.0, start.1, start.2.clone());
    let a = plain.run_sequential(NoApp, SimTime::from_secs(10));

    let mut faulted = NetSimBuilder::new_with_faults(net, faults.clone());
    faulted.add_initial(start.0, start.1, start.2);
    let b = faulted.run_sequential(NoApp, SimTime::from_secs(10));

    assert_eq!(a.profile, b.profile);
    assert_eq!(a.stats.total_events, b.stats.total_events);
    assert_eq!(faults.reconvergence_count(), 0);
}

/// `net` with only the links `alive` keeps, added in their original
/// order over the same node ids.
fn without_links(net: &Network, alive: impl Fn(&massf_topology::Link) -> bool) -> Network {
    let mut out = Network::new();
    for n in &net.nodes {
        out.add_node(n.kind, n.position, n.as_id);
    }
    for l in net.links.iter().filter(|l| alive(l)) {
        out.add_link(l.a, l.b, l.bandwidth_bps, l.latency_ms);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random link-down/up and router crash/recover scripts: each
    /// epoch's resolver equals `FlatResolver::new` on a copy of the
    /// network without that epoch's dead links and dead routers' links.
    /// Link ids are renumbered in the copy; the SPT tie-break depends
    /// only on node indices, so paths cannot change because of that.
    #[test]
    fn flat_epochs_route_like_a_fresh_resolver_without_dead_links(
        routers in 6usize..24,
        seed in 0u64..500,
        // (is a router crash toggle, link or router pick); the i-th
        // toggle fires at (i + 1) × 10 ms.
        toggles in proptest::collection::vec((any::<bool>(), any::<usize>()), 1..12),
        pairs in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..24),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 10,
            metro_count: 3,
            seed,
            ..FlatTopologyConfig::default()
        });
        let router_ids = net.router_ids();
        let mut link_up = vec![true; net.links.len()];
        let mut node_up = vec![true; net.node_count()];
        let mut script = FaultScript::new();
        for (i, &(crash, pick)) in toggles.iter().enumerate() {
            let at = SimTime::from_ms(10 * (i as u64 + 1));
            if crash {
                let r = router_ids[pick % router_ids.len()];
                if node_up[r.index()] {
                    script.router_crash(at, r);
                } else {
                    script.router_recover(at, r);
                }
                node_up[r.index()] = !node_up[r.index()];
            } else {
                let l = net.links[pick % net.links.len()].id;
                if link_up[l.index()] {
                    script.link_down(at, l);
                } else {
                    script.link_up(at, l);
                }
                link_up[l.index()] = !link_up[l.index()];
            }
        }
        let faults = FaultState::flat(&net, CostMetric::Latency, script)
            .expect("toggle scripts validate");
        let hosts = net.host_ids();
        for e in 0..faults.epoch_count() {
            let state = faults.epoch_state(e);
            let dead_node = |n: NodeId| state.dead_nodes.contains(&n.0);
            let reference = FlatResolver::new(
                &without_links(&net, |l| {
                    !state.dead_links.contains(&l.id.0) && !dead_node(l.a) && !dead_node(l.b)
                }),
                CostMetric::Latency,
            );
            let resolver = faults.resolver_for_epoch(e);
            for &(i, j) in &pairs {
                let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
                prop_assert_eq!(
                    resolver.route(s, d),
                    reference.route(s, d),
                    "epoch {} diverged for {:?}→{:?}", e, s, d
                );
            }
        }
    }
}
