//! Simulation assembly and execution front-end.
//!
//! [`NetSimBuilder`] ties a topology, a path resolver, initial traffic
//! (from [`crate::Agent`] scripts and workload timers) and application
//! logic together, and runs the result on any of the engine's executors.

use crate::agent::Agent;
use crate::fluid::FLUID_COORDINATOR;
use crate::packet::NetEvent;
use crate::profiling::ProfileData;
use crate::world::{AppLogic, NetWorld, SharedNet};
use massf_engine::{
    run_parallel, run_sequential, BarrierObserver, ExecutionStats, LpId, MassfError, ResumeState,
    SimTime,
};
use massf_faults::{FaultKind, FaultState};
use massf_routing::PathResolver;
use massf_topology::Network;
use massf_topology::NodeId;
use std::sync::Arc;

/// Results of one simulation run.
pub struct SimOutput<A> {
    /// Engine statistics (per-LP event counts; per-window per-partition
    /// counts for windowed runs).
    pub stats: ExecutionStats,
    /// Merged traffic profile.
    pub profile: ProfileData,
    /// Application logic instances (one for sequential runs, one per
    /// partition for parallel runs).
    pub apps: Vec<A>,
}

/// Builds and runs packet-level simulations.
pub struct NetSimBuilder {
    shared: Arc<SharedNet>,
    initial: Vec<(SimTime, LpId, NetEvent)>,
    max_retries: u32,
}

impl NetSimBuilder {
    /// A builder over `net` routed by `resolver`.
    pub fn new(net: Network, resolver: Arc<dyn PathResolver>) -> Self {
        NetSimBuilder {
            shared: SharedNet::new(net, resolver),
            initial: Vec::new(),
            max_retries: crate::tcp::MAX_RETRIES,
        }
    }

    /// A builder over `net` with fault injection: routing follows the
    /// fault timeline (see [`SharedNet::with_faults`]) and every scripted
    /// fault is additionally injected as a first-class
    /// [`NetEvent::Fault`] event, appended *after* all traffic events so
    /// event tags — and therefore the parallel execution order — stay
    /// deterministic regardless of when traffic was added.
    pub fn new_with_faults(net: Network, faults: Arc<FaultState>) -> Self {
        NetSimBuilder {
            shared: SharedNet::with_faults(net, faults),
            initial: Vec::new(),
            max_retries: crate::tcp::MAX_RETRIES,
        }
    }

    /// TCP retry budget for every flow in the worlds this builder runs:
    /// consecutive retransmission timeouts tolerated before a flow
    /// aborts. Defaults to [`crate::tcp::MAX_RETRIES`]. Lower values
    /// give up faster under long outages; higher values ride them out.
    pub fn max_retries(&mut self, retries: u32) -> &mut Self {
        self.max_retries = retries;
        self
    }

    /// The shared network handle (topology + routing + link constants).
    pub fn shared(&self) -> Arc<SharedNet> {
        self.shared.clone()
    }

    /// Append an agent's scripted traffic.
    pub fn add_agent(&mut self, agent: Agent) -> &mut Self {
        self.initial.extend(agent.into_initial_events());
        self
    }

    /// Append one raw initial event (workloads use this for their
    /// kick-off timers).
    pub fn add_initial(&mut self, at: SimTime, lp: LpId, event: NetEvent) -> &mut Self {
        self.initial.push((at, lp, event));
        self
    }

    /// Append many raw initial events.
    pub fn add_initial_events(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, LpId, NetEvent)>,
    ) -> &mut Self {
        self.initial.extend(events);
        self
    }

    /// Schedule one fluid background flow (see `crate::fluid`):
    /// `bytes` from `src` to `dst` starting at `at`, demand capped at
    /// `peak_bps` bits/s (`0` = bottleneck-limited). The event targets
    /// the fluid coordinator LP directly.
    pub fn add_fluid_flow(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
    ) -> &mut Self {
        self.initial.push((
            at,
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidStart {
                src,
                dst,
                bytes,
                peak_bps,
            },
        ));
        self
    }

    /// All initial events for a run: the accumulated traffic, then the
    /// fault script (if any) as `Fault` events in time-sorted order.
    /// Fault events target the LP of the faulted entity (a link's `a`
    /// endpoint, the crashed router) so the reconvergence work is
    /// attributed near the fault; adjacency events target LP 0.
    ///
    /// Public so checkpoint sessions can seed their own executors with
    /// exactly the events a builder-driven run would use.
    pub fn initial_events(&self) -> Vec<(SimTime, LpId, NetEvent)> {
        let mut events = self.initial.clone();
        if let Some(faults) = &self.shared.faults {
            for e in faults.script().sorted_events() {
                let lp = match e.kind {
                    FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                        LpId(self.shared.net.links[l.index()].a.0)
                    }
                    FaultKind::RouterCrash(n) | FaultKind::RouterRecover(n) => LpId(n.0),
                    FaultKind::AsAdjacencyFail { .. } | FaultKind::AsAdjacencyRestore { .. } => {
                        LpId(0)
                    }
                };
                events.push((e.at, lp, NetEvent::Fault { kind: e.kind }));
            }
        }
        // Mirror the fault script to the fluid coordinator so flows
        // traversing a failed element reroute or abort at fault time.
        // Appended only when the scenario injects fluid traffic (so
        // packet-only runs keep their exact event tags), and after the
        // `Fault` events so reconvergence precedes the fluid reaction
        // at equal timestamps.
        let any_fluid = self
            .initial
            .iter()
            .any(|(_, _, e)| matches!(e, NetEvent::FluidStart { .. }));
        if any_fluid {
            if let Some(faults) = &self.shared.faults {
                for e in faults.script().sorted_events() {
                    events.push((
                        e.at,
                        LpId(FLUID_COORDINATOR.0),
                        NetEvent::FluidFault { kind: e.kind },
                    ));
                }
            }
        }
        events
    }

    /// The frontier a fresh run of this builder starts from.
    fn seeded(&self) -> ResumeState<NetEvent> {
        ResumeState::seeded(self.initial_events(), self.shared.lp_count())
    }

    /// Run on the sequential reference executor.
    ///
    /// # Panics
    /// Panics if an initial event targets an LP outside the network.
    pub fn run_sequential<A: AppLogic>(&self, app: A, end: SimTime) -> SimOutput<A> {
        self.sequential(app, end, None)
    }

    /// Run sequentially while attributing events to `(window, partition)`
    /// cells — the trace-driven mode behind the cluster performance
    /// model (DESIGN.md substitution #1).
    ///
    /// # Panics
    /// Panics on an inconsistent layout (zero window, zero partitions,
    /// an assignment not covering every node, or an entry at or above
    /// `partitions`) or an initial event outside the network.
    pub fn run_sequential_windowed<A: AppLogic>(
        &self,
        app: A,
        end: SimTime,
        window: SimTime,
        assignment: &[u32],
        partitions: usize,
    ) -> SimOutput<A> {
        self.sequential(app, end, Some((window, assignment, partitions)))
    }

    fn sequential<A: AppLogic>(
        &self,
        app: A,
        end: SimTime,
        trace: Option<(SimTime, &[u32], usize)>,
    ) -> SimOutput<A> {
        let mut world = NetWorld::with_max_retries(self.shared.clone(), app, self.max_retries);
        let (stats, _) = run_sequential(&mut world, self.seeded(), end, trace)
            .expect("sequential run input is well-formed (see # Panics)");
        let (profile, app) = world.into_parts();
        SimOutput {
            stats,
            profile,
            apps: vec![app],
        }
    }

    /// Run on the real multi-threaded conservative executor, one thread
    /// per partition, with a [`BarrierObserver`] wrapped around every
    /// executor barrier (pass [`massf_engine::NoopBarrierObserver`] to
    /// measure nothing; a measuring observer's totals land in
    /// [`ExecutionStats::barrier_wait_us`]). `window` must not exceed
    /// the minimum latency of any cross-partition link (the achieved
    /// MLL).
    ///
    /// # Errors
    /// [`MassfError::LookaheadViolation`] for a window above the
    /// achieved MLL; [`MassfError::InvalidConfig`] for an inconsistent
    /// layout (zero window, zero partitions, an assignment not covering
    /// every node, or an entry at or above `partitions`).
    pub fn try_run_parallel_observed<A: AppLogic + Clone, O: BarrierObserver>(
        &self,
        app: A,
        end: SimTime,
        window: SimTime,
        assignment: &[u32],
        partitions: usize,
        observer: &O,
    ) -> Result<SimOutput<A>, MassfError> {
        let shards: Vec<NetWorld<A>> = (0..partitions)
            .map(|_| NetWorld::with_max_retries(self.shared.clone(), app.clone(), self.max_retries))
            .collect();
        let (shards, stats, _) =
            run_parallel(shards, assignment, self.seeded(), end, window, observer)?;
        let mut profile =
            ProfileData::new(self.shared.net.node_count(), self.shared.net.links.len());
        let mut apps = Vec::with_capacity(partitions);
        for shard in shards {
            let (p, a) = shard.into_parts();
            profile.merge(&p);
            apps.push(a);
        }
        Ok(SimOutput {
            stats,
            profile,
            apps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::NoApp;
    use massf_engine::NoopBarrierObserver;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::NodeId;
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn builder_with_traffic() -> (NetSimBuilder, Vec<NodeId>) {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts = net.host_ids();
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let mut b = NetSimBuilder::new(net, resolver);
        let mut agent = Agent::new();
        for i in 0..10 {
            agent.inject_tcp(
                SimTime::from_ms(i as u64),
                hosts[i],
                hosts[hosts.len() - 1 - i],
                20_000,
            );
        }
        b.add_agent(agent);
        (b, hosts)
    }

    #[test]
    fn sequential_run_completes_flows() {
        let (b, _) = builder_with_traffic();
        let out = b.run_sequential(NoApp, SimTime::from_secs(30));
        assert_eq!(out.profile.completed_flows, 10);
        assert!(out.stats.total_events > 100);
    }

    #[test]
    fn windowed_matches_plain_sequential() {
        let (b, _) = builder_with_traffic();
        let n = b.shared().lp_count();
        let plain = b.run_sequential(NoApp, SimTime::from_secs(10));
        let assignment: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let windowed = b.run_sequential_windowed(
            NoApp,
            SimTime::from_secs(10),
            SimTime::from_ms(1),
            &assignment,
            4,
        );
        assert_eq!(plain.stats.total_events, windowed.stats.total_events);
        assert_eq!(plain.profile, windowed.profile);
        assert_eq!(plain.stats.lp_events, windowed.stats.lp_events);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (b, _) = builder_with_traffic();
        let shared = b.shared();
        let n = shared.lp_count();
        let seq = b.run_sequential(NoApp, SimTime::from_secs(5));

        // Partition: 2 parts split by node id parity of router index —
        // any split works, but the window must respect the cut MLL.
        let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mut mll = f64::INFINITY;
        for link in &shared.net.links {
            if assignment[link.a.index()] != assignment[link.b.index()] {
                mll = mll.min(link.latency_ms);
            }
        }
        let window = SimTime::from_ms_f64(mll);
        assert!(window > SimTime::ZERO);

        let par = b
            .try_run_parallel_observed(
                NoApp,
                SimTime::from_secs(5),
                window,
                &assignment,
                2,
                &NoopBarrierObserver,
            )
            .expect("window = cut MLL cannot violate lookahead");
        assert_eq!(seq.stats.total_events, par.stats.total_events);
        assert_eq!(seq.stats.lp_events, par.stats.lp_events);
        assert_eq!(seq.profile, par.profile);
    }

    #[test]
    fn oversized_window_is_a_structured_error() {
        let (b, _) = builder_with_traffic();
        let shared = b.shared();
        let n = shared.lp_count();
        let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mut mll = f64::INFINITY;
        for link in &shared.net.links {
            if assignment[link.a.index()] != assignment[link.b.index()] {
                mll = mll.min(link.latency_ms);
            }
        }
        // Deliberately above the cut's MLL: conservative execution is
        // unsound and the run must abort with the structured error.
        let window = SimTime::from_ms_f64(mll * 64.0);
        let err = match b.try_run_parallel_observed(
            NoApp,
            SimTime::from_secs(5),
            window,
            &assignment,
            2,
            &NoopBarrierObserver,
        ) {
            Ok(_) => panic!("window far above the MLL must violate lookahead"),
            Err(e) => e,
        };
        match err {
            MassfError::LookaheadViolation {
                event_time_ns,
                window_ns,
                ..
            } => {
                assert_eq!(window_ns, window.as_ns());
                assert!(event_time_ns < SimTime::from_secs(5).as_ns());
            }
            other => panic!("expected LookaheadViolation, got {other}"),
        }
    }

    #[test]
    fn bad_parallel_layouts_are_invalid_config() {
        let (b, _) = builder_with_traffic();
        let n = b.shared().lp_count();
        let halves: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let ms = SimTime::from_ms;
        // (case, window, assignment, partitions)
        let cases: [(&str, SimTime, &[u32], usize); 4] = [
            ("zero window", SimTime::ZERO, &halves, 2),
            ("short assignment", ms(1), &halves[1..], 2),
            ("entry >= partitions", ms(1), &halves, 1),
            ("zero partitions", ms(1), &halves, 0),
        ];
        for (case, window, assignment, partitions) in cases {
            let out = b.try_run_parallel_observed(
                NoApp,
                ms(100),
                window,
                assignment,
                partitions,
                &NoopBarrierObserver,
            );
            assert!(
                matches!(out, Err(MassfError::InvalidConfig(_))),
                "{case}: got {:?}",
                out.map(|o| o.stats.total_events)
            );
        }
    }
}
