//! Property-based equivalence of cached and uncached route resolution:
//! over random topologies, random query sequences, random fault
//! scripts, and every cache-capacity regime (eviction-thrashing
//! capacity 1, small, and plenty), the deterministic route cache must
//! be a pure memoizer — same answers as the resolver it fronts,
//! query by query. The lazy shortest-path-tree layer underneath gets the
//! same treatment: answering `a → b` from the tree of `a` must give the
//! answer a cold resolver gives from the tree of `b`, in any query order
//! and from any number of threads.

use massf_core::prelude::{run_profiling, Scale};
use massf_engine::SimTime;
use massf_netsim::{FaultScript, FaultState};
use massf_routing::{
    CostMetric, FlatResolver, MultiAsResolver, PathResolver, RouteCache, RouteCacheStats,
};
use massf_topology::{
    generate_flat_network, generate_multi_as_network, FlatTopologyConfig, MultiAsTopologyConfig,
    Network, NodeId,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Capacity regimes: thrashing, small, comfortable.
fn capacity() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1usize, 2, 8, 128][i])
}

/// Resolve `s → d` through `cache` in front of `resolver` the way the
/// netsim world does: epoch 0, counters into `stats`.
fn cached_route(
    cache: &mut RouteCache,
    stats: &mut RouteCacheStats,
    resolver: &dyn PathResolver,
    s: NodeId,
    d: NodeId,
) -> Option<Vec<NodeId>> {
    cache
        .get_or_insert_with(stats, 0, s, d, || resolver.route_arc(s, d))
        .map(|p| p.to_vec())
}

/// Every OSPF link-cost metric.
fn metric() -> impl Strategy<Value = CostMetric> {
    (0usize..3).prop_map(|i| {
        [
            CostMetric::Latency,
            CostMetric::Hop,
            CostMetric::InverseBandwidth,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// One warm resolver answers random queries, each in both
    /// directions, so many answers come from the reversed walk of the
    /// source's tree; each must equal a cold resolver's, whose only
    /// tree is the destination's.
    #[test]
    fn tree_reuse_matches_cold_resolution(
        routers in 20usize..60,
        seed in 0u64..500,
        metric in metric(),
        queries in proptest::collection::vec((0usize..256, 0usize..256), 1..100),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 12,
            metro_count: 5,
            seed,
            ..FlatTopologyConfig::default()
        });
        let n = net.node_count();
        let warm = FlatResolver::new(&net, metric);
        for (i, j) in queries {
            let (s, d) = (net.nodes[i % n].id, net.nodes[j % n].id);
            for (x, y) in [(d, s), (s, d)] {
                let cold = FlatResolver::new(&net, metric);
                prop_assert_eq!(
                    warm.route(x, y),
                    cold.route(x, y),
                    "{:?} diverged for {:?}→{:?}", metric, x, y
                );
            }
        }
    }

    #[test]
    fn cached_matches_uncached_on_random_flat_topologies(
        routers in 30usize..80,
        seed in 0u64..500,
        cap in capacity(),
        queries in proptest::collection::vec((0usize..64, 0usize..64), 1..120),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 12,
            metro_count: 5,
            seed,
            ..FlatTopologyConfig::default()
        });
        let hosts = net.host_ids();
        let uncached = FlatResolver::new(&net, CostMetric::Latency);
        let inner = FlatResolver::new(&net, CostMetric::Latency);
        let mut cache = RouteCache::new(net.node_count(), cap);
        let mut stats = RouteCacheStats::default();
        for (i, j) in queries {
            let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
            prop_assert_eq!(
                uncached.route(s, d),
                cached_route(&mut cache, &mut stats, &inner, s, d),
                "cap {} diverged for {:?}→{:?}", cap, s, d
            );
        }
    }

    #[test]
    fn cached_matches_uncached_on_random_multi_as(
        as_count in 4usize..10,
        seed in 0u64..200,
        cap in capacity(),
        queries in proptest::collection::vec((0usize..64, 0usize..64), 1..80),
    ) {
        let cfg = MultiAsTopologyConfig {
            as_count,
            routers_per_as: 5,
            hosts: 20,
            seed,
            ..MultiAsTopologyConfig::default()
        };
        let m = generate_multi_as_network(&cfg);
        let hosts = m.network.host_ids();
        let uncached = MultiAsResolver::new(&m, CostMetric::Latency);
        let inner = MultiAsResolver::new(&m, CostMetric::Latency);
        let mut cache = RouteCache::new(m.network.node_count(), cap);
        let mut stats = RouteCacheStats::default();
        for (i, j) in queries {
            let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
            prop_assert_eq!(
                uncached.route(s, d),
                cached_route(&mut cache, &mut stats, &inner, s, d),
                "cap {} diverged for {:?}→{:?}", cap, s, d
            );
        }
    }

    /// Epoch-keyed caching across a random link-flap script: every
    /// `(epoch, src, dst)` answer must equal the epoch's own resolver,
    /// no matter how queries interleave across epochs or how small the
    /// cache is.
    #[test]
    fn cached_matches_uncached_across_fault_epochs(
        routers in 30usize..70,
        seed in 0u64..200,
        flaps in 1usize..5,
        cap in capacity(),
        queries in proptest::collection::vec((0usize..64, 0usize..64, 0usize..16), 1..100),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 12,
            metro_count: 5,
            seed,
            ..FlatTopologyConfig::default()
        });
        let hosts = net.host_ids();
        let script = FaultScript::random_link_flaps(
            &net,
            flaps,
            SimTime::from_secs(1),
            SimTime::from_secs(5),
            SimTime::from_secs(30),
            seed,
        ).expect("flap script over a generated network validates");
        let faults = FaultState::flat(&net, CostMetric::Latency, script)
            .expect("random_link_flaps scripts validate");
        let epochs = faults.epoch_count();
        let mut cache = RouteCache::new(net.node_count(), cap);
        let mut stats = RouteCacheStats::default();
        for (i, j, e) in queries {
            let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
            let e = e % epochs;
            let r = faults.resolver_for_epoch(e);
            let got = cache.get_or_insert_with(
                &mut stats,
                u32::try_from(e).expect("epoch count is tiny"),
                s,
                d,
                || r.route_arc(s, d),
            );
            prop_assert_eq!(
                r.route(s, d),
                got.map(|p| p.to_vec()),
                "cap {} epoch {} diverged for {:?}→{:?}", cap, e, s, d
            );
        }
        prop_assert_eq!(stats.hits + stats.misses > 0, true);
    }
}

/// Two threads resolve overlapping pairs — one forward in order, one
/// backward in reverse order — on one shared resolver, racing on tree
/// builds and on reuse; both must return the single-threaded paths.
#[test]
fn concurrent_resolution_matches_single_threaded() {
    let net = generate_flat_network(&FlatTopologyConfig {
        routers: 200,
        hosts: 60,
        metro_count: 8,
        seed: 3,
        ..FlatTopologyConfig::default()
    });
    let hosts = net.host_ids();
    let pairs: Vec<(NodeId, NodeId)> = (0..300)
        .map(|i| {
            (
                hosts[i * 7 % hosts.len()],
                hosts[(i * 13 + 5) % hosts.len()],
            )
        })
        .collect();
    let backward: Vec<(NodeId, NodeId)> = pairs.iter().rev().map(|&(s, d)| (d, s)).collect();
    let reference = FlatResolver::new(&net, CostMetric::Latency);
    for round in 0..4 {
        let shared = FlatResolver::new(&net, CostMetric::Latency);
        let resolve = |list: &[(NodeId, NodeId)]| -> Vec<Option<Vec<NodeId>>> {
            list.iter().map(|&(s, d)| shared.route(s, d)).collect()
        };
        let (fwd, bwd) = std::thread::scope(|scope| {
            let fwd = scope.spawn(|| resolve(&pairs));
            let bwd = scope.spawn(|| resolve(&backward));
            (
                fwd.join().expect("forward thread"),
                bwd.join().expect("backward thread"),
            )
        });
        for (list, got) in [(&pairs, fwd), (&backward, bwd)] {
            for (&(s, d), path) in list.iter().zip(got) {
                assert_eq!(path, reference.route(s, d), "round {round}: {s:?}→{d:?}");
            }
        }
    }
}

/// Records the destination anchor of every query — a host's attach
/// router, or the node itself — before forwarding it to a flat resolver.
struct AnchorRecorder {
    inner: Arc<FlatResolver>,
    anchor_of: Vec<NodeId>,
    anchors: Mutex<BTreeSet<NodeId>>,
}

impl AnchorRecorder {
    fn new(net: &Network, inner: Arc<FlatResolver>) -> Self {
        let anchor_of = net
            .nodes
            .iter()
            .map(|n| net.host_attachment(n.id).unwrap_or(n.id))
            .collect();
        AnchorRecorder {
            inner,
            anchor_of,
            anchors: Mutex::new(BTreeSet::new()),
        }
    }
}

impl PathResolver for AnchorRecorder {
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.anchors
            .lock()
            .expect("recorder lock")
            .insert(self.anchor_of[dst.index()]);
        self.inner.route(src, dst)
    }
}

/// The structural acceptance number of tree reuse: a sequential Tiny
/// single-AS profiling run builds fewer trees than the distinct
/// destination anchors it queries (one tree per anchor without reuse).
#[test]
fn profiling_run_builds_fewer_trees_than_destination_anchors() {
    let mut scenario = massf_integration::tiny_single_as(7);
    let flat = Arc::new(FlatResolver::new(&scenario.net, CostMetric::Latency));
    let recorder = Arc::new(AnchorRecorder::new(&scenario.net, Arc::clone(&flat)));
    scenario.resolver = Arc::clone(&recorder) as Arc<dyn PathResolver>;
    run_profiling(&scenario, Scale::Tiny.run_duration());
    let anchors = recorder.anchors.lock().expect("recorder lock").len();
    let builds = flat.spt_builds();
    assert!(
        builds > 0 && builds < anchors as u64,
        "{builds} trees built for {anchors} destination anchors"
    );
}
