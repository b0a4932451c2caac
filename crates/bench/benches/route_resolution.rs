//! Route-resolution fast-path benchmarks (DESIGN.md §3 item 11): the
//! per-query cost of answering `route(src, dst)` with and without the
//! deterministic path cache, on the flat single-AS resolver, the
//! multi-AS resolver, and across fault epochs.
//!
//! The workload is *repeated pairs* — a small working set of `(src,
//! dst)` pairs queried round-robin, the pattern TCP retransmission
//! timers and long-running workload flows generate — plus a cold-cache
//! variant that rebuilds the cache every iteration to expose the
//! miss-path overhead. Results are recorded in BENCH_routing.json.
//!
//! Unlike the other benches this one has a hand-rolled `main` so that
//! `--smoke` runs a fast self-checking mode (used by scripts/check.sh):
//! cached and uncached resolution must return identical paths on every
//! topology variant, including under eviction pressure (capacity 1);
//! and, for every cost metric, a resolver
//! warmed with `b → a` must answer `a → b` (possibly from the tree of
//! `a`) exactly as a cold resolver does.

use criterion::{criterion_group, BenchmarkId, Criterion};
use massf_core::prelude::*;
use massf_netsim::{FaultScript, FaultState};
use massf_routing::{
    CostMetric, FlatResolver, MultiAsResolver, PathResolver, RouteCache, RouteCacheStats,
};
use std::sync::Arc;

/// Cached-bench working set: distinct enough to exercise the shards,
/// small enough that a warm cache holds it entirely.
const PAIRS: usize = 64;
/// Resolves per timed iteration.
const QUERIES: usize = 8_192;

fn flat_network(routers: usize) -> Network {
    generate_flat_network(&FlatTopologyConfig {
        routers,
        hosts: 200,
        metro_count: (routers / 12).max(8),
        ..FlatTopologyConfig::default()
    })
}

fn multi_as_config() -> MultiAsTopologyConfig {
    MultiAsTopologyConfig {
        as_count: 50,
        routers_per_as: 20,
        hosts: 300,
        ..MultiAsTopologyConfig::default()
    }
}

/// A deterministic repeated-pairs query set over the hosts.
fn pairs(hosts: &[NodeId], count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .filter_map(|i| {
            let a = hosts[(i * 7 + 3) % hosts.len()];
            let b = hosts[(i * 13 + 11) % hosts.len()];
            (a != b).then_some((a, b))
        })
        .collect()
}

/// Resolve `QUERIES` queries round-robin over `pairs`, summing hop
/// counts (the black-box result).
fn drive(resolver: &dyn PathResolver, pairs: &[(NodeId, NodeId)]) -> usize {
    let mut hops = 0usize;
    for i in 0..QUERIES {
        let (s, d) = pairs[i % pairs.len()];
        hops += resolver.route_arc(s, d).map(|p| p.len()).unwrap_or(0);
    }
    hops
}

/// Resolve `s → d` through `cache` in front of `resolver` the way the
/// netsim world does: epoch 0, counters into `stats`.
fn cached_route(
    cache: &mut RouteCache,
    stats: &mut RouteCacheStats,
    resolver: &dyn PathResolver,
    s: NodeId,
    d: NodeId,
) -> Option<Arc<[NodeId]>> {
    cache.get_or_insert_with(stats, 0, s, d, || resolver.route_arc(s, d))
}

/// [`drive`] through `cache` (see [`cached_route`]).
fn drive_cached(
    cache: &mut RouteCache,
    stats: &mut RouteCacheStats,
    resolver: &dyn PathResolver,
    pairs: &[(NodeId, NodeId)],
) -> usize {
    let mut hops = 0usize;
    for i in 0..QUERIES {
        let (s, d) = pairs[i % pairs.len()];
        hops += cached_route(cache, stats, resolver, s, d).map_or(0, |p| p.len());
    }
    hops
}

fn bench_flat_repeated_pairs(c: &mut Criterion) {
    let net = flat_network(2_000);
    let hosts = net.host_ids();
    let set = pairs(&hosts, PAIRS);
    let uncached = FlatResolver::new(&net, CostMetric::Latency);
    // Warm the SPT table once so both rows measure query cost, not
    // Dijkstra build cost.
    let _ = drive(&uncached, &set);
    let inner = FlatResolver::new(&net, CostMetric::Latency);
    let mut cache = RouteCache::new(net.node_count(), 128);
    let mut stats = RouteCacheStats::default();
    let _ = drive_cached(&mut cache, &mut stats, &inner, &set);

    let mut group = c.benchmark_group("flat_2k_repeated_pairs");
    group.sample_size(40);
    group.bench_function("uncached", |b| b.iter(|| drive(&uncached, &set)));
    group.bench_function("cached_warm", |b| {
        b.iter(|| drive_cached(&mut cache, &mut stats, &inner, &set))
    });
    group.bench_function("cached_cold", |b| {
        b.iter(|| {
            // Fresh cache (over the already-warmed resolver) every
            // iteration: all-miss first pass, then hits — isolates the
            // cache machinery's cold-start overhead from SPT builds.
            let mut cold = RouteCache::new(net.node_count(), 128);
            let mut cold_stats = RouteCacheStats::default();
            drive_cached(&mut cold, &mut cold_stats, &uncached, &set)
        })
    });
    group.finish();
    eprintln!(
        "flat cached stats: {stats:?} ({:.1}% hit rate)",
        stats.hit_rate() * 100.0
    );
}

fn bench_multi_as_repeated_pairs(c: &mut Criterion) {
    let cfg = multi_as_config();
    let m = generate_multi_as_network(&cfg);
    let hosts = m.network.host_ids();
    let set = pairs(&hosts, PAIRS);
    let uncached = MultiAsResolver::new(&m, CostMetric::Latency);
    let _ = drive(&uncached, &set);
    let inner = MultiAsResolver::new(&m, CostMetric::Latency);
    let mut cache = RouteCache::new(m.network.node_count(), 128);
    let mut stats = RouteCacheStats::default();
    let _ = drive_cached(&mut cache, &mut stats, &inner, &set);

    let mut group = c.benchmark_group("multi_as_50_repeated_pairs");
    group.sample_size(30);
    group.bench_function("uncached", |b| b.iter(|| drive(&uncached, &set)));
    group.bench_function("cached_warm", |b| {
        b.iter(|| drive_cached(&mut cache, &mut stats, &inner, &set))
    });
    group.finish();
}

/// Fault-epoch variant: resolve the same pair set in every epoch of a
/// link-flap script, uncached (per-epoch resolver directly) vs cached
/// with epoch-embedded keys.
fn bench_faulted_epochs(c: &mut Criterion) {
    let net = flat_network(500);
    let hosts = net.host_ids();
    let set = pairs(&hosts, PAIRS);
    let script = FaultScript::random_link_flaps(
        &net,
        8,
        SimTime::from_secs(2),
        SimTime::from_secs(10),
        SimTime::from_secs(50),
        42,
    )
    .expect("flap script over a connected network validates");
    let faults = FaultState::flat(&net, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let epochs = faults.epoch_count();

    let drive_epochs = |cache: &mut RouteCache, stats: &mut RouteCacheStats| -> usize {
        let mut hops = 0usize;
        for i in 0..QUERIES {
            let (s, d) = set[i % set.len()];
            let e = i % epochs;
            let r = faults.resolver_for_epoch(e);
            let p = cache.get_or_insert_with(stats, e as u32, s, d, || r.route_arc(s, d));
            hops += p.map(|p| p.len()).unwrap_or(0);
        }
        hops
    };

    let mut group = c.benchmark_group("faulted_epochs_repeated_pairs");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("uncached", epochs), |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for i in 0..QUERIES {
                let (s, d) = set[i % set.len()];
                let r = faults.resolver_for_epoch(i % epochs);
                hops += r.route_arc(s, d).map(|p| p.len()).unwrap_or(0);
            }
            hops
        })
    });
    group.bench_function(BenchmarkId::new("cached_warm", epochs), |b| {
        let mut cache = RouteCache::new(net.node_count(), 128);
        let mut stats = RouteCacheStats::default();
        let _ = drive_epochs(&mut cache, &mut stats);
        b.iter(|| drive_epochs(&mut cache, &mut stats))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_repeated_pairs,
    bench_multi_as_repeated_pairs,
    bench_faulted_epochs
);

/// Reverse-order pass: `warm` answers each pair's `d → s` before its
/// `s → d`, so the second query may be answered from the tree of `s`;
/// both answers must equal `cold()`'s, a fresh resolver whose only
/// tree is the destination's.
fn check_reverse_warm<R: PathResolver>(
    label: &str,
    warm: &dyn PathResolver,
    cold: impl Fn() -> R,
    pairs: &[(NodeId, NodeId)],
) {
    for &(s, d) in pairs {
        for (x, y) in [(d, s), (s, d)] {
            assert_eq!(
                warm.route(x, y),
                cold().route(x, y),
                "{label}: {x:?}→{y:?} diverged from a cold resolver"
            );
        }
    }
}

/// `--smoke`: fast self-checking correctness pass for scripts/check.sh.
/// Panics on any cached/uncached or warm/cold divergence.
fn run_smoke() {
    // Flat network, every capacity regime.
    let net = flat_network(120);
    let hosts = net.host_ids();
    let set = pairs(&hosts, 24);
    let uncached = FlatResolver::new(&net, CostMetric::Latency);
    for capacity in [1usize, 4, 128] {
        let inner = FlatResolver::new(&net, CostMetric::Latency);
        let mut cache = RouteCache::new(net.node_count(), capacity);
        let mut stats = RouteCacheStats::default();
        let mut cached =
            |s, d| cached_route(&mut cache, &mut stats, &inner, s, d).map(|p| p.to_vec());
        for pass in 0..3 {
            for &(s, d) in &set {
                let want = uncached.route(s, d);
                let got = cached(s, d);
                assert_eq!(
                    want, got,
                    "flat cap {capacity} pass {pass}: cached diverged for {s:?}→{d:?}"
                );
            }
        }
        if capacity == 1 {
            // Force eviction pressure: two destinations alternating in
            // one source shard; answers must stay correct throughout.
            let (s, d0) = set[0];
            let d1 = set.iter().map(|&(_, d)| d).find(|&d| d != d0 && d != s);
            let d1 = d1.expect("pair set has a second destination");
            for _ in 0..3 {
                for d in [d0, d1] {
                    assert_eq!(
                        uncached.route(s, d),
                        cached(s, d),
                        "capacity-1 thrash diverged for {s:?}→{d:?}"
                    );
                }
            }
            assert!(stats.evictions > 0, "capacity 1 must evict");
        } else {
            assert!(stats.hits > 0, "repeated pairs must hit at cap {capacity}");
        }
    }

    // Multi-AS network.
    let cfg = MultiAsTopologyConfig {
        as_count: 8,
        routers_per_as: 6,
        hosts: 60,
        ..MultiAsTopologyConfig::default()
    };
    let m = generate_multi_as_network(&cfg);
    let mhosts = m.network.host_ids();
    let mset = pairs(&mhosts, 24);
    let muncached = MultiAsResolver::new(&m, CostMetric::Latency);
    let minner = MultiAsResolver::new(&m, CostMetric::Latency);
    let mut mcache = RouteCache::new(m.network.node_count(), 16);
    let mut mstats = RouteCacheStats::default();
    for _ in 0..2 {
        for &(s, d) in &mset {
            assert_eq!(
                muncached.route(s, d),
                cached_route(&mut mcache, &mut mstats, &minner, s, d).map(|p| p.to_vec()),
                "multi-AS cached diverged for {s:?}→{d:?}"
            );
        }
    }
    assert!(mstats.hits > 0);

    // Fault epochs: cached answers must match the epoch's own resolver.
    let fnet = flat_network(120);
    let fhosts = fnet.host_ids();
    let fset = pairs(&fhosts, 24);
    let script = FaultScript::random_link_flaps(
        &fnet,
        4,
        SimTime::from_secs(2),
        SimTime::from_secs(5),
        SimTime::from_secs(25),
        7,
    )
    .expect("flap script validates");
    let faults = FaultState::flat(&fnet, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let mut cache = RouteCache::new(fnet.node_count(), 16);
    let mut stats = RouteCacheStats::default();
    for _ in 0..2 {
        for e in 0..faults.epoch_count() {
            let r: &Arc<dyn PathResolver> = faults.resolver_for_epoch(e);
            for &(s, d) in &fset {
                let got =
                    cache.get_or_insert_with(&mut stats, e as u32, s, d, || r.route_arc(s, d));
                assert_eq!(
                    r.route(s, d),
                    got.map(|p| p.to_vec()),
                    "epoch {e}: cached diverged for {s:?}→{d:?}"
                );
            }
        }
    }
    assert!(stats.hits > 0, "epoch replay must hit");

    // Tree reuse, for every metric: flat, multi-AS, and the first
    // fault epoch with a dead link.
    let e = (0..faults.epoch_count())
        .find(|&e| !faults.epoch_state(e).dead_links.is_empty())
        .expect("a flap script has an epoch with a dead link");
    let dead = &faults.epoch_state(e).dead_links;
    let alive = |l: &massf_topology::Link| dead.binary_search(&l.id.0).is_err();
    for metric in [
        CostMetric::Latency,
        CostMetric::Hop,
        CostMetric::InverseBandwidth,
    ] {
        let warm = FlatResolver::new(&net, metric);
        check_reverse_warm("flat", &warm, || FlatResolver::new(&net, metric), &set);
        if metric == CostMetric::Latency {
            // Latency costs leave no ties here: reuse must show.
            let anchors: std::collections::BTreeSet<NodeId> = set
                .iter()
                .flat_map(|&(s, d)| [s, d])
                .map(|h| net.host_attachment(h).unwrap_or(h))
                .collect();
            assert!(
                (warm.spt_builds() as usize) < anchors.len(),
                "{} trees for {} endpoint anchors: no reuse",
                warm.spt_builds(),
                anchors.len()
            );
        }
        let warm = MultiAsResolver::new(&m, metric);
        check_reverse_warm(
            "multi-AS",
            &warm,
            || MultiAsResolver::new(&m, metric),
            &mset,
        );
        let efaults = FaultState::flat(&fnet, metric, faults.script().clone())
            .expect("random_link_flaps scripts validate");
        let cold = || FlatResolver::with_link_filter(&fnet, metric, alive);
        check_reverse_warm("fault epoch", &**efaults.resolver_for_epoch(e), cold, &fset);
    }
    println!("route_resolution smoke checks passed");
}

fn main() {
    // cargo bench passes harness args like `--bench`; only `--smoke` is
    // meaningful here, everything else is ignored.
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    benches();
}
