//! The two kinds of run: the timed run (end-to-end metrics, no-op
//! observer) and the traced run (per-layer metrics, timed from outside
//! around each crate's public calls).
//!
//! Both repeat whole iterations of the pipeline until the time budget
//! is spent and report medians, so one slow iteration cannot move a
//! figure. Every leg is a counted operation checked against the first
//! sequential leg of the run.

use crate::check::{parallel_matches, same_outcome, Ops};
use crate::pipeline::{
    map_hprof, setup, Leg, LegRun, Prepared, Variant, PARTITIONS, SETUP_THREADS,
};
use crate::record::{peak_rss_mib, JsonObject, StealClock};
use crate::trace::{median, quantile, write_waits, BarrierProfile, WaitRecorder};
use crate::workload::Workload;
use massf_core::{run_profiling, ClusterModel, Scenario, ScenarioKind};
use massf_engine::NoopBarrierObserver;
use massf_netsim::FaultState;
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::generate_flat_network;
use std::path::Path;
use std::time::{Duration, Instant};

/// Iterations a timed run makes whatever the budget, so each
/// end-to-end median has at least this many samples.
const MIN_TIMED_ITERATIONS: usize = 3;

/// A timing taken while the hypervisor stole more than this share of
/// the CPU time the machine wanted is disturbed: on a shared host, steal
/// slows a 2-partition leg several-fold through its barrier waits.
const STEAL_CLEAN: f64 = 0.03;

/// Samples a timing's median is taken over at the least: its
/// undisturbed ones, topped up with the least disturbed of the rest. A
/// timed run keeps iterating, up to one and a half times its budget,
/// until every timing has this many undisturbed samples.
const MIN_CLEAN: usize = 3;

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// Per timing: sample counts, median and 90th percentile, and in
    /// timed runs every sample with its steal share.
    pub samples: JsonObject,
    pub fingerprint: JsonObject,
}

impl Report {
    fn new(ops: Ops) -> Self {
        Report {
            ops,
            metrics: Vec::new(),
            samples: JsonObject::default(),
            fingerprint: JsonObject::default(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Report the median of `samples` and note their spread.
    fn timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let mut s = JsonObject::default();
        s.int("n", samples.len() as u64)
            .num("median", median(samples))
            .num("p90", quantile(samples, 0.9));
        self.samples.obj(name, &s);
        self.metric(name, median(samples), unit);
    }

    /// Report the median of the least disturbed samples (see
    /// [`Timings::least_disturbed`]); the run record keeps every sample
    /// with its steal share and the 90th percentile of all of them.
    fn gated_timing(&mut self, name: &'static str, t: &Timings, unit: &'static str) {
        let used = t.least_disturbed();
        let mut s = JsonObject::default();
        s.int("n", t.secs.len() as u64)
            .int("n_clean", t.clean_count() as u64)
            .num("median", median(&used))
            .num("p90", quantile(&t.secs, 0.9))
            .nums("secs", &t.secs)
            .nums("steal", &t.steal);
        self.samples.obj(name, &s);
        self.metric(name, median(&used), unit);
    }
}

/// Timing samples with the steal share of the interval each came from.
#[derive(Default)]
struct Timings {
    secs: Vec<f64>,
    steal: Vec<f64>,
}

impl Timings {
    fn push(&mut self, secs: f64, steal: f64) {
        self.secs.push(secs);
        self.steal.push(steal);
    }

    fn clean_count(&self) -> usize {
        self.steal.iter().filter(|&&s| s <= STEAL_CLEAN).count()
    }

    /// The undisturbed samples when there are at least [`MIN_CLEAN`],
    /// else the [`MIN_CLEAN`] samples with the least steal.
    fn least_disturbed(&self) -> Vec<f64> {
        let mut by_steal: Vec<(f64, f64)> = self
            .steal
            .iter()
            .copied()
            .zip(self.secs.iter().copied())
            .collect();
        by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = self.clean_count().max(MIN_CLEAN);
        by_steal
            .into_iter()
            .take(keep)
            .map(|(_, secs)| secs)
            .collect()
    }
}

/// Whether another iteration fits the budget; the first `min` (at
/// least one) always run.
fn another_fits(started: Instant, budget: Duration, done: usize, min: usize) -> bool {
    if done < min.max(1) {
        return true;
    }
    let elapsed = started.elapsed();
    elapsed + elapsed / done as u32 <= budget
}

/// The sequential leg of an iteration, checked against the run's
/// reference; the first one becomes the reference after checking that
/// it exercises every layer its workload names.
fn check_sequential(
    ops: &mut Ops,
    reference: &mut Option<LegRun>,
    prepared: &Prepared,
    run: LegRun,
) -> LegRun {
    let verdict = match reference {
        Some(r) => same_outcome(r, &run),
        None => exercises(prepared, &run),
    };
    ops.record("sequential leg", verdict);
    reference.get_or_insert_with(|| run.clone());
    run
}

/// The first sequential leg must show the work its workload exists for:
/// events, completed TCP flows, completed fluid flows when fluid flows
/// were injected, and every scripted fault handled.
fn exercises(prepared: &Prepared, run: &LegRun) -> Result<(), String> {
    let p = &run.profile;
    if run.stats.total_events == 0 || p.completed_flows == 0 {
        return Err("no events or no completed TCP flows".into());
    }
    if !prepared.fluid.is_empty() && p.fluid.completed == 0 {
        return Err("fluid flows injected but none completed".into());
    }
    if let Some(script) = &prepared.script {
        if p.fault_events != script.len() as u64 {
            return Err(format!(
                "{} of {} scripted faults handled",
                p.fault_events,
                script.len()
            ));
        }
    }
    Ok(())
}

/// The cluster model's predicted time of a 2-partition run (Fig 6).
fn model_time(par: &LegRun) -> f64 {
    ClusterModel::default().predicted_time_secs(&par.stats, PARTITIONS)
}

/// The deterministic fingerprint of a workload: equal fingerprints mean
/// the same simulation.
fn fingerprint(seq: &LegRun, par: &LegRun) -> JsonObject {
    let mut f = JsonObject::default();
    f.int("engine.events", seq.stats.total_events)
        .int("engine.barrier_rounds", par.stats.barrier_rounds)
        .int("routing.cache_misses", seq.profile.route_cache.misses)
        .int(
            "netsim.fluid_rate_recomputes",
            seq.profile.fluid.rate_recomputes,
        )
        .int(
            "netsim.fluid_bottleneck_recomputes",
            seq.profile.fluid.bottleneck_recomputes,
        )
        .num("model_par2_s", model_time(par));
    f
}

/// Check a value that must repeat exactly across iterations.
fn same_bits(ops: &mut Ops, what: &str, first: &mut Option<f64>, value: f64) {
    let want = *first.get_or_insert(value);
    let verdict = if want.to_bits() == value.to_bits() {
        Ok(())
    } else {
        Err(format!("{value} != first iteration's {want}"))
    };
    ops.record(what, verdict);
}

/// End-to-end metrics: set-up, both legs, memory and the model time.
pub fn timed(workload: Workload, seed: u64, budget: Duration) -> Report {
    let spec = workload.spec();
    let mut ops = Ops::default();
    let mut timings: [Timings; 3] = Default::default();
    let mut done = 0;
    let mut reference = None;
    let mut first_mll = None;
    let mut model = None;
    let mut print = None;
    let started = Instant::now();
    while another_fits(started, budget, done, MIN_TIMED_ITERATIONS)
        || (timings.iter().any(|t| t.clean_count() < MIN_CLEAN)
            && another_fits(started, budget * 3 / 2, done, 0))
    {
        done += 1;
        let [setup_s, seq_s, par_s] = &mut timings;
        let mut steal = StealClock::start();
        let (ready, setup_time) = timed_call(|| setup(spec, seed));
        let (prepared, seq_leg, par_leg) = match ready {
            Ok(ready) => ready,
            Err(e) => {
                ops.record("set-up", Err(e.to_string()));
                break;
            }
        };
        setup_s.push(setup_time, steal.lap());
        same_bits(
            &mut ops,
            "set-up",
            &mut first_mll,
            prepared.mapping.achieved_mll_ms,
        );

        let seq = check_sequential(
            &mut ops,
            &mut reference,
            &prepared,
            seq_leg.run_sequential(),
        );
        seq_s.push(seq.wall_s, steal.lap());
        let reference = reference.as_ref().expect("set by check_sequential");
        let par = par_leg.run_parallel(&prepared, &NoopBarrierObserver);
        if let Some(par) = ops.leg("2-partition leg", par, |p| parallel_matches(reference, p)) {
            par_s.push(par.wall_s, steal.lap());
            same_bits(&mut ops, "model time", &mut model, model_time(&par));
            print.get_or_insert_with(|| fingerprint(reference, &par));
        }
    }

    let mut report = Report::new(ops);
    let [setup_s, seq_s, par_s] = &timings;
    report.gated_timing("setup_s", setup_s, "s");
    report.gated_timing("sim_seq_s", seq_s, "s");
    report.gated_timing("sim_par2_s", par_s, "s");
    match peak_rss_mib() {
        Ok(mib) => report.metric("peak_rss_mib", mib, "MiB"),
        Err(e) => report.ops.record("peak RSS", Err(e)),
    }
    report.metric("model_par2_s", model.unwrap_or(f64::NAN), "s");
    report.fingerprint = print.unwrap_or_default();
    report
}

/// Per-layer samples of one traced run, one entry per iteration.
#[derive(Default)]
struct LayerSamples {
    generate_s: Vec<f64>,
    resolver_build_s: Vec<f64>,
    state_build_s: Vec<f64>,
    profiling_s: Vec<f64>,
    map_hprof_s: Vec<f64>,
    seq_s: Vec<f64>,
    lazy_route_s: Vec<f64>,
    fluid_s: Vec<f64>,
    faults_s: Vec<f64>,
    par_s: Vec<f64>,
    traced_par_s: Vec<f64>,
    barrier_wait_s: Vec<f64>,
    barrier_wait_frac: Vec<f64>,
    wait_us: Vec<f64>,
    busy_us: Vec<f64>,
}

/// Time `f`, returning its result and the seconds it took.
fn timed_call<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Per-layer metrics. Each iteration times set-up stage by stage, then
/// runs the ablation legs (warm rerun, no fluid, no faults) and a
/// 2-partition leg with and without the barrier recorder.
pub fn traced(workload: Workload, seed: u64, budget: Duration, out_dir: &Path) -> Report {
    let spec = workload.spec();
    let mut ops = Ops::default();
    let mut s = LayerSamples::default();
    let mut reference: Option<LegRun> = None;
    let mut first = None;
    let started = Instant::now();
    let mut iterations = 0;
    while another_fits(started, budget, iterations, 1) {
        iterations += 1;
        // Set-up, stage by stage, on the set-up thread count. Topology
        // generation and the resolver build are timed as standalone calls
        // to the crates' functions, since `Scenario::build` runs both.
        let staged = massf_parutil::with_threads(SETUP_THREADS, || {
            let (net, generate_s) =
                timed_call(|| generate_flat_network(&spec.scale.flat_config(seed)));
            let scenario = Scenario::build(ScenarioKind::SingleAs, spec.scale, spec.app, seed);
            let (_, resolver_s) =
                timed_call(|| FlatResolver::new(&scenario.net, CostMetric::Latency));
            let (profile, profiling_s) = timed_call(|| run_profiling(&scenario, spec.duration));
            let (mapping, map_s) = timed_call(|| map_hprof(&scenario, &profile));
            let prepared = Prepared::new(spec, scenario, mapping)?;
            let state_s = match &prepared.script {
                Some(script) => {
                    let net = &prepared.scenario.net;
                    timed_call(|| FaultState::flat(net, CostMetric::Latency, script.clone())).1
                }
                None => 0.0,
            };
            s.generate_s.push(generate_s);
            s.resolver_build_s.push(resolver_s);
            s.profiling_s.push(profiling_s);
            s.map_hprof_s.push(map_s);
            s.state_build_s.push(state_s);
            Ok::<_, massf_engine::MassfError>((prepared, net.node_count(), net.links.len()))
        });
        let (prepared, nodes, links) = match staged {
            Ok(staged) => staged,
            Err(e) => {
                ops.record("set-up", Err(e.to_string()));
                break;
            }
        };
        let leg = |variant| -> Leg {
            massf_parutil::with_threads(SETUP_THREADS, || prepared.leg(variant))
                .expect("set-up built this leg's inputs once already")
        };

        // Sequential: cold, then a warm rerun on the same resolver.
        let cold_leg = leg(Variant::FULL);
        let cold = check_sequential(
            &mut ops,
            &mut reference,
            &prepared,
            cold_leg.run_sequential(),
        );
        let reconvergences = cold_leg.reconvergences();
        let warm = cold_leg.run_sequential();
        ops.record("warm rerun", same_outcome(&cold, &warm));
        s.seq_s.push(cold.wall_s);
        s.lazy_route_s.push(cold.wall_s - warm.wall_s);
        drop(cold_leg);

        // Ablations: the same leg without the fluid agent, and without
        // the fault script. They simulate different inputs, so there is
        // no reference to match; each must simulate something.
        if !prepared.fluid.is_empty() {
            let run = leg(Variant::NO_FLUID).run_sequential();
            ops.record("no-fluid leg", nonempty(&run));
            s.fluid_s.push(cold.wall_s - run.wall_s);
        }
        if prepared.script.is_some() {
            let run = leg(Variant::NO_FAULTS).run_sequential();
            ops.record("no-fault leg", nonempty(&run));
            s.faults_s.push(cold.wall_s - run.wall_s);
        }

        // 2-partition: untraced, then traced with a buffer sized by the
        // untraced run's (deterministic) barrier round count.
        let reference = reference.as_ref().expect("set by check_sequential");
        let par = leg(Variant::FULL).run_parallel(&prepared, &NoopBarrierObserver);
        let Some(par) = ops.leg("2-partition leg", par, |p| parallel_matches(reference, p)) else {
            continue;
        };
        let recorder = WaitRecorder::new(PARTITIONS, par.stats.barrier_rounds);
        let traced = leg(Variant::FULL).run_parallel(&prepared, &recorder);
        let Some(traced) = ops.leg("traced 2-partition leg", traced, |p| {
            parallel_matches(reference, p)
        }) else {
            continue;
        };
        match recorder.waits() {
            Ok(waits) => {
                let profile = BarrierProfile::from_waits(&waits);
                s.barrier_wait_s.push(profile.total_wait_s());
                s.barrier_wait_frac
                    .push(profile.total_wait_s() / (PARTITIONS as f64 * traced.wall_s));
                s.wait_us.extend(&profile.wait_us);
                s.busy_us.extend(&profile.busy_us);
                let path = out_dir.join(format!("waits-{}-{seed}.csv", workload.name()));
                if let Err(e) = write_waits(&path, &waits) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                }
            }
            Err(e) => ops.record("barrier trace", Err(e)),
        }
        s.par_s.push(par.wall_s);
        s.traced_par_s.push(traced.wall_s);
        first.get_or_insert(Counted {
            nodes,
            links,
            mll_ms: prepared.mapping.achieved_mll_ms,
            reconvergences,
            seq: cold,
            par,
        });
    }

    let mut report = Report::new(ops);
    let Some(first) = first else {
        report
            .ops
            .record("traced run", Err("no iteration completed".into()));
        return report;
    };
    report.fingerprint = fingerprint(&first.seq, &first.par);
    layer_metrics(&mut report, &s, &first);
    report
}

/// The deterministic outputs of a traced run's first full iteration.
struct Counted {
    nodes: usize,
    links: usize,
    mll_ms: f64,
    reconvergences: u64,
    seq: LegRun,
    par: LegRun,
}

/// An ablation leg ran and simulated something.
fn nonempty(run: &LegRun) -> Result<(), String> {
    if run.stats.total_events > 0 {
        Ok(())
    } else {
        Err("no events".into())
    }
}

/// Median of the samples, `0` where the layer was not exercised.
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn layer_metrics(r: &mut Report, s: &LayerSamples, c: &Counted) {
    let (seq, par) = (&c.seq, &c.par);
    let p = &seq.profile;
    let events = seq.stats.total_events as f64;
    r.timing("topology.generate_s", &s.generate_s, "s");
    r.metric("topology.nodes", c.nodes as f64, "count");
    r.metric("topology.links", c.links as f64, "count");
    r.timing("routing.resolver_build_s", &s.resolver_build_s, "s");
    r.metric("routing.cache_hits", p.route_cache.hits as f64, "count");
    r.metric("routing.cache_misses", p.route_cache.misses as f64, "count");
    r.timing("routing.lazy_route_s", &s.lazy_route_s, "s");
    r.timing("faults.state_build_s", &s.state_build_s, "s");
    r.metric("faults.events", p.fault_events as f64, "count");
    r.metric("faults.reconvergences", c.reconvergences as f64, "count");
    r.metric("faults.sim_s", median_or_zero(&s.faults_s), "s");
    r.metric("netsim.fault_drops", p.fault_drops as f64, "count");
    r.timing("netsim.profiling_s", &s.profiling_s, "s");
    r.metric("netsim.packets", p.total_node_packets() as f64, "count");
    r.metric("netsim.tcp_completed", p.completed_flows as f64, "count");
    r.metric("netsim.tcp_aborted", p.aborted_flows as f64, "count");
    r.metric("netsim.queue_drops", p.drops as f64, "count");
    r.metric("netsim.fluid_s", median_or_zero(&s.fluid_s), "s");
    r.metric("netsim.fluid_completed", p.fluid.completed as f64, "count");
    r.metric(
        "netsim.fluid_rate_recomputes",
        p.fluid.rate_recomputes as f64,
        "count",
    );
    r.metric(
        "netsim.fluid_bottleneck_recomputes",
        p.fluid.bottleneck_recomputes as f64,
        "count",
    );
    r.timing("core.map_hprof_s", &s.map_hprof_s, "s");
    r.metric("partition.mll_ms", c.mll_ms, "ms");
    r.metric(
        "partition.imbalance_permille",
        par.stats.imbalance_permille() as f64,
        "permille",
    );
    r.metric(
        "partition.ideal_speedup",
        events / par.stats.critical_path_events() as f64,
        "ratio",
    );
    r.metric("engine.events", events, "count");
    r.metric("engine.seq_events_per_s", events / median(&s.seq_s), "1/s");
    r.metric(
        "engine.windows_executed",
        par.stats.windows_executed as f64,
        "count",
    );
    r.metric(
        "engine.barrier_rounds",
        par.stats.barrier_rounds as f64,
        "count",
    );
    r.metric(
        "engine.critical_path_events",
        par.stats.critical_path_events() as f64,
        "count",
    );
    r.timing("engine.barrier_wait_s", &s.barrier_wait_s, "s");
    r.metric(
        "engine.barrier_wait_frac",
        median(&s.barrier_wait_frac),
        "ratio",
    );
    r.metric(
        "engine.barrier_wait_us.p50",
        quantile(&s.wait_us, 0.5),
        "us",
    );
    r.metric(
        "engine.barrier_wait_us.p99",
        quantile(&s.wait_us, 0.99),
        "us",
    );
    r.metric("engine.window_busy_us.p50", quantile(&s.busy_us, 0.5), "us");
    r.metric(
        "engine.window_busy_us.p99",
        quantile(&s.busy_us, 0.99),
        "us",
    );
    r.metric(
        "trace.overhead_frac",
        median(&s.traced_par_s) / median(&s.par_s) - 1.0,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_disturbed_prefers_clean_samples_then_least_steal() {
        let mut t = Timings::default();
        for (secs, steal) in [(5.0, 0.5), (1.0, 0.0), (2.0, 0.2), (3.0, 0.01), (9.0, 0.9)] {
            t.push(secs, steal);
        }
        // Two undisturbed samples, topped up with the least disturbed.
        assert_eq!(t.clean_count(), 2);
        assert_eq!(t.least_disturbed(), vec![1.0, 3.0, 2.0]);
        t.push(4.0, STEAL_CLEAN);
        assert_eq!(t.least_disturbed(), vec![1.0, 3.0, 4.0]);
    }
}
