//! Experiment harness shared by the figure-regeneration binaries
//! (`src/bin/fig*.rs`) and Criterion benches.
//!
//! Every figure of the paper's evaluation (3, 5–13) is regenerated by a
//! binary: `fig03_load_variation`, `fig05_sync_cost`, and `suite` for
//! Figures 6–13 (all of them, or one with `--figure N`); see DESIGN.md's
//! experiment index. Binaries accept:
//!
//! ```text
//! --scale tiny|small|medium|paper   (default: small)
//! --engines N                       (default: 90, as in the paper)
//! --seed S                          (default: 2004)
//! --threads T                       (default: MASSF_THREADS env, else
//!                                    all available cores)
//! ```
//!
//! Absolute numbers come from the trace-driven cluster model (DESIGN.md
//! substitution #1); the figure *shapes* — who wins, by roughly what
//! factor — are the reproduction target.

// The `alloc-count` feature swaps the global allocator for a counting
// wrapper (see `alloccount`), which requires the one `unsafe impl` in
// the workspace; every other build of this crate keeps the blanket ban.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]

use massf_core::prelude::*;
use std::collections::HashMap;

#[cfg(feature = "alloc-count")]
pub mod alloccount;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    pub scale: Scale,
    /// Engine count; `None` derives it from the scale so that the
    /// routers-per-engine ratio (and hence per-engine event density,
    /// which sets the compute : synchronization balance) stays close to
    /// the paper's 20,000 routers / 90 engines ≈ 220.
    pub engines_override: Option<usize>,
    pub seed: u64,
    /// Number of topology seeds to run and average over.
    pub repeats: usize,
    /// Host worker threads for the parallel sweep / routing / suite
    /// phases; `None` falls back to `MASSF_THREADS`, then to all
    /// available cores (see `massf_parutil::current_threads`).
    pub threads: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: Scale::Small,
            engines_override: None,
            seed: 2004,
            repeats: 1,
            threads: None,
        }
    }
}

/// Default engine count per scale (≈ paper's router:engine ratio).
pub fn default_engines(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 4,
        Scale::Small => 8,
        Scale::Medium => 24,
        Scale::Paper => 90,
    }
}

/// Usage text shared by every figure binary, printed (with the concrete
/// error) on invalid arguments before exiting with status 2.
pub const USAGE: &str = "\
usage: <figure-binary> [options]
  --scale tiny|small|medium|paper   problem size (default: small)
  --engines N                       simulated engine count (default: per scale)
  --seed S                          topology seed (default: 2004)
  --repeats R                       topology seeds to average over (default: 1)
  --threads T                       host worker threads, T >= 1
                                    (default: MASSF_THREADS env, else all cores)
  --figure N                        suite only: print just Figure N (6..=13)";

fn flag_value(iter: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    iter.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn flag_number(v: &str, flag: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("{flag} must be a number, got {v:?}"))
}

impl HarnessOptions {
    /// Parse `std::env::args()`-style arguments (ignores `argv[0]`),
    /// rejecting anything unrecognized.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<HarnessOptions, String> {
        let (opts, rest) = Self::try_parse_partial(args)?;
        if let Some(first) = rest.first() {
            return Err(format!(
                "unknown argument {first:?} \
                 (expected --scale/--engines/--seed/--repeats/--threads)"
            ));
        }
        Ok(opts)
    }

    /// Like [`HarnessOptions::try_parse`], but hands unrecognized
    /// arguments back to the caller, in order — for binaries that layer
    /// extra flags on top of the shared harness set.
    pub fn try_parse_partial(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(HarnessOptions, Vec<String>), String> {
        let mut opts = HarnessOptions::default();
        let mut rest = Vec::new();
        let mut iter = args.into_iter().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = flag_value(&mut iter, "--scale")?;
                    opts.scale = match v.as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "medium" => Scale::Medium,
                        "paper" => Scale::Paper,
                        other => {
                            return Err(format!(
                                "unknown scale {other:?} (expected tiny|small|medium|paper)"
                            ))
                        }
                    };
                }
                "--engines" => {
                    let v = flag_value(&mut iter, "--engines")?;
                    let n = flag_number(&v, "--engines")?;
                    if n == 0 {
                        return Err("--engines must be >= 1".to_string());
                    }
                    opts.engines_override = Some(n);
                }
                "--seed" => {
                    let v = flag_value(&mut iter, "--seed")?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed must be a number, got {v:?}"))?;
                }
                "--repeats" => {
                    let v = flag_value(&mut iter, "--repeats")?;
                    let n = flag_number(&v, "--repeats")?;
                    if n == 0 {
                        return Err("--repeats must be >= 1".to_string());
                    }
                    opts.repeats = n;
                }
                "--threads" => {
                    let v = flag_value(&mut iter, "--threads")?;
                    let n = flag_number(&v, "--threads")?;
                    if n == 0 {
                        return Err("--threads must be >= 1".to_string());
                    }
                    opts.threads = Some(n);
                }
                _ => rest.push(arg),
            }
        }
        Ok((opts, rest))
    }

    /// Print `err` plus the usage text and exit with status 2 (the
    /// conventional bad-command-line status).
    pub fn usage_exit(err: &str) -> ! {
        eprintln!("error: {err}\n\n{USAGE}");
        std::process::exit(2);
    }

    /// Parse the real process arguments and install the requested
    /// worker-thread count process-wide. Invalid arguments print usage
    /// and exit(2) instead of panicking.
    pub fn from_env() -> HarnessOptions {
        match Self::try_parse(std::env::args()) {
            Ok(opts) => {
                opts.apply_threads();
                opts
            }
            Err(e) => Self::usage_exit(&e),
        }
    }

    /// [`HarnessOptions::from_env`] for binaries with extra flags:
    /// returns the unrecognized arguments for the caller to interpret
    /// (and reject via [`HarnessOptions::usage_exit`]).
    pub fn from_env_partial() -> (HarnessOptions, Vec<String>) {
        match Self::try_parse_partial(std::env::args()) {
            Ok((opts, rest)) => {
                opts.apply_threads();
                (opts, rest)
            }
            Err(e) => Self::usage_exit(&e),
        }
    }

    /// Install `--threads` as the process-global worker count (no-op
    /// when the flag was absent, leaving `MASSF_THREADS` / detected
    /// cores in charge).
    pub fn apply_threads(&self) {
        if let Some(t) = self.threads {
            massf_parutil::set_threads(t);
        }
    }

    /// Effective engine count.
    pub fn engines(&self) -> usize {
        self.engines_override
            .unwrap_or_else(|| default_engines(self.scale))
    }

    /// The mapping configuration for these options.
    pub fn mapping_config(&self) -> MappingConfig {
        MappingConfig::new(self.engines())
    }

    /// The cluster performance model for these options.
    pub fn cluster_model(&self) -> ClusterModel {
        ClusterModel::default()
    }
}

/// `suite`'s `--figure N` from the arguments the harness parser handed
/// back: `None` without the flag, an error for anything else left over
/// or a figure outside 6..=13.
pub fn parse_figure(rest: &[String]) -> Result<Option<usize>, String> {
    match rest {
        [] => Ok(None),
        [flag, v] if flag == "--figure" => match v.parse() {
            Ok(n @ 6..=13) => Ok(Some(n)),
            _ => Err(format!("--figure must be one of 6..=13, got {v:?}")),
        },
        [flag] if flag == "--figure" => Err("--figure needs a value".to_string()),
        [first, ..] => Err(format!(
            "unknown argument {first:?} \
             (expected --scale/--engines/--seed/--repeats/--threads/--figure)"
        )),
    }
}

/// One `(workload, approach)` cell of a figure: all four metrics.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    pub workload: WorkloadKind,
    pub approach: MappingApproach,
    pub metrics: ExperimentMetrics,
    pub total_events: u64,
}

/// Run the full evaluation suite for one network world: both workloads ×
/// the requested approaches, sharing one profiling run per workload and
/// averaging metrics over `opts.repeats` topology seeds.
pub fn run_suite(
    kind: ScenarioKind,
    opts: &HarnessOptions,
    approaches: &[MappingApproach],
) -> Vec<SuiteRow> {
    let mut merged: Vec<SuiteRow> = Vec::new();
    for rep in 0..opts.repeats {
        let mut o = opts.clone();
        o.seed = opts.seed.wrapping_add(rep as u64 * 1000);
        o.repeats = 1;
        let rows = run_suite_once(kind, &o, approaches);
        if merged.is_empty() {
            merged = rows;
        } else {
            for (m, r) in merged.iter_mut().zip(rows) {
                assert_eq!(m.approach, r.approach);
                m.metrics.simulation_time_secs += r.metrics.simulation_time_secs;
                m.metrics.achieved_mll_ms += r.metrics.achieved_mll_ms;
                m.metrics.load_imbalance += r.metrics.load_imbalance;
                m.metrics.parallel_efficiency += r.metrics.parallel_efficiency;
                m.total_events += r.total_events;
            }
        }
    }
    let n = opts.repeats as f64;
    for m in merged.iter_mut() {
        m.metrics.simulation_time_secs /= n;
        m.metrics.achieved_mll_ms /= n;
        m.metrics.load_imbalance /= n;
        m.metrics.parallel_efficiency /= n;
        m.total_events /= opts.repeats as u64;
    }
    merged
}

fn run_suite_once(
    kind: ScenarioKind,
    opts: &HarnessOptions,
    approaches: &[MappingApproach],
) -> Vec<SuiteRow> {
    let cfg = opts.mapping_config();
    let model = opts.cluster_model();
    let duration = opts.scale.run_duration();
    let mut rows = Vec::new();
    for workload in [WorkloadKind::ScaLapack, WorkloadKind::GridNpb] {
        eprintln!("# building {kind:?} scenario for {} …", workload.label());
        let scenario = Scenario::build(kind, opts.scale, workload, opts.seed);
        eprintln!(
            "# measuring {} × {} approaches ({} worker threads) …",
            workload.label(),
            approaches.len(),
            massf_parutil::current_threads()
        );
        // One shared profiling run, then all approaches concurrently
        // (order and results identical to the old sequential loop).
        let outputs = run_approaches(&scenario, approaches, &cfg, &model, duration);
        let mut cache = massf_netsim::RouteCacheStats::default();
        let mut fluid = massf_netsim::FluidStats::default();
        for out in outputs {
            cache.merge(&out.run_profile.route_cache);
            fluid.merge(&out.run_profile.fluid);
            rows.push(SuiteRow {
                workload,
                approach: out.approach,
                metrics: out.metrics,
                total_events: out.run_stats.total_events,
            });
        }
        eprintln!(
            "# route cache ({}): {} hits / {} misses / {} evictions ({:.1}% hit rate)",
            workload.label(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.hit_rate() * 100.0
        );
        eprintln!(
            "# fluid ({}): {} started / {} completed / {} aborted, {} rate recomputes / {} bottleneck recomputes, {} cap updates / {} packet-load updates",
            workload.label(),
            fluid.started,
            fluid.completed,
            fluid.aborted,
            fluid.rate_recomputes,
            fluid.bottleneck_recomputes,
            fluid.cap_updates,
            fluid.packet_load_updates
        );
    }
    rows
}

/// Pretty-print one figure: a `workload × approach` metric grid.
pub fn print_figure(
    title: &str,
    rows: &[SuiteRow],
    metric_name: &str,
    metric: impl Fn(&ExperimentMetrics) -> f64,
) {
    println!("== {title} ==");
    println!("{:<12} {:<10} {:>14}", "workload", "approach", metric_name);
    for row in rows {
        println!(
            "{:<12} {:<10} {:>14.4}",
            row.workload.label(),
            row.approach.label(),
            metric(&row.metrics)
        );
    }
    println!();
}

/// Relative improvements quoted in the paper's text, printed under the
/// figures for easy comparison (e.g. "PROF2 reduces TOP2's time by X%").
pub fn print_improvements(rows: &[SuiteRow]) {
    let by_key: HashMap<(WorkloadKind, MappingApproach), &SuiteRow> =
        rows.iter().map(|r| ((r.workload, r.approach), r)).collect();
    for workload in [WorkloadKind::ScaLapack, WorkloadKind::GridNpb] {
        let get = |a: MappingApproach| by_key.get(&(workload, a));
        if let (Some(top2), Some(prof2), Some(hprof), Some(htop)) = (
            get(MappingApproach::Top2),
            get(MappingApproach::Prof2),
            get(MappingApproach::Hprof),
            get(MappingApproach::Htop),
        ) {
            let pct = |a: f64, b: f64| (1.0 - a / b) * 100.0;
            println!("-- {} --", workload.label());
            println!(
                "PROF2 vs TOP2 time:      {:+.1}% (paper: -14% single-AS / -21% multi-AS)",
                -pct(
                    prof2.metrics.simulation_time_secs,
                    top2.metrics.simulation_time_secs
                )
            );
            println!(
                "HPROF vs TOP2 time:      {:+.1}% (paper: ≈-40% / -41%)",
                -pct(
                    hprof.metrics.simulation_time_secs,
                    top2.metrics.simulation_time_secs
                )
            );
            println!(
                "PROF2 vs TOP2 imbalance: {:+.1}% (paper: ≈-7% / -15%)",
                -pct(prof2.metrics.load_imbalance, top2.metrics.load_imbalance)
            );
            println!(
                "HPROF vs HTOP imbalance: {:+.1}% (paper: ≈-11% / -31%)",
                -pct(hprof.metrics.load_imbalance, htop.metrics.load_imbalance)
            );
            println!(
                "HPROF efficiency:        {:.3} (paper: ≈0.40), vs TOP2 {:+.1}%",
                hprof.metrics.parallel_efficiency,
                (hprof.metrics.parallel_efficiency / top2.metrics.parallel_efficiency - 1.0)
                    * 100.0
            );
            println!();
        }
    }
}

/// Measure the *actual* cost of one barrier round across `n` OS threads
/// on this machine, averaged over `rounds` barriers. Used by the Figure 5
/// harness to print a measured series next to the model. (On a small
/// host this measures thread-barrier cost, not Myrinet MPI cost; the
/// model — `massf_engine::synccost::SyncCostModel` — is what feeds the
/// evaluation.) Lives here rather than in the engine because it reads
/// host wall-clock time, which deterministic-critical crates must not
/// do (simlint D2).
pub fn measure_barrier_cost_us(n: usize, rounds: usize) -> f64 {
    use std::sync::Barrier;
    use std::time::Instant;
    if n <= 1 {
        return 0.0;
    }
    let barrier = Barrier::new(n);
    let elapsed_us = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..n - 1 {
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                for _ in 0..rounds {
                    barrier.wait();
                }
            }));
        }
        let start = Instant::now();
        for _ in 0..rounds {
            barrier.wait();
        }
        let e = start.elapsed().as_secs_f64() * 1e6;
        for h in handles {
            h.join().expect("barrier thread panicked");
        }
        e
    });
    elapsed_us / rounds as f64
}

/// Wall-clock implementation of the engine's
/// [`massf_engine::BarrierObserver`] hook: accumulates per-partition
/// time spent blocked in executor barriers. Lives here rather than in
/// the engine because it reads host wall-clock time, which
/// deterministic-critical crates must not do (simlint D2); the observer
/// runs strictly outside the deterministic event path, so measuring
/// cannot change simulation results.
///
/// Each partition thread only ever touches its own slot, so the mutexes
/// are uncontended — they exist to keep the observer `Sync` without
/// `unsafe`.
pub struct MeasuredBarriers {
    parts: Vec<std::sync::Mutex<BarrierWaitState>>,
}

#[derive(Default)]
struct BarrierWaitState {
    pending: Option<std::time::Instant>,
    total_ns: u64,
    waits: u64,
}

impl MeasuredBarriers {
    /// An observer for a run with `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        MeasuredBarriers {
            parts: (0..partitions).map(|_| Default::default()).collect(),
        }
    }

    /// Number of barrier waits partition `p` performed.
    pub fn waits(&self, p: usize) -> u64 {
        self.parts[p].lock().expect("observer mutex poisoned").waits
    }
}

impl massf_engine::BarrierObserver for MeasuredBarriers {
    fn wait_begin(&self, partition: usize) {
        let mut s = self.parts[partition]
            .lock()
            .expect("observer mutex poisoned");
        s.pending = Some(std::time::Instant::now());
    }

    fn wait_end(&self, partition: usize) {
        let mut s = self.parts[partition]
            .lock()
            .expect("observer mutex poisoned");
        if let Some(t0) = s.pending.take() {
            s.total_ns += t0.elapsed().as_nanos() as u64;
            s.waits += 1;
        }
    }

    fn waits_us(&self) -> Vec<f64> {
        self.parts
            .iter()
            .map(|m| m.lock().expect("observer mutex poisoned").total_ns as f64 / 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> String {
        v.to_string()
    }

    #[test]
    fn parses_arguments() {
        let opts = HarnessOptions::try_parse(vec![
            s("bin"),
            s("--scale"),
            s("tiny"),
            s("--engines"),
            s("16"),
            s("--seed"),
            s("9"),
            s("--threads"),
            s("2"),
        ])
        .expect("valid arguments");
        assert_eq!(opts.scale, Scale::Tiny);
        assert_eq!(opts.engines(), 16);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, Some(2));
    }

    #[test]
    fn defaults_match_paper() {
        let opts = HarnessOptions::try_parse(vec![s("bin")]).expect("no arguments is valid");
        assert_eq!(opts.engines(), default_engines(Scale::Small));
        assert_eq!(opts.scale, Scale::Small);
        assert_eq!(default_engines(Scale::Paper), 90);
    }

    #[test]
    fn rejects_bad_scale() {
        let err = HarnessOptions::try_parse(vec![s("bin"), s("--scale"), s("huge")])
            .expect_err("bad scale must be rejected");
        assert!(err.contains("unknown scale"), "{err}");
    }

    #[test]
    fn rejects_bad_flag_values() {
        for args in [
            vec![s("bin"), s("--threads"), s("zero")],
            vec![s("bin"), s("--threads"), s("0")],
            vec![s("bin"), s("--engines"), s("0")],
            vec![s("bin"), s("--repeats"), s("0")],
            vec![s("bin"), s("--seed"), s("NaN")],
            vec![s("bin"), s("--threads")],
            vec![s("bin"), s("--frobnicate")],
        ] {
            assert!(
                HarnessOptions::try_parse(args.clone()).is_err(),
                "{args:?} must be rejected"
            );
        }
    }

    #[test]
    fn partial_parse_hands_back_extra_flags() {
        let (opts, rest) = HarnessOptions::try_parse_partial(vec![
            s("bin"),
            s("--smoke"),
            s("--threads"),
            s("2"),
            s("--flaps"),
            s("12"),
        ])
        .expect("harness flags valid");
        assert_eq!(opts.threads, Some(2));
        assert_eq!(rest, vec![s("--smoke"), s("--flaps"), s("12")]);
    }

    #[test]
    fn figure_flag_accepts_only_figures_6_to_13() {
        assert_eq!(parse_figure(&[]), Ok(None));
        for n in 6..=13 {
            assert_eq!(parse_figure(&[s("--figure"), n.to_string()]), Ok(Some(n)));
        }
        for args in [
            vec![s("--figure"), s("5")],
            vec![s("--figure"), s("14")],
            vec![s("--figure"), s("six")],
            vec![s("--figure")],
            vec![s("--figure"), s("6"), s("--figure"), s("7")],
            vec![s("--frobnicate")],
        ] {
            assert!(parse_figure(&args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn measured_barriers_record_executor_waits() {
        use massf_engine::{run_parallel, Emitter, LpId, Model, ResumeState, SimTime};
        struct Ring;
        impl Model for Ring {
            type Event = ();
            fn handle(&mut self, t: LpId, _: SimTime, _: (), out: &mut Emitter<'_, ()>) {
                out.emit(SimTime::from_ms(1), LpId((t.0 + 1) % 2), ());
            }
        }
        let obs = MeasuredBarriers::new(2);
        let (_, stats, _) = run_parallel(
            vec![Ring, Ring],
            &[0, 1],
            ResumeState::seeded(vec![(SimTime::ZERO, LpId(0), ())], 2),
            SimTime::from_ms(20),
            SimTime::from_ms(1),
            &obs,
        )
        .expect("MLL-sized window cannot violate lookahead");
        assert_eq!(stats.barrier_wait_us.len(), 2);
        assert_eq!(obs.waits(0), stats.barrier_rounds);
        assert_eq!(obs.waits(1), stats.barrier_rounds);
        assert!(stats.total_barrier_wait_us() > 0.0);
    }

    #[test]
    fn measured_barrier_is_positive_for_two_threads() {
        let us = measure_barrier_cost_us(2, 50);
        assert!(us > 0.0);
        assert_eq!(measure_barrier_cost_us(1, 50), 0.0);
    }

    #[test]
    fn tiny_suite_has_expected_shape() {
        let opts = HarnessOptions {
            scale: Scale::Tiny,
            engines_override: Some(4),
            seed: 3,
            repeats: 1,
            threads: None,
        };
        let rows = run_suite(
            ScenarioKind::SingleAs,
            &opts,
            &[MappingApproach::Top2, MappingApproach::Hprof],
        );
        assert_eq!(rows.len(), 4); // 2 workloads × 2 approaches
        for r in &rows {
            assert!(r.metrics.simulation_time_secs > 0.0);
            assert!(r.total_events > 0);
        }
    }
}
