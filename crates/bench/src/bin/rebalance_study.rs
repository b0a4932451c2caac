//! Online re-partitioning study: how much load imbalance does the
//! epoch-cadenced rebalancer (`massf_snapshot::Session::run_rebalancing`)
//! recover when the traffic pattern drifts away from the static HPROF
//! mapping it started on (BENCH_rebalance.json)?
//!
//! Setup, per scenario: a calibration run with uniform traffic feeds
//! HPROF the profile it would have measured at deployment time; the
//! scenario workload then *moves* — regional busy-hours rotate across
//! the map, or link flaps reroute a hot region's transit — exactly the
//! drift a static mapping cannot follow. Two drivers replay the same
//! workload from the same initial mapping:
//!
//! - **static**: the rebalancing driver with the trigger threshold at
//!   `u64::MAX` — identical epoch segmentation, zero migrations (what
//!   the static HPROF mapping delivers, measured apples-to-apples);
//! - **adaptive**: the configured threshold — migrations whenever an
//!   epoch's measured max/mean load exceeds it.
//!
//! Both are asserted bit-identical to one sequential reference run
//! before anything is reported (the speedup compares equal answers; the
//! decision signal is per-LP event counts, never wall-clock). The
//! headline metric is aggregate max/mean partition load permille
//! (`RebalanceOutcome::aggregate_imbalance_permille`): each barrier
//! window costs its busiest partition, so this ratio is the parallel
//! time a cluster would pay. Critical-path event counts
//! (`ExecutionStats::critical_path_events`) are reported alongside as
//! the schedule-independent proxy.
//!
//! Extra flags on top of the shared harness set:
//!
//! ```text
//! --epoch-ms MS    rebalance epoch cadence (default: 500)
//! --threshold P    trigger threshold, permille of perfect balance
//!                  (default: 1200 = rebalance when max > 1.2x mean)
//! --max-moves N    per-epoch migration budget (default: 64)
//! --smoke          tiny network, short run, self-checking (used by
//!                  scripts/check.sh): asserts bit-identity for both
//!                  drivers and >= 1.3x imbalance reduction with a
//!                  critical-path reduction on both scenarios
//! ```

use massf_bench::HarnessOptions;
use massf_core::prelude::*;
use massf_engine::RebalanceConfig;
use massf_netsim::{Agent, FaultScript, FaultState, NetSimBuilder, NoApp, SimOutput, MAX_RETRIES};
use massf_routing::{CostMetric, FlatResolver};
use massf_snapshot::{RebalanceOutcome, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

struct StudyOptions {
    harness: HarnessOptions,
    epoch: SimTime,
    threshold: u64,
    max_moves: usize,
    smoke: bool,
}

fn parse_extra(harness: HarnessOptions, rest: Vec<String>) -> StudyOptions {
    let mut opts = StudyOptions {
        harness,
        epoch: SimTime::from_ms(500),
        threshold: 1200,
        max_moves: 64,
        smoke: false,
    };
    let mut iter = rest.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| match iter.next() {
            Some(v) => v,
            None => HarnessOptions::usage_exit(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--epoch-ms" => {
                let v = value("--epoch-ms");
                opts.epoch = match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => SimTime::from_ms(ms),
                    _ => HarnessOptions::usage_exit(&format!(
                        "--epoch-ms must be a positive number, got {v:?}"
                    )),
                };
            }
            "--threshold" => {
                let v = value("--threshold");
                opts.threshold = match v.parse() {
                    Ok(p) if p >= 1000 => p,
                    _ => HarnessOptions::usage_exit(&format!(
                        "--threshold is permille of perfect balance and must be >= 1000, got {v:?}"
                    )),
                };
            }
            "--max-moves" => {
                let v = value("--max-moves");
                opts.max_moves = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => HarnessOptions::usage_exit(&format!(
                        "--max-moves must be a positive number, got {v:?}"
                    )),
                };
            }
            "--smoke" => opts.smoke = true,
            other => HarnessOptions::usage_exit(&format!(
                "unknown argument {other:?} (extra flags: --epoch-ms/--threshold/--max-moves/--smoke)"
            )),
        }
    }
    opts
}

/// Uniform calibration traffic: what HPROF profiles at deployment time.
fn uniform_traffic(hosts: &[NodeId], duration: SimTime, flows: usize, seed: u64) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA11);
    let mut agent = Agent::new();
    let span = duration.as_ns().max(1);
    for _ in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if src == dst {
            continue;
        }
        agent.inject_tcp(
            SimTime(rng.gen_range(0..span)),
            src,
            dst,
            10_000 + rng.gen_range(0u64..90_000),
        );
    }
    agent
}

/// Regional busy-hour rotation: the run is split into `groups.len()`
/// phases and phase `p`'s flows run only among the hosts HPROF placed
/// in partition `p` — the load sweeps across the map while every static
/// mapping keeps each region colocated (that *is* the cut-minimizing
/// choice). `fluid_every` > 0 adds one fluid background flow per that
/// many TCP flows so migration moves mixed-fidelity state too.
fn phased_traffic(
    groups: &[Vec<NodeId>],
    duration: SimTime,
    flows_per_phase: usize,
    fluid_every: usize,
    seed: u64,
) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0257);
    let mut agent = Agent::new();
    let phases = groups.len() as u64;
    let phase_ns = (duration.as_ns() / phases.max(1)).max(1);
    for (p, group) in groups.iter().enumerate() {
        if group.len() < 2 {
            continue;
        }
        let base = p as u64 * phase_ns;
        for i in 0..flows_per_phase {
            let src = group[rng.gen_range(0..group.len())];
            let dst = group[rng.gen_range(0..group.len())];
            if src == dst {
                continue;
            }
            let at = SimTime(base + rng.gen_range(0..phase_ns));
            if fluid_every > 0 && i % fluid_every == 0 {
                agent.inject_fluid(at, src, dst, 200_000 + rng.gen_range(0u64..800_000));
            } else {
                agent.inject_tcp(at, src, dst, 10_000 + rng.gen_range(0u64..90_000));
            }
        }
    }
    agent
}

struct DriverRun {
    outcome: RebalanceOutcome,
    partitions: u32,
    final_assignment: Vec<u32>,
    session: Session,
}

fn run_driver(
    builder: &NetSimBuilder,
    policy: RebalanceConfig,
    assignment: Vec<u32>,
    duration: SimTime,
) -> DriverRun {
    let mut session = Session::new_rebalancing(
        builder.shared(),
        builder.initial_events(),
        MAX_RETRIES,
        policy,
        assignment,
    )
    .expect("valid policy and assignment");
    let outcome = session.run_rebalancing(duration).expect("driver runs");
    let state = session.rebalance_state().expect("rebalancing session");
    let partitions = state.partitions;
    let final_assignment = state.assignment.clone();
    DriverRun {
        outcome,
        partitions,
        final_assignment,
        session,
    }
}

fn assert_driver_matches(name: &str, run: &DriverRun, reference: &SimOutput<NoApp>) {
    assert_eq!(
        run.session.total_events(),
        reference.stats.total_events,
        "{name} driver event count diverged from the sequential reference"
    );
    assert_eq!(
        run.session.lp_events(),
        &reference.stats.lp_events[..],
        "{name} driver per-LP attribution diverged from the sequential reference"
    );
    assert_eq!(
        run.session.profile(),
        &reference.profile,
        "{name} driver traffic profile diverged from the sequential reference"
    );
}

struct ScenarioReport {
    name: &'static str,
    static_run: DriverRun,
    adaptive_run: DriverRun,
}

impl ScenarioReport {
    fn static_imbalance(&self) -> u64 {
        self.static_run
            .outcome
            .aggregate_imbalance_permille(self.static_run.partitions as usize)
    }
    fn adaptive_imbalance(&self) -> u64 {
        self.adaptive_run
            .outcome
            .aggregate_imbalance_permille(self.adaptive_run.partitions as usize)
    }
    fn improvement(&self) -> f64 {
        self.static_imbalance() as f64 / self.adaptive_imbalance().max(1) as f64
    }
}

fn report_scenario(r: &ScenarioReport) {
    let (s, a) = (&r.static_run.outcome, &r.adaptive_run.outcome);
    println!();
    println!("scenario: {}", r.name);
    println!("{:<34} {:>12} {:>12}", "metric", "static", "adaptive");
    println!(
        "{:<34} {:>12} {:>12}",
        "max/mean load (permille)",
        r.static_imbalance(),
        r.adaptive_imbalance()
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "critical-path events", s.critical_path_events, a.critical_path_events
    );
    println!("{:<34} {:>12} {:>12}", "epochs", s.epochs, a.epochs);
    println!(
        "{:<34} {:>12} {:>12}",
        "rebalances", s.rebalances, a.rebalances
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "LP migrations", s.migrations, a.migrations
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "windows executed", s.windows_executed, a.windows_executed
    );
    let moved = r
        .static_run
        .final_assignment
        .iter()
        .zip(&r.adaptive_run.final_assignment)
        .filter(|(x, y)| x != y)
        .count();
    println!(
        "{:<34} {:>12} {:>12}",
        "LPs off the initial mapping", 0, moved
    );
    println!("{:<34} {:>11.2}x", "imbalance improvement", r.improvement());
}

fn main() {
    let (harness, rest) = HarnessOptions::from_env_partial();
    let mut opts = parse_extra(harness, rest);
    if opts.smoke {
        // The smoke gate asserts >= 1.3x recovered imbalance, which
        // needs several epochs per busy-hour phase; pin the geometry.
        opts.harness.scale = Scale::Tiny;
        opts.epoch = SimTime::from_ms(250);
        opts.threshold = opts.threshold.min(1200);
    }
    let scale = opts.harness.scale;
    let seed = opts.harness.seed;
    let k = opts.harness.engines();
    let duration = if opts.smoke {
        SimTime::from_secs(8)
    } else {
        scale.run_duration().max(SimTime::from_secs(10))
    };
    let policy = RebalanceConfig {
        epoch: opts.epoch,
        threshold_permille: opts.threshold,
        max_moves: opts.max_moves,
    };
    let static_policy = RebalanceConfig {
        // Same epoch segmentation, trigger can never fire: this is the
        // static mapping measured through the identical driver.
        threshold_permille: u64::MAX,
        ..policy
    };

    eprintln!("# generating {scale:?} single-AS network (seed {seed}) …");
    let net = generate_flat_network(&scale.flat_config(seed));
    let hosts = net.host_ids();
    let flows = (hosts.len() * 2).clamp(64, 4000);

    // Deployment-time HPROF mapping: profile uniform calibration
    // traffic, map with the profiled weights.
    eprintln!("# calibration run + HPROF mapping ({k} engines) …");
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut calib = NetSimBuilder::new(net.clone(), resolver.clone());
    calib.add_agent(uniform_traffic(&hosts, duration, flows, seed));
    let calib_out = calib.run_sequential(NoApp, duration);
    let cfg = opts.harness.mapping_config();
    let mapping = map_network(&net, Some(&calib_out.profile), MappingApproach::Hprof, &cfg);
    let initial = mapping.partition.assignment.clone();

    // The regions HPROF colocated: phase p's busy hour lands on the
    // hosts of partition p.
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for &h in &hosts {
        groups[initial[h.index()] as usize % k].push(h);
    }

    println!("== rebalance_study ({scale:?}, seed {seed}) ==");
    println!(
        "network: {} nodes / {} links, {k} partitions, {:.0}s run, \
         epoch {:.0} ms, threshold {} permille, {} moves/epoch",
        net.node_count(),
        net.links.len(),
        duration.as_secs_f64(),
        opts.epoch.as_ms_f64(),
        opts.threshold,
        opts.max_moves
    );

    let run_scenario = |name: &'static str, builder: &NetSimBuilder| -> ScenarioReport {
        eprintln!("# {name}: sequential reference …");
        let reference = builder.run_sequential(NoApp, duration);
        eprintln!("# {name}: static driver …");
        let static_run = run_driver(builder, static_policy, initial.clone(), duration);
        eprintln!("# {name}: adaptive driver …");
        let adaptive_run = run_driver(builder, policy, initial.clone(), duration);
        assert_driver_matches(name, &static_run, &reference);
        assert_driver_matches(name, &adaptive_run, &reference);
        ScenarioReport {
            name,
            static_run,
            adaptive_run,
        }
    };

    // Scenario 1 — bursty: busy hours rotate through all k regions.
    let mut bursty = NetSimBuilder::new(net.clone(), resolver.clone());
    bursty.add_agent(phased_traffic(&groups, duration, flows / k.max(1), 8, seed));
    let bursty_report = run_scenario("bursty busy-hour rotation", &bursty);

    // Scenario 2 — fault-flap: two regions trade the busy hour while
    // link flaps in the middle of the run reroute the transit load.
    let start = SimTime(duration.as_ns() * 3 / 10);
    let end = SimTime(duration.as_ns() * 7 / 10);
    let flaps = if opts.smoke { 4 } else { 12 };
    let script =
        FaultScript::random_link_flaps(&net, flaps, SimTime::from_ms(800), start, end, seed)
            .unwrap_or_else(|e| {
                HarnessOptions::usage_exit(&format!("cannot build fault script: {e}"))
            });
    let faults = FaultState::flat(&net, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let two_regions: Vec<Vec<NodeId>> = groups.iter().take(2).cloned().collect();
    let mut flap = NetSimBuilder::new_with_faults(net.clone(), faults);
    flap.add_agent(phased_traffic(
        &two_regions,
        duration,
        flows / 2,
        8,
        seed ^ 1,
    ));
    let flap_report = run_scenario("fault-flap region shift", &flap);

    for r in [&bursty_report, &flap_report] {
        report_scenario(r);
    }

    if opts.smoke {
        for r in [&bursty_report, &flap_report] {
            assert!(
                r.adaptive_run.outcome.migrations > 0,
                "{}: skewed traffic never triggered a migration",
                r.name
            );
            assert!(
                r.improvement() >= 1.3,
                "{}: adaptive must recover >= 1.3x of the static imbalance, got {:.2}x \
                 ({} -> {} permille)",
                r.name,
                r.improvement(),
                r.static_imbalance(),
                r.adaptive_imbalance()
            );
            assert!(
                r.adaptive_run.outcome.critical_path_events
                    < r.static_run.outcome.critical_path_events,
                "{}: migrations must shorten the critical path, got {} -> {}",
                r.name,
                r.static_run.outcome.critical_path_events,
                r.adaptive_run.outcome.critical_path_events
            );
        }
        println!();
        println!("smoke checks passed");
    }
}
