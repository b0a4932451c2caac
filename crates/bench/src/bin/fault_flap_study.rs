//! Fault-injection study: replay a seeded link-flap script over the
//! single-AS scenario and report how the simulation absorbs it —
//! packet-loss windows, flow abort rates, online reconvergence count,
//! and how much the HPROF load-balance mapping drifts when it is fed the
//! faulted traffic profile instead of the clean one.
//!
//! Defaults to `--scale medium` (the 2,000-router single-AS network);
//! see EXPERIMENTS.md ("Link-flap runbook") for the expected output.
//!
//! Extra flags on top of the shared harness set:
//!
//! ```text
//! --flaps N        number of link flaps to script (default: 12)
//! --down-ms MS     downtime per flap, milliseconds (default: 2000)
//! --max-retries N  TCP retry budget before a flow aborts (default: 6);
//!                  lower it to make flows give up inside a flap window,
//!                  raise it to ride the outage out
//! --rebalance-epoch MS      also run the online rebalancer over the
//!                  faulted scenario at this epoch cadence, starting
//!                  from the clean-profile HPROF map, and report how
//!                  much of the flap-induced imbalance it recovers
//! --rebalance-threshold P   its trigger threshold, permille of perfect
//!                  balance (default: 1200)
//! --smoke          tiny network, short run, self-checking (used by
//!                  scripts/check.sh)
//! ```
//!
//! The report is bit-identical across `--threads` values: fault state is
//! a pure function of virtual time, so worker-pool scheduling cannot
//! leak into any number printed here (the `--smoke` mode asserts the
//! sequential/parallel equality directly).

use massf_bench::{HarnessOptions, MeasuredBarriers};
use massf_core::prelude::*;
use massf_engine::RebalanceConfig;
use massf_netsim::{
    Agent, FaultScript, FaultState, NetSimBuilder, NoApp, ProfileData, SimOutput,
    FLUID_CONTROL_DELAY, MAX_RETRIES,
};
use massf_routing::{CostMetric, FlatResolver};
use massf_snapshot::Session;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

struct StudyOptions {
    harness: HarnessOptions,
    flaps: usize,
    down: SimTime,
    max_retries: u32,
    rebalance_epoch: Option<SimTime>,
    rebalance_threshold: u64,
    smoke: bool,
}

fn parse_extra(harness: HarnessOptions, rest: Vec<String>) -> StudyOptions {
    let mut opts = StudyOptions {
        harness,
        flaps: 12,
        down: SimTime::from_ms(2000),
        max_retries: MAX_RETRIES,
        rebalance_epoch: None,
        rebalance_threshold: 1200,
        smoke: false,
    };
    let mut iter = rest.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| match iter.next() {
            Some(v) => v,
            None => HarnessOptions::usage_exit(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--flaps" => {
                let v = value("--flaps");
                opts.flaps = match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        HarnessOptions::usage_exit(&format!("--flaps must be a number, got {v:?}"))
                    }
                };
            }
            "--down-ms" => {
                let v = value("--down-ms");
                opts.down = match v.parse::<u64>() {
                    Ok(ms) => SimTime::from_ms(ms),
                    Err(_) => HarnessOptions::usage_exit(&format!(
                        "--down-ms must be a number, got {v:?}"
                    )),
                };
            }
            "--max-retries" => {
                let v = value("--max-retries");
                opts.max_retries = match v.parse() {
                    Ok(n) => n,
                    Err(_) => HarnessOptions::usage_exit(&format!(
                        "--max-retries must be a number, got {v:?}"
                    )),
                };
            }
            "--rebalance-epoch" => {
                let v = value("--rebalance-epoch");
                opts.rebalance_epoch = match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => Some(SimTime::from_ms(ms)),
                    _ => HarnessOptions::usage_exit(&format!(
                        "--rebalance-epoch must be a positive number of ms, got {v:?}"
                    )),
                };
            }
            "--rebalance-threshold" => {
                let v = value("--rebalance-threshold");
                opts.rebalance_threshold = match v.parse() {
                    Ok(p) if p >= 1000 => p,
                    _ => HarnessOptions::usage_exit(&format!(
                        "--rebalance-threshold is permille of perfect balance and must be \
                         >= 1000, got {v:?}"
                    )),
                };
            }
            "--smoke" => opts.smoke = true,
            other => HarnessOptions::usage_exit(&format!(
                "unknown argument {other:?} (extra flags: --flaps/--down-ms/--max-retries/\
                 --rebalance-epoch/--rebalance-threshold/--smoke)"
            )),
        }
    }
    opts
}

/// Seeded background traffic: TCP flows between random host pairs,
/// injected over the first 60% of the run, plus one fluid background
/// flow per four TCP flows so the study exercises the mixed-fidelity
/// fault interaction (reroute/terminate on flap) at study scale.
fn traffic(hosts: &[NodeId], duration: SimTime, flows: usize, seed: u64) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1A9);
    let mut agent = Agent::new();
    let span = (duration.as_ns() * 6 / 10).max(1);
    for _ in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let mut dst = hosts[rng.gen_range(0..hosts.len())];
        if dst == src {
            dst = hosts[(rng.gen_range(0..hosts.len()) + 1) % hosts.len()];
        }
        if dst == src {
            continue;
        }
        let at = SimTime(rng.gen_range(0..span));
        let bytes = 10_000 + rng.gen_range(0u64..190_000);
        agent.inject_tcp(at, src, dst, bytes);
    }
    for _ in 0..flows / 4 {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if dst == src {
            continue;
        }
        let at = SimTime(rng.gen_range(0..span));
        let bytes = 200_000 + rng.gen_range(0u64..1_800_000);
        agent.inject_fluid(at, src, dst, bytes);
    }
    agent
}

/// Per-partition packet loads under an assignment, for imbalance.
fn partition_loads(profile: &ProfileData, assignment: &[u32], engines: usize) -> Vec<f64> {
    let mut loads = vec![0.0; engines];
    for (node, &packets) in profile.node_packets.iter().enumerate() {
        loads[assignment[node] as usize] += packets as f64;
    }
    loads
}

fn main() {
    let (harness, rest) = HarnessOptions::from_env_partial();
    let mut opts = parse_extra(harness, rest);
    // This study defaults to the 2k-router single-AS world (the shared
    // harness default is small); an explicit --scale wins, --smoke
    // shrinks everything.
    let scale_given = std::env::args().any(|a| a == "--scale");
    if opts.smoke {
        opts.harness.scale = Scale::Tiny;
        opts.flaps = opts.flaps.min(4);
        // Exercise the online-rebalance reporting path in CI.
        opts.rebalance_epoch = Some(opts.rebalance_epoch.unwrap_or(SimTime::from_ms(2000)));
    } else if !scale_given {
        opts.harness.scale = Scale::Medium;
    }

    let scale = opts.harness.scale;
    let seed = opts.harness.seed;
    let duration = if opts.smoke {
        SimTime::from_secs(20)
    } else {
        scale.run_duration().max(SimTime::from_secs(30))
    };

    eprintln!("# generating {scale:?} single-AS network (seed {seed}) …");
    let net = generate_flat_network(&scale.flat_config(seed));
    let hosts = net.host_ids();
    let flows = (hosts.len() * 2).clamp(64, 4000);

    // Fault script: seeded link flaps inside the middle of the run, so
    // both a clean prefix and a recovered tail exist.
    let start = SimTime(duration.as_ns() / 5);
    let end = SimTime(duration.as_ns() * 4 / 5);
    let script = FaultScript::random_link_flaps(&net, opts.flaps, opts.down, start, end, seed)
        .unwrap_or_else(|e| HarnessOptions::usage_exit(&format!("cannot build fault script: {e}")));
    eprintln!(
        "# scripted {} fault events over [{:.1}s, {:.1}s], {} ms downtime per flap",
        script.len(),
        start.as_secs_f64(),
        end.as_secs_f64(),
        opts.down.as_ms_f64(),
    );

    // Clean run (reference) and faulted run over identical traffic.
    let run = |faults: Option<Arc<FaultState>>| -> SimOutput<NoApp> {
        let mut builder = match faults {
            Some(f) => NetSimBuilder::new_with_faults(net.clone(), f),
            None => {
                let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
                NetSimBuilder::new(net.clone(), resolver)
            }
        };
        builder.max_retries(opts.max_retries);
        builder.add_agent(traffic(&hosts, duration, flows, seed));
        builder.run_sequential(NoApp, duration)
    };

    eprintln!("# clean reference run …");
    let clean = run(None);
    eprintln!("# faulted run …");
    let faults = FaultState::flat(&net, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let faulted = run(Some(faults.clone()));

    println!("== fault_flap_study ({scale:?}, seed {seed}) ==");
    println!(
        "network: {} nodes / {} links, {} flows over {:.0}s, TCP retry budget {}",
        net.node_count(),
        net.links.len(),
        flows,
        duration.as_secs_f64(),
        opts.max_retries
    );

    // Packet-loss windows: the faulty epochs, with their failure state.
    println!();
    println!(
        "{:>5} {:>10} {:>10} {:>11} {:>11}",
        "epoch", "start_s", "end_s", "links_down", "nodes_down"
    );
    for e in 0..faults.epoch_count() {
        let start = faults.epoch_start(e);
        let end = if e + 1 < faults.epoch_count() {
            faults.epoch_start(e + 1)
        } else {
            duration
        };
        let st = faults.epoch_state(e);
        println!(
            "{:>5} {:>10.2} {:>10.2} {:>11} {:>11}",
            e,
            start.as_secs_f64(),
            end.as_secs_f64(),
            st.dead_links.len(),
            st.dead_nodes.len()
        );
    }

    let abort_rate = |p: &ProfileData| {
        let total = p.completed_flows + p.aborted_flows;
        if total == 0 {
            0.0
        } else {
            p.aborted_flows as f64 / total as f64
        }
    };
    println!();
    println!("{:<22} {:>14} {:>14}", "metric", "clean", "faulted");
    let rows: [(&str, u64, u64); 18] = [
        (
            "total events",
            clean.stats.total_events,
            faulted.stats.total_events,
        ),
        (
            "completed flows",
            clean.profile.completed_flows,
            faulted.profile.completed_flows,
        ),
        (
            "aborted flows",
            clean.profile.aborted_flows,
            faulted.profile.aborted_flows,
        ),
        (
            "unroutable",
            clean.profile.unroutable,
            faulted.profile.unroutable,
        ),
        ("queue drops", clean.profile.drops, faulted.profile.drops),
        (
            "fault drops",
            clean.profile.fault_drops,
            faulted.profile.fault_drops,
        ),
        (
            "fault events",
            clean.profile.fault_events,
            faulted.profile.fault_events,
        ),
        (
            "route-cache hits",
            clean.profile.route_cache.hits,
            faulted.profile.route_cache.hits,
        ),
        (
            "route-cache misses",
            clean.profile.route_cache.misses,
            faulted.profile.route_cache.misses,
        ),
        (
            "route-cache evictions",
            clean.profile.route_cache.evictions,
            faulted.profile.route_cache.evictions,
        ),
        (
            "fluid started",
            clean.profile.fluid.started,
            faulted.profile.fluid.started,
        ),
        (
            "fluid completed",
            clean.profile.fluid.completed,
            faulted.profile.fluid.completed,
        ),
        (
            "fluid aborted",
            clean.profile.fluid.aborted,
            faulted.profile.fluid.aborted,
        ),
        (
            "fluid rerouted",
            clean.profile.fluid.rerouted,
            faulted.profile.fluid.rerouted,
        ),
        (
            "fluid rate recomputes",
            clean.profile.fluid.rate_recomputes,
            faulted.profile.fluid.rate_recomputes,
        ),
        (
            "fluid bottleneck rcmp",
            clean.profile.fluid.bottleneck_recomputes,
            faulted.profile.fluid.bottleneck_recomputes,
        ),
        (
            "fluid cap updates",
            clean.profile.fluid.cap_updates,
            faulted.profile.fluid.cap_updates,
        ),
        (
            "fluid pkt-load updates",
            clean.profile.fluid.packet_load_updates,
            faulted.profile.fluid.packet_load_updates,
        ),
    ];
    for (name, c, f) in rows {
        println!("{name:<22} {c:>14} {f:>14}");
    }
    println!(
        "{:<22} {:>14.4} {:>14.4}",
        "route-cache hit rate",
        clean.profile.route_cache.hit_rate(),
        faulted.profile.route_cache.hit_rate()
    );
    println!(
        "{:<22} {:>14.4} {:>14.4}",
        "flow abort rate",
        abort_rate(&clean.profile),
        abort_rate(&faulted.profile)
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "reconvergences",
        0,
        faults.reconvergence_count()
    );

    // HPROF drift: map the network with the clean profile and with the
    // faulted profile; report how far the assignment and the resulting
    // load balance move.
    let cfg = opts.harness.mapping_config();
    eprintln!("# HPROF mapping with clean profile …");
    let map_clean = map_network(&net, Some(&clean.profile), MappingApproach::Hprof, &cfg);
    eprintln!("# HPROF mapping with faulted profile …");
    let map_fault = map_network(&net, Some(&faulted.profile), MappingApproach::Hprof, &cfg);
    let moved = map_clean
        .partition
        .assignment
        .iter()
        .zip(&map_fault.partition.assignment)
        .filter(|(a, b)| a != b)
        .count();
    let drift = moved as f64 / net.node_count() as f64;
    let engines = cfg.engines;
    let imb_clean = load_imbalance(&partition_loads(
        &faulted.profile,
        &map_clean.partition.assignment,
        engines,
    ));
    let imb_fault = load_imbalance(&partition_loads(
        &faulted.profile,
        &map_fault.partition.assignment,
        engines,
    ));
    println!();
    println!("HPROF drift ({engines} engines):");
    println!(
        "  assignment drift:    {:.4} ({moved}/{} nodes reassigned)",
        drift,
        net.node_count()
    );
    println!("  imbalance (clean-profile map, faulted load):   {imb_clean:.4}");
    println!("  imbalance (faulted-profile map, faulted load): {imb_fault:.4}");

    // Online rebalancing over the faulted scenario: start from the
    // mapping HPROF computed at deployment time (the clean profile) and
    // let the epoch-cadenced rebalancer chase the flap-induced load
    // shift. The static row runs the identical driver with the trigger
    // pinned off (threshold u64::MAX), so the comparison shares the
    // exact epoch segmentation. See rebalance_study for the full sweep.
    if let Some(epoch) = opts.rebalance_epoch {
        let adaptive_policy = RebalanceConfig {
            epoch,
            threshold_permille: opts.rebalance_threshold,
            ..RebalanceConfig::default()
        };
        let static_policy = RebalanceConfig {
            threshold_permille: u64::MAX,
            ..adaptive_policy
        };
        let run_driver = |policy: RebalanceConfig| {
            let mut builder = NetSimBuilder::new_with_faults(net.clone(), faults.clone());
            builder.max_retries(opts.max_retries);
            builder.add_agent(traffic(&hosts, duration, flows, seed));
            let mut session = Session::new_rebalancing(
                builder.shared(),
                builder.initial_events(),
                opts.max_retries,
                policy,
                map_clean.partition.assignment.clone(),
            )
            .expect("valid policy and HPROF assignment");
            let outcome = session.run_rebalancing(duration).expect("driver runs");
            let partitions = session
                .rebalance_state()
                .expect("rebalancing session")
                .partitions as usize;
            (outcome, partitions, session)
        };
        eprintln!("# online rebalance, static driver …");
        let (st, st_parts, _) = run_driver(static_policy);
        eprintln!("# online rebalance, adaptive driver …");
        let (ad, ad_parts, ad_session) = run_driver(adaptive_policy);
        println!();
        println!(
            "online rebalance ({engines} engines, epoch {:.0} ms, threshold {} permille):",
            epoch.as_ms_f64(),
            opts.rebalance_threshold
        );
        println!(
            "  max/mean load (permille):  static {} -> adaptive {} ({:.2}x over {} epochs)",
            st.aggregate_imbalance_permille(st_parts),
            ad.aggregate_imbalance_permille(ad_parts),
            st.aggregate_imbalance_permille(st_parts) as f64
                / ad.aggregate_imbalance_permille(ad_parts).max(1) as f64,
            ad.epochs
        );
        println!(
            "  rebalances / LP migrations:  {} / {}",
            ad.rebalances, ad.migrations
        );
        println!(
            "  critical-path events:  static {} -> adaptive {}",
            st.critical_path_events, ad.critical_path_events
        );
        // The rebalancing trajectory answers exactly what the sequential
        // faulted run answers, migrations and all.
        assert_eq!(
            ad_session.total_events(),
            faulted.stats.total_events,
            "adaptive rebalancing run diverged from the sequential faulted run"
        );
        assert_eq!(
            ad_session.profile(),
            &faulted.profile,
            "adaptive rebalancing profile diverged from the sequential faulted run"
        );
    }

    if opts.smoke {
        // Self-checks: faults actually fired, losses were tolerated, and
        // the faulted run is bit-identical in parallel.
        assert_eq!(
            faulted.profile.fault_events as usize,
            faults.script().len(),
            "every scripted fault must be handled"
        );
        assert!(
            faults.reconvergence_count() > 0,
            "no reconvergence happened"
        );
        assert!(
            faulted.profile.completed_flows > 0,
            "faulted run completed no flows"
        );
        // Hits are workload-dependent (the tiny smoke traffic rarely
        // repeats a pair within one epoch); repeated-pair hit behavior
        // is asserted by the route_resolution bench smoke instead.
        assert!(
            faulted.profile.route_cache.misses > 0,
            "route cache was never consulted"
        );
        assert!(
            faulted.profile.fluid.started > 0,
            "no fluid background traffic flowed"
        );
        let n = net.node_count();
        let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mut mll = f64::INFINITY;
        for link in &net.links {
            if assignment[link.a.index()] != assignment[link.b.index()] {
                mll = mll.min(link.latency_ms);
            }
        }
        let mut builder = NetSimBuilder::new_with_faults(net.clone(), faults.clone());
        builder.max_retries(opts.max_retries);
        builder.add_agent(traffic(&hosts, duration, flows, seed));
        let observer = MeasuredBarriers::new(2);
        let par = builder
            .try_run_parallel_observed(
                NoApp,
                duration,
                // Fluid control events promise exactly
                // FLUID_CONTROL_DELAY of cross-LP lookahead, so the
                // window is the cut MLL capped at that delay.
                SimTime::from_ms_f64(mll).min(FLUID_CONTROL_DELAY),
                &assignment,
                2,
                &observer,
            )
            .expect("smoke window is within both the cut MLL and the fluid control delay");
        assert_eq!(
            par.stats.total_events, faulted.stats.total_events,
            "parallel faulted run diverged from sequential"
        );
        assert_eq!(
            par.profile, faulted.profile,
            "parallel faulted profile diverged from sequential"
        );
        // The quiet stretches between fault epochs are exactly what the
        // executor's empty-window fast-forward is for: the run must skip
        // barriers, and the observer must have a measurement for every
        // partition.
        assert!(
            par.stats.windows_skipped > 0,
            "expected idle windows between fault epochs to be fast-forwarded"
        );
        assert_eq!(
            par.stats.barrier_rounds,
            1 + 2 * par.stats.windows_executed,
            "barrier rounds must track executed windows only"
        );
        assert_eq!(par.stats.barrier_wait_us.len(), 2);
        println!();
        println!(
            "parallel smoke: {} windows executed, {} skipped, {} barrier rounds, \
             mean barrier wait {:.0} us/partition",
            par.stats.windows_executed,
            par.stats.windows_skipped,
            par.stats.barrier_rounds,
            par.stats.barrier_wait_us.iter().sum::<f64>() / 2.0
        );
        println!("smoke checks passed");
    }
}
