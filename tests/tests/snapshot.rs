//! Checkpoint/restore acceptance tests (ISSUE 7):
//!
//! 1. A session run in checkpointed segments — including through full
//!    serialize/deserialize round trips and sequential ↔ parallel
//!    executor switches — is bit-identical to one straight-through run.
//! 2. Snapshot files are untrusted: truncation, bit flips, and version
//!    skew yield structured errors (never panics) on load.
//! 3. Crash recovery resumes from the newest *valid* snapshot in a
//!    directory, recording why damaged ones were skipped.
//! 4. `branch()` forks what-if continuations off a shared prefix that
//!    match full replays of the divergent scenario exactly.

use massf_engine::{LpId, SimTime};
use massf_netsim::{
    Agent, FaultKind, FaultScript, FaultState, NetEvent, NetSimBuilder, NoApp, SharedNet,
    SimOutput, MAX_RETRIES,
};
use massf_routing::CostMetric;
use massf_snapshot::{recover_latest, scenario_fingerprint, ExecMode, Session};
use massf_topology::{
    generate_flat_network, AsId, FlatTopologyConfig, LinkId, MassfError, Network, NodeId, NodeKind,
    Point,
};
use proptest::prelude::*;

/// A small generated network with fault flaps and scripted TCP traffic.
/// Returns the builder (for reference runs) plus the session inputs.
fn flap_scenario(seed: u64, flaps: usize, flows: usize) -> NetSimBuilder {
    let mut cfg = FlatTopologyConfig::tiny();
    cfg.routers = 40;
    cfg.hosts = 16;
    cfg.metro_count = 2;
    cfg.seed = seed;
    let net = generate_flat_network(&cfg);
    let hosts = net.host_ids();
    let mut script = FaultScript::new();
    if flaps > 0 {
        script = FaultScript::random_link_flaps(
            &net,
            flaps,
            SimTime::from_ms(300),
            SimTime::from_ms(100),
            SimTime::from_ms(900),
            seed ^ 0xF00D,
        )
        .expect("tiny nets have router-router links to flap");
    }
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    for i in 0..flows {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 7 + 3) % hosts.len()];
        if src != dst {
            agent.inject_tcp(
                SimTime::from_ms(15 * i as u64),
                src,
                dst,
                30_000 + 9_000 * i as u64,
            );
        }
    }
    builder.add_agent(agent);
    builder
}

fn session_for(builder: &NetSimBuilder) -> Session {
    Session::new(builder.shared(), builder.initial_events(), MAX_RETRIES)
}

fn fingerprint_for(builder: &NetSimBuilder) -> u64 {
    scenario_fingerprint(&builder.shared(), &builder.initial_events(), MAX_RETRIES)
}

/// Parity-cut assignment and its safe barrier window (the cut MLL).
fn parity_cut(shared: &SharedNet, parts: u32) -> (Vec<u32>, SimTime) {
    let n = shared.lp_count();
    // simlint: allow(cast-lossy) -- partition index over a tiny test net
    let assignment: Vec<u32> = (0..n).map(|i| (i as u32) % parts).collect();
    let mut mll = f64::INFINITY;
    for link in &shared.net.links {
        if assignment[link.a.index()] != assignment[link.b.index()] {
            mll = mll.min(link.latency_ms);
        }
    }
    let window = SimTime::from_ms_f64(mll);
    assert!(window > SimTime::ZERO, "parity cut must sever some link");
    (assignment, window)
}

fn assert_matches_reference(session: &Session, reference: &SimOutput<NoApp>) {
    assert_eq!(session.total_events(), reference.stats.total_events);
    assert_eq!(session.lp_events(), &reference.stats.lp_events[..]);
    assert_eq!(session.profile(), &reference.profile);
}

#[test]
fn segmented_checkpoints_reproduce_the_straight_run() {
    let builder = flap_scenario(11, 2, 10);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let mut session = session_for(&builder);
    for k in 1..=4u64 {
        session
            .run_until(SimTime::from_ms(500 * k), &ExecMode::Sequential)
            .expect("segment runs");
    }
    assert_eq!(session.now(), end);
    assert_matches_reference(&session, &reference);
}

#[test]
fn serialize_deserialize_mid_run_is_invisible() {
    let builder = flap_scenario(23, 1, 8);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(700), &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();
    let mut revived = Session::decode(builder.shared(), fingerprint_for(&builder), &bytes)
        .expect("own snapshot loads");
    // Snapshot → restore → snapshot is idempotent.
    assert_eq!(revived.encode(), bytes);

    revived
        .run_until(end, &ExecMode::Sequential)
        .expect("suffix runs");
    assert_matches_reference(&revived, &reference);

    // The original, un-serialized session agrees too.
    session
        .run_until(end, &ExecMode::Sequential)
        .expect("suffix runs");
    assert_matches_reference(&session, &reference);
}

#[test]
fn executor_switches_at_checkpoints_are_invisible() {
    let builder = flap_scenario(31, 2, 10);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    let (assignment, window) = parity_cut(&builder.shared(), 2);
    let parallel = ExecMode::Parallel { assignment, window };

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(600), &parallel)
        .expect("parallel prefix");
    session
        .run_until(SimTime::from_ms(1300), &ExecMode::Sequential)
        .expect("sequential middle");
    session.run_until(end, &parallel).expect("parallel suffix");
    assert_matches_reference(&session, &reference);
}

/// Bad parallel layouts are structured errors, never panics, and a
/// refused segment leaves the session untouched: finishing the run
/// afterwards still reproduces the straight-through reference.
#[test]
fn bad_parallel_layouts_are_refused_and_leave_the_session_untouched() {
    let builder = flap_scenario(37, 1, 8);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    let (assignment, window) = parity_cut(&builder.shared(), 2);
    let mut huge_id = assignment.clone();
    huge_id[0] = u32::MAX;

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(700), &ExecMode::Sequential)
        .expect("sequential prefix");
    let cases = [
        ("zero window", assignment.clone(), SimTime::ZERO),
        ("short assignment", assignment[1..].to_vec(), window),
        ("partition id u32::MAX", huge_id, window),
    ];
    for (case, assignment, window) in cases {
        let err = session
            .run_until(end, &ExecMode::Parallel { assignment, window })
            .expect_err(case);
        assert!(matches!(err, MassfError::InvalidConfig(_)), "{case}: {err}");
        assert_eq!(session.now(), SimTime::from_ms(700), "{case}");
    }
    session
        .run_until(end, &ExecMode::Parallel { assignment, window })
        .expect("valid parallel suffix");
    assert_matches_reference(&session, &reference);
}

#[test]
fn fingerprint_mismatch_is_refused() {
    let builder = flap_scenario(41, 1, 6);
    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(300), &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();
    let err = Session::decode(builder.shared(), fingerprint_for(&builder) ^ 1, &bytes)
        .expect_err("wrong scenario must be refused");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
}

#[test]
fn corrupted_snapshots_are_structured_errors_never_panics() {
    let builder = flap_scenario(47, 1, 6);
    let fingerprint = fingerprint_for(&builder);
    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(400), &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();

    // Every truncation fails with a structured error.
    for cut in (0..bytes.len()).step_by(7) {
        let err = Session::decode(builder.shared(), fingerprint, &bytes[..cut])
            .expect_err("truncated snapshot must fail");
        assert!(
            matches!(err, MassfError::SnapshotCorrupt { .. }),
            "cut {cut}: {err}"
        );
    }

    // Every bit flip is either detected or (impossible for CRC-covered
    // bytes) decodes to the identical session.
    for byte in (0..bytes.len()).step_by(5) {
        for bit in [0u8, 3, 7] {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            if let Ok(s) = Session::decode(builder.shared(), fingerprint, &evil) {
                assert_eq!(
                    s.encode(),
                    bytes,
                    "byte {byte} bit {bit}: silent corruption"
                );
            }
        }
    }

    // A bumped format version is the dedicated mismatch error.
    let mut evil = bytes.clone();
    evil[8..12].copy_from_slice(&7u32.to_le_bytes());
    let err = Session::decode(builder.shared(), fingerprint, &evil)
        .expect_err("future version must be refused");
    match err {
        MassfError::SnapshotVersionMismatch { found, expected } => {
            assert_eq!(found, 7);
            assert_eq!(expected, massf_snapshot::FORMAT_VERSION);
        }
        other => panic!("expected SnapshotVersionMismatch, got {other}"),
    }
}

#[test]
fn recovery_resumes_from_newest_valid_snapshot() {
    let builder = flap_scenario(53, 1, 8);
    let fingerprint = fingerprint_for(&builder);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let dir = std::env::temp_dir().join(format!("massf-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Checkpoints at 400 ms and 800 ms; the newer one gets corrupted
    // (simulated torn write), and a decoy non-snapshot rides along.
    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(400), &ExecMode::Sequential)
        .expect("first segment");
    session.save(&dir.join("epoch-0400.snap")).expect("save");
    session
        .run_until(SimTime::from_ms(800), &ExecMode::Sequential)
        .expect("second segment");
    session.save(&dir.join("epoch-0800.snap")).expect("save");

    let torn = {
        let full = std::fs::read(dir.join("epoch-0800.snap")).expect("read back");
        full[..full.len() - 9].to_vec()
    };
    std::fs::write(dir.join("epoch-0800.snap"), torn).expect("tear the newest");
    std::fs::write(dir.join("garbage.snap"), b"not a snapshot").expect("decoy");
    std::fs::write(dir.join("notes.txt"), b"ignored: wrong extension").expect("decoy");

    let report =
        recover_latest(&dir, &builder.shared(), fingerprint).expect("one valid snapshot remains");
    assert_eq!(report.path, dir.join("epoch-0400.snap"));
    assert_eq!(report.session.now(), SimTime::from_ms(400));
    assert_eq!(report.skipped.len(), 2, "torn + garbage recorded");
    for (path, err) in &report.skipped {
        assert!(
            matches!(err, MassfError::SnapshotCorrupt { .. }),
            "{}: {err}",
            path.display()
        );
    }

    // Resuming from the survivor still reproduces the straight run.
    let mut resumed = report.session;
    resumed
        .run_until(end, &ExecMode::Sequential)
        .expect("resume to end");
    assert_matches_reference(&resumed, &reference);

    // With every snapshot damaged, recovery fails loudly.
    std::fs::remove_file(dir.join("epoch-0400.snap")).expect("remove survivor");
    let err =
        recover_latest(&dir, &builder.shared(), fingerprint).expect_err("no valid snapshot left");
    assert!(matches!(err, MassfError::SnapshotIo { .. }), "{err}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// ha — r0 — r1 — hb with a 3 ms detour through r2; the 1 ms r0–r1 hop
/// is primary until a branch kills it.
fn diamond() -> (Network, [NodeId; 5], LinkId) {
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
    let r2 = net.add_node(NodeKind::Router, Point::new(1.5, 1.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
    let bw = 1e7; // 10 Mbit/s: a 2 MB flow runs for ~1.6 s
    net.add_link(ha, r0, bw, 0.1);
    let primary = net.add_link(r0, r1, bw, 1.0);
    net.add_link(r0, r2, bw, 3.0);
    net.add_link(r2, r1, bw, 3.0);
    net.add_link(r1, hb, bw, 0.1);
    (net, [ha, r0, r1, r2, hb], primary)
}

#[test]
fn branches_fork_a_shared_prefix_and_match_full_replays() {
    let (net, [ha, _, _, r2, hb], primary) = diamond();
    let end = SimTime::from_secs(8);
    let branch_at = SimTime::from_ms(500);
    let fault_at = SimTime::from_ms(700);

    // Base scenario: fault machinery enabled, empty script.
    let base_faults =
        FaultState::flat(&net, CostMetric::Latency, FaultScript::new()).expect("empty script");
    let mut base = NetSimBuilder::new_with_faults(net.clone(), base_faults);
    base.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 2_000_000,
        },
    );
    let base_reference = base.run_sequential(NoApp, end);

    // Shared prefix, computed once.
    let mut trunk = session_for(&base);
    trunk
        .run_until(branch_at, &ExecMode::Sequential)
        .expect("prefix runs");
    let prefix_events = trunk.total_events();
    assert!(prefix_events > 0, "the flow must be mid-flight at the fork");

    // Branch A: no divergence — replays the base timeline.
    let mut branch_a = trunk
        .branch(trunk.shared(), Vec::new())
        .expect("identity branch");
    branch_a
        .run_until(end, &ExecMode::Sequential)
        .expect("branch A runs");
    assert_matches_reference(&branch_a, &base_reference);

    // Branch B: the primary link dies mid-flow. Its reference is a full
    // replay under the extended script.
    let mut what_if = FaultScript::new();
    what_if.link_down(fault_at, primary);
    let branch_faults =
        FaultState::flat(&net, CostMetric::Latency, what_if).expect("script validates");
    let branch_shared = SharedNet::with_faults(net.clone(), branch_faults.clone());
    let suffix = vec![(
        fault_at,
        LpId(net.links[primary.index()].a.0),
        NetEvent::Fault {
            kind: FaultKind::LinkDown(primary),
        },
    )];
    let mut branch_b = trunk.branch(branch_shared, suffix).expect("fault branch");
    branch_b
        .run_until(end, &ExecMode::Sequential)
        .expect("branch B runs");

    let mut replay = NetSimBuilder::new_with_faults(net.clone(), branch_faults);
    replay.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 2_000_000,
        },
    );
    let replay_reference = replay.run_sequential(NoApp, end);
    assert_matches_reference(&branch_b, &replay_reference);

    // The what-if genuinely diverged: the fault fired and traffic took
    // the detour router that the base timeline never touches.
    assert_eq!(branch_b.profile().fault_events, 1);
    assert_eq!(base_reference.profile.fault_events, 0);
    assert!(branch_b.profile().node_packets[r2.index()] > 0);
    assert_eq!(base_reference.profile.node_packets[r2.index()], 0);

    // Branch C: extra injected traffic — tags continue past the initial
    // events, matching a full replay with the suffix appended.
    let extra_at = SimTime::from_ms(900);
    let suffix_c = vec![(
        extra_at,
        LpId(hb.0),
        NetEvent::StartFlow {
            dst: ha,
            bytes: 300_000,
        },
    )];
    let mut branch_c = trunk
        .branch(trunk.shared(), suffix_c.clone())
        .expect("traffic branch");
    branch_c
        .run_until(end, &ExecMode::Sequential)
        .expect("branch C runs");

    let mut replay_c = NetSimBuilder::new_with_faults(
        net.clone(),
        FaultState::flat(&net, CostMetric::Latency, FaultScript::new()).expect("empty script"),
    );
    replay_c.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 2_000_000,
        },
    );
    replay_c.add_initial_events(suffix_c);
    let replay_c_reference = replay_c.run_sequential(NoApp, end);
    assert_matches_reference(&branch_c, &replay_c_reference);
    assert_eq!(branch_c.profile().completed_flows, 2);

    // Branch rejection: events before the fork are refused.
    let stale = vec![(
        SimTime::from_ms(100),
        LpId(ha.0),
        NetEvent::StartFlow { dst: hb, bytes: 1 },
    )];
    assert!(matches!(
        trunk.branch(trunk.shared(), stale),
        Err(MassfError::InvalidConfig(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: for random topologies, fault scripts,
    /// checkpoint cadences, and thread counts — with a serialization
    /// round trip at every checkpoint — segmented execution is
    /// bit-identical to the straight-through sequential run.
    #[test]
    fn random_cadences_and_thread_counts_are_bit_identical(
        seed in 0u64..1_000,
        flaps in 0usize..3,
        segments in 1u64..4,
        parts in 1u32..3,
    ) {
        let builder = flap_scenario(seed, flaps, 8);
        let end = SimTime::from_ms(1_500);
        let reference = builder.run_sequential(NoApp, end);
        let fingerprint = fingerprint_for(&builder);

        let mode = if parts == 1 {
            ExecMode::Sequential
        } else {
            let (assignment, window) = parity_cut(&builder.shared(), parts);
            ExecMode::Parallel { assignment, window }
        };

        let mut session = session_for(&builder);
        for k in 1..=segments {
            session
                .run_until(SimTime::from_ms(k * 1_500 / segments), &mode)
                .expect("segment runs");
            // Round-trip through bytes at every checkpoint.
            session = Session::decode(builder.shared(), fingerprint, &session.encode())
                .expect("own snapshot loads");
        }
        prop_assert_eq!(session.now(), end);
        prop_assert_eq!(session.total_events(), reference.stats.total_events);
        prop_assert_eq!(session.lp_events(), &reference.stats.lp_events[..]);
        prop_assert_eq!(session.profile(), &reference.profile);
    }
}
