//! Cross-crate integration tests for `massf-rs` live in `tests/`; this
//! library only hosts shared helpers.

#![forbid(unsafe_code)]

use massf_core::prelude::*;
use massf_engine::NoopBarrierObserver;
use massf_netsim::{NetSimBuilder, NoApp, SimOutput};

/// A deterministic tiny single-AS scenario for integration tests.
pub fn tiny_single_as(seed: u64) -> Scenario {
    Scenario::build(
        ScenarioKind::SingleAs,
        Scale::Tiny,
        WorkloadKind::ScaLapack,
        seed,
    )
}

/// A deterministic tiny multi-AS scenario for integration tests.
pub fn tiny_multi_as(seed: u64) -> Scenario {
    Scenario::build(
        ScenarioKind::MultiAs,
        Scale::Tiny,
        WorkloadKind::GridNpb,
        seed,
    )
}

/// A mapping configuration sized for tiny scenarios.
pub fn tiny_mapping_config(engines: usize) -> MappingConfig {
    let mut cfg = MappingConfig::new(engines);
    cfg.sync = SyncCostModel::new(20.0, 30.0);
    cfg
}

/// Run `builder` until `end` on `partitions` threads over the node-parity
/// cut (node `i` on partition `i % partitions`), synchronizing every cut
/// MLL; one partition runs the sequential executor.
pub fn run_parity_cut(
    builder: &NetSimBuilder,
    end: SimTime,
    partitions: usize,
) -> SimOutput<NoApp> {
    if partitions == 1 {
        return builder.run_sequential(NoApp, end);
    }
    let shared = builder.shared();
    let assignment: Vec<u32> = (0..shared.lp_count())
        .map(|i| (i % partitions) as u32)
        .collect();
    let mll = achieved_mll_ms(&shared.net, &assignment).expect("a parity cut severs some link");
    builder
        .try_run_parallel_observed(
            NoApp,
            end,
            SimTime::from_ms_f64(mll),
            &assignment,
            partitions,
            &NoopBarrierObserver,
        )
        .expect("window = cut MLL cannot violate lookahead")
}
