//! The paper's pipeline, driven through public APIs only: scenario
//! build, profiling run, HPROF 2-way mapping, then simulation legs.
//!
//! Leg isolation: the network, the generated inputs and the mapping are
//! shared, but every leg gets its own freshly built resolver (and, with
//! faults, its own `FaultState`), so no leg runs on route tables or
//! reconvergence state another leg warmed.

use crate::workload::{
    flap_window, fluid_flows, FluidFlow, Spec, WindowRule, FLAP_DOWN, FLAP_STREAM,
};
use massf_core::scenario::ScenarioApp;
use massf_core::{
    map_network, run_profiling, MappingApproach, MappingConfig, MappingResult, Scenario,
    ScenarioKind,
};
use massf_engine::{BarrierObserver, ExecutionStats, MassfError, SimTime};
use massf_netsim::{FaultScript, FaultState, NetSimBuilder, ProfileData};
use massf_routing::{CostMetric, FlatResolver};
use std::sync::Arc;
use std::time::Instant;

/// Partitions of the parallel leg (and of the HPROF mapping).
pub const PARTITIONS: usize = 2;

/// Host threads used by set-up's parallel sections.
pub const SETUP_THREADS: usize = 2;

/// The pipeline's window floor (`massf_core::pipeline`'s `MIN_WINDOW`).
const MIN_WINDOW: SimTime = SimTime(10_000);

/// A workload made ready to simulate: network, generated inputs and
/// the HPROF mapping. Shared, read-only, by every leg.
pub struct Prepared {
    pub spec: Spec,
    pub scenario: Scenario,
    pub fluid: Vec<FluidFlow>,
    pub script: Option<FaultScript>,
    pub mapping: MappingResult,
    pub window: SimTime,
}

/// Which generated inputs a leg carries; the ablation legs drop one.
#[derive(Clone, Copy)]
pub struct Variant {
    pub fluid: bool,
    pub faults: bool,
}

impl Variant {
    pub const FULL: Variant = Variant {
        fluid: true,
        faults: true,
    };
    pub const NO_FLUID: Variant = Variant {
        fluid: false,
        faults: true,
    };
    pub const NO_FAULTS: Variant = Variant {
        fluid: true,
        faults: false,
    };
}

/// One simulation leg, ready to run: a builder over its own resolver.
pub struct Leg {
    pub(crate) builder: NetSimBuilder,
    app: ScenarioApp,
    end: SimTime,
}

/// What a leg produced; `wall_s` is the simulation call alone.
#[derive(Clone)]
pub struct LegRun {
    pub wall_s: f64,
    pub stats: ExecutionStats,
    pub profile: ProfileData,
}

/// Build the scenario, run profiling and map it with HPROF onto
/// [`PARTITIONS`] engines, then build the two legs a timed iteration
/// runs (sequential, parallel). Everything between "nothing" and "ready
/// to simulate" happens here, on [`SETUP_THREADS`] threads.
pub fn setup(spec: Spec, seed: u64) -> Result<(Prepared, Leg, Leg), MassfError> {
    massf_parutil::with_threads(SETUP_THREADS, || {
        let prepared = Prepared::build(spec, seed)?;
        let seq = prepared.leg(Variant::FULL)?;
        let par = prepared.leg(Variant::FULL)?;
        Ok((prepared, seq, par))
    })
}

impl Prepared {
    /// Scenario, profiling run, mapping and generated inputs. Callers
    /// that time the stages one by one use [`Self::new`] instead.
    pub fn build(spec: Spec, seed: u64) -> Result<Prepared, MassfError> {
        let scenario = Scenario::build(ScenarioKind::SingleAs, spec.scale, spec.app, seed);
        let profile = run_profiling(&scenario, spec.duration);
        let mapping = map_hprof(&scenario, &profile);
        Prepared::new(spec, scenario, mapping)
    }

    /// Finish set-up from a scenario and its mapping:
    /// generate the fluid flows and fault script, and fix the window.
    pub fn new(
        spec: Spec,
        scenario: Scenario,
        mapping: MappingResult,
    ) -> Result<Prepared, MassfError> {
        let seed = scenario.seed;
        let fluid = fluid_flows(&spec, &scenario.net, seed);
        let script = if spec.flaps > 0 {
            let (start, end) = flap_window(&spec);
            Some(FaultScript::random_link_flaps(
                &scenario.net,
                spec.flaps,
                FLAP_DOWN,
                start,
                end,
                seed ^ FLAP_STREAM,
            )?)
        } else {
            None
        };
        let mut prepared = Prepared {
            spec,
            scenario,
            fluid,
            script,
            mapping,
            window: SimTime::ZERO,
        };
        prepared.window = match spec.window {
            WindowRule::AchievedMll if prepared.mapping.achieved_mll_ms.is_finite() => {
                SimTime::from_ms_f64(prepared.mapping.achieved_mll_ms).max(MIN_WINDOW)
            }
            WindowRule::AchievedMll => spec.duration,
            WindowRule::SafeParallel => prepared
                .leg(Variant::NO_FAULTS)?
                .builder
                .shared()
                .safe_parallel_window(prepared.assignment()),
        };
        Ok(prepared)
    }

    pub fn assignment(&self) -> &[u32] {
        &self.mapping.partition.assignment
    }

    /// A fresh leg: its own resolver or `FaultState`, the scenario's
    /// traffic, and the fluid flows and faults `variant` keeps.
    pub fn leg(&self, variant: Variant) -> Result<Leg, MassfError> {
        let net = self.scenario.net.clone();
        let mut builder = match (&self.script, variant.faults) {
            (Some(script), true) => NetSimBuilder::new_with_faults(
                net,
                FaultState::flat(&self.scenario.net, CostMetric::Latency, script.clone())?,
            ),
            _ => NetSimBuilder::new(
                net,
                Arc::new(FlatResolver::new(&self.scenario.net, CostMetric::Latency)),
            ),
        };
        let (app, events) = self.scenario.make_app();
        builder.add_initial_events(events);
        if variant.fluid {
            for f in &self.fluid {
                builder.add_fluid_flow(f.at, f.src, f.dst, f.bytes, 0);
            }
        }
        Ok(Leg {
            builder,
            app,
            end: self.spec.duration,
        })
    }
}

/// The paper's HPROF mapping onto [`PARTITIONS`] engines.
pub fn map_hprof(scenario: &Scenario, profile: &ProfileData) -> MappingResult {
    map_network(
        &scenario.net,
        Some(profile),
        MappingApproach::Hprof,
        &MappingConfig::new(PARTITIONS),
    )
}

impl Leg {
    /// Run on the sequential reference executor.
    pub fn run_sequential(&self) -> LegRun {
        let app = self.app.clone();
        let t = Instant::now();
        let out = self.builder.run_sequential(app, self.end);
        let wall_s = t.elapsed().as_secs_f64();
        LegRun {
            wall_s,
            stats: out.stats,
            profile: out.profile,
        }
    }

    /// Run on the real executor, one thread per partition.
    pub fn run_parallel<O: BarrierObserver>(
        &self,
        prepared: &Prepared,
        observer: &O,
    ) -> Result<LegRun, MassfError> {
        let app = self.app.clone();
        let t = Instant::now();
        let out = self.builder.try_run_parallel_observed(
            app,
            self.end,
            prepared.window,
            prepared.assignment(),
            PARTITIONS,
            observer,
        )?;
        let wall_s = t.elapsed().as_secs_f64();
        Ok(LegRun {
            wall_s,
            stats: out.stats,
            profile: out.profile,
        })
    }

    /// Epoch resolvers this leg's `FaultState` has built so far (zero
    /// without faults).
    pub fn reconvergences(&self) -> u64 {
        self.builder
            .shared()
            .faults
            .as_ref()
            .map_or(0, |f| f.reconvergence_count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::same_outcome;
    use crate::workload::Workload;
    use massf_engine::NoopBarrierObserver;

    const SEED: u64 = 5;

    #[test]
    fn no_two_legs_share_routing_or_fault_state() {
        for w in Workload::ALL {
            let spec = w.tiny_spec();
            let (prepared, seq, par) = setup(spec, SEED).expect("tiny set-up");
            let ablation = prepared.leg(Variant::NO_FLUID).expect("leg");
            let shared: Vec<_> = [&seq, &par, &ablation]
                .iter()
                .map(|leg| leg.builder.shared())
                .collect();
            for (i, a) in shared.iter().enumerate() {
                assert!(
                    !Arc::ptr_eq(&a.resolver, &prepared.scenario.resolver),
                    "{}: a leg routes on the profiling run's resolver",
                    w.name()
                );
                assert_eq!(a.faults.is_some(), spec.flaps > 0, "{}", w.name());
                for b in &shared[i + 1..] {
                    assert!(
                        !Arc::ptr_eq(&a.resolver, &b.resolver),
                        "{}: two legs share a resolver",
                        w.name()
                    );
                    if let (Some(fa), Some(fb)) = (&a.faults, &b.faults) {
                        assert!(
                            !Arc::ptr_eq(fa, fb),
                            "{}: two legs share a FaultState",
                            w.name()
                        );
                    }
                }
            }
        }
    }

    /// Deterministic counters of a sequential and a parallel leg run in
    /// the given order on fresh legs.
    fn run_legs(prepared: &Prepared, parallel_first: bool) -> (LegRun, LegRun, u64, u64) {
        let (seq_leg, par_leg) = (
            prepared.leg(Variant::FULL).expect("leg"),
            prepared.leg(Variant::FULL).expect("leg"),
        );
        let run_par = || {
            par_leg
                .run_parallel(prepared, &NoopBarrierObserver)
                .expect("parallel leg")
        };
        let (seq, par) = if parallel_first {
            let par = run_par();
            (seq_leg.run_sequential(), par)
        } else {
            let seq = seq_leg.run_sequential();
            (seq, run_par())
        };
        (seq, par, seq_leg.reconvergences(), par_leg.reconvergences())
    }

    #[test]
    fn leg_order_does_not_change_deterministic_counters() {
        for w in Workload::ALL {
            let prepared = Prepared::build(w.tiny_spec(), SEED).expect("tiny set-up");
            let (seq_a, par_a, rs_a, rp_a) = run_legs(&prepared, false);
            let (seq_b, par_b, rs_b, rp_b) = run_legs(&prepared, true);
            let name = w.name();
            same_outcome(&seq_a, &seq_b).unwrap_or_else(|e| panic!("{name} seq: {e}"));
            same_outcome(&par_a, &par_b).unwrap_or_else(|e| panic!("{name} par: {e}"));
            same_outcome(&seq_a, &par_a).unwrap_or_else(|e| panic!("{name} seq/par: {e}"));
            assert_eq!(
                par_a.stats.barrier_rounds, par_b.stats.barrier_rounds,
                "{name}"
            );
            assert_eq!(
                par_a.stats.critical_path_events(),
                par_b.stats.critical_path_events(),
                "{name}"
            );
            assert_eq!((rs_a, rp_a), (rs_b, rp_b), "{name}: reconvergences");
            if prepared.script.is_some() {
                assert!(rs_a > 0 && rp_a > 0, "{name}: each leg reconverges itself");
            }
        }
    }
}
