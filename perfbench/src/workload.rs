//! The benchmark's workloads and the inputs generated from a seed.
//!
//! Each workload is a point in the paper's single-AS world
//! (`Scenario::build`) plus, for `mixed_fluid_flap`, seeded fluid
//! background flows and seeded link flaps. Everything the simulator
//! receives is derived from the workload seed alone.

use massf_core::{Scale, WorkloadKind};
use massf_engine::SimTime;
use massf_topology::{Network, NodeId};

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small single-AS world, packet-only HTTP + ScaLapack traffic.
    SaPacket,
    /// Medium single-AS world, short horizon: set-up and cold routing.
    SaMediumCold,
    /// `SaPacket` plus fluid background flows and link flaps.
    MixedFluidFlap,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SaPacket,
        Workload::SaMediumCold,
        Workload::MixedFluidFlap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SaPacket => "sa_packet",
            Workload::SaMediumCold => "sa_medium_cold",
            Workload::MixedFluidFlap => "mixed_fluid_flap",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at benchmark size.
    pub fn spec(self) -> Spec {
        match self {
            Workload::SaPacket => Spec {
                scale: Scale::Small,
                app: WorkloadKind::ScaLapack,
                duration: SimTime::from_secs(15),
                fluid_flows: 0,
                flaps: 0,
                window: WindowRule::AchievedMll,
            },
            Workload::SaMediumCold => Spec {
                scale: Scale::Medium,
                app: WorkloadKind::GridNpb,
                duration: SimTime::from_secs(3),
                fluid_flows: 0,
                flaps: 0,
                window: WindowRule::AchievedMll,
            },
            Workload::MixedFluidFlap => Spec {
                scale: Scale::Small,
                app: WorkloadKind::ScaLapack,
                duration: SimTime::from_secs(15),
                fluid_flows: 3_000,
                flaps: 12,
                window: WindowRule::SafeParallel,
            },
        }
    }

    /// The same workload shape on the Tiny world, for self-tests.
    #[cfg(test)]
    pub fn tiny_spec(self) -> Spec {
        let full = self.spec();
        Spec {
            scale: Scale::Tiny,
            duration: SimTime::from_secs(2),
            fluid_flows: full.fluid_flows / 30,
            flaps: full.flaps / 4,
            ..full
        }
    }
}

/// How the 2-partition leg picks its barrier window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRule {
    /// The measured-run rule of `massf_core::pipeline`: the mapping's
    /// achieved MLL, floored at 10 µs.
    AchievedMll,
    /// `SharedNet::safe_parallel_window`: the cut MLL capped at the
    /// fluid control delay.
    SafeParallel,
}

/// Everything that defines one workload apart from its seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub scale: Scale,
    pub app: WorkloadKind,
    /// Virtual time simulated by every leg.
    pub duration: SimTime,
    /// Seeded fluid background flows added to every leg.
    pub fluid_flows: usize,
    /// Seeded router-router link flaps (2 s each).
    pub flaps: usize,
    pub window: WindowRule,
}

/// One fluid background flow of the generated input.
#[derive(Clone, Copy)]
pub struct FluidFlow {
    pub at: SimTime,
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: u64,
}

/// How long each flap keeps its link down.
pub const FLAP_DOWN: SimTime = SimTime::from_secs(2);

/// Seed-derivation constants, so the scenario, the fluid flows and the
/// flap script draw from unrelated streams of one workload seed.
const FLUID_STREAM: u64 = 0xF1_D0;
pub const FLAP_STREAM: u64 = 0xF1_A9;

/// `spec.fluid_flows` flows between distinct random hosts: 0.2–4.2 MB
/// each, starts uniform over the first 60% of the horizon.
pub fn fluid_flows(spec: &Spec, net: &Network, seed: u64) -> Vec<FluidFlow> {
    let hosts = net.host_ids();
    let mut rng = SplitMix64(seed ^ FLUID_STREAM);
    let start_span = spec.duration.as_ns() * 3 / 5;
    (0..spec.fluid_flows)
        .map(|_| {
            let src = hosts[rng.below(hosts.len() as u64) as usize];
            let mut dst = src;
            while dst == src {
                dst = hosts[rng.below(hosts.len() as u64) as usize];
            }
            FluidFlow {
                at: SimTime(rng.below(start_span)),
                src,
                dst,
                bytes: 200_000 + rng.below(4_000_001),
            }
        })
        .collect()
}

/// The flap window: link-down times spread over `[10%, 70%)` of the
/// horizon, so at benchmark horizons every 2 s flap also recovers
/// inside the run.
pub fn flap_window(spec: &Spec) -> (SimTime, SimTime) {
    let ns = spec.duration.as_ns();
    (SimTime(ns / 10), SimTime(ns * 7 / 10))
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
