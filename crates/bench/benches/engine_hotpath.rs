//! Parallel-executor hot-path benchmarks (DESIGN.md §3 item 12): the
//! windowed executor (lock-free per-pair outboxes + empty-window
//! fast-forward, `massf_engine::run_parallel`) on two pure-engine
//! workloads:
//!
//! * **dense ring** — tokens circulate continuously with hop = window,
//!   so every window holds events. This isolates the per-event mailbox
//!   cost; fast-forward never triggers.
//! * **sparse bursty** — short hop bursts separated by long idle gaps
//!   (TCP RTO backoff / fault-epoch quiet periods in miniature). The
//!   overwhelming majority of windows are empty; a fixed-stride design
//!   would pay two barriers for each of them, the executor jumps.
//!
//! The executor must be bit-identical to the sequential reference
//! (checked by `--smoke`, wired into scripts/check.sh). `--record`
//! prints the wall-clock and barrier-round numbers. BENCH_engine.json
//! keeps the recorded A/B against the retired pre-overhaul executor
//! (mutex-per-event inboxes, a barrier pair for every window). The
//! hardware-independent acceptance number is the executed-barrier-round
//! reduction against the fixed-stride `2 · window_count()`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use massf_engine::{
    run_parallel, run_sequential, Emitter, ExecutionStats, LpId, Model, NoopBarrierObserver,
    ResumeState, SimTime,
};

/// Ring of LPs passing tokens: each handled event hashes into a per-LP
/// fingerprint (order-sensitive, so any divergence in per-LP event
/// sequences is caught), then forwards to the next LP. A token travels
/// `burst` hops of `hop` each, then sleeps `idle` before the next burst;
/// `idle == 0` makes the ring dense (hop forever).
#[derive(Clone)]
struct BurstRing {
    n: u32,
    hop: SimTime,
    idle: SimTime,
    burst: u32,
    fingerprint: Vec<u64>,
}

impl BurstRing {
    fn new(n: u32, hop: SimTime, idle: SimTime, burst: u32) -> Self {
        BurstRing {
            n,
            hop,
            idle,
            burst,
            fingerprint: vec![0; n as usize],
        }
    }
}

impl Model for BurstRing {
    type Event = u32; // hops left in the current burst

    fn handle(&mut self, target: LpId, now: SimTime, left: u32, out: &mut Emitter<'_, u32>) {
        let f = &mut self.fingerprint[target.index()];
        *f = f
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(now.as_ns() ^ u64::from(left));
        let next = LpId((target.0 + 1) % self.n);
        if left > 0 {
            out.emit(self.hop, next, left - 1);
        } else if self.idle > SimTime::ZERO {
            out.emit(self.idle, next, self.burst);
        } else {
            out.emit(self.hop, next, self.burst);
        }
    }
}

/// Contiguous-block LP→partition assignment (ring cut into arcs, the
/// minimum-cut partition for a ring).
fn block_assignment(n: u32, partitions: usize) -> Vec<u32> {
    let per = (n as usize).div_ceil(partitions);
    (0..n as usize).map(|i| (i / per) as u32).collect()
}

struct Scenario {
    label: &'static str,
    n: u32,
    hop: SimTime,
    idle: SimTime,
    burst: u32,
    tokens: u32,
    end: SimTime,
}

/// Dense: 8 tokens hop every window for the whole horizon — every
/// window executes.
const DENSE: Scenario = Scenario {
    label: "dense_ring",
    n: 64,
    hop: SimTime::from_ms(1),
    idle: SimTime::ZERO,
    burst: 1,
    tokens: 8,
    end: SimTime::from_secs(5),
};

/// Sparse bursty: 4 tokens, 20-hop bursts, then half a second of
/// silence — ≈96% of windows are empty.
const SPARSE: Scenario = Scenario {
    label: "sparse_bursty",
    n: 64,
    hop: SimTime::from_ms(1),
    idle: SimTime::from_ms(500),
    burst: 20,
    tokens: 4,
    end: SimTime::from_secs(20),
};

impl Scenario {
    fn model(&self) -> BurstRing {
        BurstRing::new(self.n, self.hop, self.idle, self.burst)
    }

    fn shards(&self, partitions: usize) -> Vec<BurstRing> {
        (0..partitions).map(|_| self.model()).collect()
    }

    /// Token k starts at LP k·n/tokens with a fresh burst.
    fn initial(&self) -> Vec<(SimTime, LpId, u32)> {
        (0..self.tokens)
            .map(|k| (SimTime::ZERO, LpId(k * self.n / self.tokens), self.burst))
            .collect()
    }

    fn window(&self) -> SimTime {
        self.hop // ring hop latency is the MLL of any contiguous cut
    }
}

/// Merge per-shard fingerprints (each LP is touched only on its home
/// shard, so XOR reconstructs the per-LP values).
fn merged_fingerprint(shards: &[BurstRing]) -> Vec<u64> {
    let n = shards[0].fingerprint.len();
    let mut out = vec![0u64; n];
    for s in shards {
        for (o, f) in out.iter_mut().zip(&s.fingerprint) {
            *o ^= f;
        }
    }
    out
}

fn run_par(sc: &Scenario, partitions: usize) -> (Vec<BurstRing>, ExecutionStats) {
    let assignment = block_assignment(sc.n, partitions);
    let (shards, stats, _) = run_parallel(
        sc.shards(partitions),
        &assignment,
        ResumeState::seeded(sc.initial(), sc.n as usize),
        sc.end,
        sc.window(),
        &NoopBarrierObserver,
    )
    .expect("ring hop = window cannot violate lookahead");
    (shards, stats)
}

fn bench_scenario(c: &mut Criterion, sc: &Scenario) {
    let mut group = c.benchmark_group(sc.label);
    group.sample_size(10);
    for partitions in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("overhauled", partitions), |b| {
            b.iter(|| run_par(sc, partitions).1.total_events)
        });
    }
    group.finish();
}

fn bench_dense(c: &mut Criterion) {
    bench_scenario(c, &DENSE);
}

fn bench_sparse(c: &mut Criterion) {
    bench_scenario(c, &SPARSE);
}

criterion_group!(benches, bench_dense, bench_sparse);

/// Sequential reference for a scenario: same combined model, one heap,
/// with the window trace of a `partitions`-way block cut.
fn run_seq(sc: &Scenario, partitions: usize) -> (BurstRing, ExecutionStats) {
    let mut model = sc.model();
    let assignment = block_assignment(sc.n, partitions);
    let (stats, _) = run_sequential(
        &mut model,
        ResumeState::seeded(sc.initial(), sc.n as usize),
        sc.end,
        Some((sc.window(), &assignment, partitions)),
    )
    .expect("block cut is a valid trace layout");
    (model, stats)
}

/// `--smoke`: fast self-checking pass for scripts/check.sh. Asserts
/// bit-identity against the sequential reference on both scenarios at
/// 1, 2 and 4 partitions, windowed stats equal to the traced sequential
/// run, the windowed-stats consistency invariants, and the ≥5×
/// executed-barrier-round reduction on the sparse scenario that
/// BENCH_engine.json records.
fn run_smoke() {
    for sc in [&DENSE, &SPARSE] {
        for partitions in [1usize, 2, 4] {
            let (seq_model, seq) = run_seq(sc, partitions);
            let (shards, par) = run_par(sc, partitions);

            // Bit-identity against the sequential reference.
            assert_eq!(
                merged_fingerprint(&shards),
                seq_model.fingerprint,
                "{} p={partitions}: executor diverged from sequential",
                sc.label
            );
            assert_eq!(seq.lp_events, par.lp_events);
            assert_eq!(seq.total_events, par.total_events);

            // Traced sequential and windowed stats agree field for field
            // (barrier counts exist only in the threaded executor).
            assert_eq!(seq.bucket_critical, par.bucket_critical);
            assert_eq!(seq.bucket_totals, par.bucket_totals);
            assert_eq!(seq.partition_totals, par.partition_totals);
            assert_eq!(seq.coarse_trace, par.coarse_trace);
            assert_eq!(seq.windows_executed, par.windows_executed);
            assert_eq!(seq.windows_skipped, par.windows_skipped);
            assert_eq!(seq.window_count(), par.window_count());

            // Windowed-stats consistency.
            let by_bucket: u64 = par.bucket_totals.iter().sum();
            assert_eq!(by_bucket, par.total_events);
            assert_eq!(
                par.windows_executed + par.windows_skipped,
                par.window_count() as u64
            );
            assert_eq!(par.barrier_rounds, 1 + 2 * par.windows_executed);

            if sc.label == "sparse_bursty" {
                // A barrier pair for every window: what a fixed-stride
                // executor pays.
                let fixed_stride = 2 * par.window_count() as u64;
                assert!(
                    par.barrier_rounds * 5 <= fixed_stride,
                    "{} p={partitions}: want ≥5× barrier reduction, got {} vs {}",
                    sc.label,
                    fixed_stride,
                    par.barrier_rounds
                );
            }
        }
    }
    println!("engine_hotpath smoke checks passed");
}

/// `--record`: run the executor once per (scenario, partitions) cell,
/// timing with wall clock, and print the measurements as JSON.
fn run_record() {
    use std::time::Instant;
    let time_runs = |f: &dyn Fn() -> u64, reps: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let _ = f();
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    println!("{{");
    for (i, sc) in [&DENSE, &SPARSE].into_iter().enumerate() {
        if i > 0 {
            println!("  ,");
        }
        println!("  \"{}\": {{", sc.label);
        for (j, partitions) in [1usize, 2, 4, 8].into_iter().enumerate() {
            let (_, par) = run_par(sc, partitions);
            let ms = time_runs(&|| run_par(sc, partitions).1.total_events, 3);
            let fixed_stride = 2 * par.window_count() as u64;
            println!(
                "    \"partitions_{partitions}\": {{ \"overhauled_ms\": {ms:.2}, \
                 \"overhauled_barrier_rounds\": {}, \"barrier_reduction\": {:.1}, \
                 \"windows_skipped\": {} }}{}",
                par.barrier_rounds,
                fixed_stride as f64 / par.barrier_rounds as f64,
                par.windows_skipped,
                if j < 3 { "," } else { "" }
            );
        }
        println!("  }}");
    }
    println!("}}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    if args.iter().any(|a| a == "--record") {
        run_record();
        return;
    }
    benches();
}
