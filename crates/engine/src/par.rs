//! The multi-threaded barrier-windowed conservative executor.
//!
//! One OS thread per partition, exactly like MaSSF runs one MPI process
//! per cluster node. Virtual time advances in fixed windows no longer
//! than the minimum cross-partition link latency (MLL): within a window
//! each partition processes its local events independently; events bound
//! for other partitions are buffered and exchanged at the global barrier
//! that ends the window. Conservative correctness requires every
//! cross-partition event to arrive in a *later* window, which holds by
//! construction when `window ≤ MLL`; the executor checks it and returns
//! [`MassfError::LookaheadViolation`] otherwise.
//!
//! # Hot-path design
//!
//! The per-event path acquires **no locks**. Cross-partition events go
//! into a `partitions × partitions` mailbox matrix: during a window,
//! partition *p* appends to its private row of per-destination buffers
//! (plain `Vec` pushes). At the window-end barrier each sender swaps its
//! non-empty buffers into per-pair exchange slots — one uncontended
//! mutex acquisition per *pair per window*, never per event — and each
//! receiver drains its column in fixed sender-index order. The swap
//! ping-pongs the two buffers of every pair, so allocations are recycled
//! across windows. (The mutex is only a `mem::swap` rendezvous; by the
//! barrier protocol the sender and receiver never touch a slot
//! concurrently. `parking_lot`'s uncontended lock is a single CAS.)
//!
//! Determinism does not depend on drain order — heaps order events by
//! `(time, tag)` — but the fixed order makes the execution schedule
//! itself reproducible.
//!
//! **Empty-window fast-forward**: after the exchange, every partition
//! publishes its next local event time into a per-partition slot; all
//! partitions then compute the same global minimum and jump virtual time
//! directly to the window containing that event. This is conservatively
//! exact: at the barrier *all* in-flight events have been exchanged, so
//! the global minimum over partition heaps is the true next event time
//! of the whole simulation, and every window before it is empty. Long
//! idle stretches (fault epochs, TCP RTO backoff) collapse from
//! thousands of barrier pairs to one. Relaxed atomics suffice for the
//! published times because `Barrier::wait` establishes happens-before
//! between everything written before the barrier and everything read
//! after it.
//!
//! Statistics are streamed into `TRACE_BUCKETS`-bounded arrays by
//! partition 0 between the two barriers of each executed window (see
//! [`crate::stats`]); nothing is sized `O(end_time / window)`.

use crate::arena::{EventArena, QueuedEvent};
use crate::event::EventRecord;
use crate::model::{Emitter, Model};
use crate::resume::ResumeState;
use crate::stats::{ExecutionStats, WindowAccumulator};
use crate::time::SimTime;
use massf_topology::MassfError;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// Hook for measuring wall-clock barrier-wait time from *outside* the
/// engine. The engine itself never reads host clocks (the simlint
/// wall-clock gate); the bench crate implements this trait with
/// `Instant`-based timing and passes it into [`run_parallel`]. The
/// observer is invoked around every
/// `Barrier::wait` — outside the deterministic event path, so it cannot
/// affect simulation results.
pub trait BarrierObserver: Sync {
    /// Called by partition `p`'s thread immediately before it blocks on
    /// a barrier.
    fn wait_begin(&self, _partition: usize) {}
    /// Called immediately after the barrier releases the thread.
    fn wait_end(&self, _partition: usize) {}
    /// Total measured wait per partition, microseconds. Collected into
    /// [`ExecutionStats::barrier_wait_us`] after the run.
    fn waits_us(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// The default observer: no measurement, zero overhead.
pub struct NoopBarrierObserver;

impl BarrierObserver for NoopBarrierObserver {}

/// Sentinel for "my heap is empty" in the published next-event times.
const IDLE: u64 = u64::MAX;

struct ThreadResult<M: Model> {
    shard: M,
    lp_events: Vec<u64>,
    total: u64,
    /// Earliest cross-partition event time (ns) this partition emitted
    /// inside the current window, if any — a lookahead violation.
    violation: Option<u64>,
    /// `Some` only for partition 0, which performs the reduction.
    windowed: Option<WindowAccumulator>,
    /// Barrier rounds this partition took part in (the same for all).
    barrier_rounds: u64,
    /// This partition's drained frontier, sorted by `(time, tag)`.
    pending: Vec<EventRecord<M::Event>>,
    /// Per-LP emission counters at exit (only this partition's LPs ever
    /// advanced beyond their restored values).
    counters: Vec<u32>,
    /// Arena misuse surfaced through the fallible path (`try_take`),
    /// reported as a structured error instead of a cross-thread panic.
    error: Option<MassfError>,
}

/// Reject a layout either executor would trip over: a zero window,
/// zero partitions, an assignment not covering exactly `lp_count` LPs,
/// or an entry naming a partition at or above `partitions`.
pub(crate) fn check_layout(
    window: SimTime,
    assignment: &[u32],
    lp_count: usize,
    partitions: usize,
) -> Result<(), MassfError> {
    let invalid = |reason: String| Err(MassfError::InvalidConfig(reason));
    if window == SimTime::ZERO {
        return invalid("synchronization window must be positive".into());
    }
    if partitions == 0 {
        return invalid("at least one partition is required".into());
    }
    if assignment.len() != lp_count {
        return invalid(format!(
            "assignment covers {} LPs, the run has {lp_count}",
            assignment.len()
        ));
    }
    if let Some((lp, p)) = assignment
        .iter()
        .enumerate()
        .find(|&(_, &p)| p as usize >= partitions)
    {
        return invalid(format!(
            "assignment puts LP {lp} on partition {p}, but the run has {partitions}"
        ));
    }
    Ok(())
}

/// Run `shards[p]` as partition `p`, one thread each, from `start`
/// until `end_time`, synchronizing every `window`.
///
/// `assignment[lp]` gives each LP's partition; events for LP `l` are
/// handled by shard `assignment[l]`. Handlers must only touch state of
/// their target LP (see [`Model`]); under that contract the result is
/// bit-identical to [`crate::run_sequential`] with an equivalent
/// combined model. `observer` is wrapped around every barrier wait (pass
/// [`NoopBarrierObserver`] to measure nothing); its
/// [`BarrierObserver::waits_us`] lands in
/// [`ExecutionStats::barrier_wait_us`] and is measurement output only —
/// never feed it back into simulation decisions (simlint D5 flags that
/// taint flow).
///
/// A fresh run starts from [`ResumeState::seeded`]; the LP count is
/// `start.counters.len()`. Returns the shards (with their final state),
/// the executed segment's stats, and the new frontier — merged across
/// partitions and sorted by `(time, tag)`, so it is thread-count
/// independent: resuming at 1 or N threads (or chaining any mix of
/// [`crate::run_sequential`] and this) reproduces the straight-through
/// run bit for bit.
///
/// # Errors
/// * [`MassfError::InvalidConfig`] for a malformed `start` (it may come
///   from a snapshot file) or an inconsistent layout: a zero window, no
///   shards, an assignment whose length is not the LP count, or an
///   entry at or above the shard count.
/// * [`MassfError::LookaheadViolation`] if a model emitted a
///   cross-partition event with delay smaller than the window. All
///   partition threads then shut down together at the next barrier and
///   the error reports the earliest offending event.
#[allow(clippy::type_complexity)] // (shards, stats, frontier) is the natural segment result
pub fn run_parallel<M: Model, O: BarrierObserver>(
    shards: Vec<M>,
    assignment: &[u32],
    start: ResumeState<M::Event>,
    end_time: SimTime,
    window: SimTime,
    observer: &O,
) -> Result<(Vec<M>, ExecutionStats, ResumeState<M::Event>), MassfError> {
    let lp_count = start.counters.len();
    start.validate(lp_count)?;
    let partitions = shards.len();
    check_layout(window, assignment, lp_count, partitions)?;
    let ResumeState {
        events: pending,
        counters: counters_init,
    } = start;

    let n_windows = end_time.as_ns().div_ceil(window.as_ns()) as usize;
    let end_ns = end_time.as_ns();

    // Route pending events to their home partitions.
    let mut initial_per_part: Vec<Vec<EventRecord<M::Event>>> =
        (0..partitions).map(|_| Vec::new()).collect();
    for ev in pending {
        let p = assignment[ev.target.index()] as usize;
        initial_per_part[p].push(ev);
    }

    // The mailbox matrix, row-major: slot p * partitions + q carries
    // events from sender p to receiver q. Each mutex is a swap
    // rendezvous touched once per pair per executed window.
    let exchange: Vec<Mutex<Vec<EventRecord<M::Event>>>> = (0..partitions * partitions)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    // Per-partition published state, read by everyone after a barrier:
    // the next local event time (fast-forward input) and the event count
    // of the window just executed (stats-reduction input).
    let next_times: Vec<AtomicU64> = (0..partitions).map(|_| AtomicU64::new(IDLE)).collect();
    let win_counts: Vec<AtomicU64> = (0..partitions).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(partitions);
    // A thread must never unilaterally panic between barriers — its
    // peers would block in `Barrier::wait` forever. Lookahead
    // violations instead raise this flag; all threads observe it at the
    // next barrier and shut down together, each reporting its earliest
    // offending event time.
    let poison = AtomicBool::new(false);

    let results: Vec<ThreadResult<M>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(partitions);
        for (p, (shard, init)) in shards.into_iter().zip(initial_per_part).enumerate() {
            let exchange = &exchange;
            let next_times = &next_times;
            let win_counts = &win_counts;
            let barrier = &barrier;
            let poison = &poison;
            let counters_init = &counters_init;
            handles.push(scope.spawn(move || {
                let mut shard = shard;
                // Per-thread payload arena + handle heap: local events
                // never leave this thread, so slot recycling stays
                // thread-private (see `crate::arena`). Cross-partition
                // events travel as full `EventRecord`s through the
                // exchange matrix and enter the *receiver's* arena on
                // drain.
                let mut arena: EventArena<M::Event> = EventArena::new();
                let mut heap: BinaryHeap<Reverse<QueuedEvent>> = init
                    .into_iter()
                    .map(|ev| Reverse(arena.enqueue(ev)))
                    .collect();
                // Restored counters: only this partition's LPs will
                // advance; the merge below takes the elementwise max.
                let mut counters = counters_init.clone();
                let mut out_buf: Vec<EventRecord<M::Event>> = Vec::new();
                let mut error: Option<MassfError> = None;
                // Private per-destination rows; swapped (never moved)
                // into the exchange slots, so capacity is recycled.
                let mut out_rows: Vec<Vec<EventRecord<M::Event>>> =
                    (0..partitions).map(|_| Vec::new()).collect();
                let mut lp_events = vec![0u64; lp_count];
                let mut total = 0u64;
                let mut violation: Option<u64> = None;
                let mut windowed = (p == 0).then(|| WindowAccumulator::new(partitions, n_windows));
                let mut barrier_rounds = 1; // the initial publish barrier

                // Publish the initial next-event time, then rendezvous so
                // every partition computes the first window from complete
                // information.
                let next = heap.peek().map_or(IDLE, |&Reverse(ev)| ev.time.as_ns());
                next_times[p].store(next, Ordering::Relaxed);
                observer.wait_begin(p);
                barrier.wait();
                observer.wait_end(p);

                loop {
                    // Every partition computes the same global minimum
                    // from the same published values (happens-before via
                    // the barrier), so all take the same branch.
                    let global_min = next_times
                        .iter()
                        .map(|t| t.load(Ordering::Relaxed))
                        .min()
                        .unwrap_or(IDLE);
                    if global_min >= end_ns {
                        break;
                    }
                    // Fast-forward: jump straight to the window holding
                    // the next event anywhere in the simulation.
                    let w = (global_min / window.as_ns()) as usize;
                    let window_end = (window * (w as u64 + 1)).min(end_time);

                    // Process this window's local events.
                    let mut count = 0u64;
                    while let Some(&Reverse(head)) = heap.peek() {
                        if head.time >= window_end {
                            break;
                        }
                        let Reverse(ev) = heap.pop().expect("peeked");
                        // Fallible path: slab misuse becomes a
                        // structured error through the coordinated
                        // poison shutdown, never a cross-thread panic.
                        let payload = match arena.try_take(ev.handle) {
                            Ok(payload) => payload,
                            Err(e) => {
                                error = Some(e);
                                poison.store(true, Ordering::Relaxed);
                                break;
                            }
                        };
                        let lp = ev.target;
                        debug_assert_eq!(assignment[lp.index()] as usize, p);
                        {
                            let mut emitter = Emitter::new(
                                ev.time,
                                lp.0,
                                &mut counters[lp.index()],
                                &mut out_buf,
                            );
                            shard.handle(lp, ev.time, payload, &mut emitter);
                        }
                        lp_events[lp.index()] += 1;
                        count += 1;
                        for new_ev in out_buf.drain(..) {
                            debug_assert!(new_ev.time >= ev.time);
                            let dest = assignment[new_ev.target.index()] as usize;
                            if dest == p {
                                heap.push(Reverse(arena.enqueue(new_ev)));
                            } else {
                                if new_ev.time < window_end {
                                    // Lookahead violation (window exceeds
                                    // the MLL). Record the earliest and
                                    // flag it; everyone aborts together
                                    // at the barrier.
                                    let t = new_ev.time.as_ns();
                                    violation = Some(violation.map_or(t, |prev| prev.min(t)));
                                    poison.store(true, Ordering::Relaxed);
                                }
                                out_rows[dest].push(new_ev);
                            }
                        }
                    }
                    total += count;
                    win_counts[p].store(count, Ordering::Relaxed);
                    // Publish outboxes: swap each non-empty row into its
                    // exchange slot. Uncontended by protocol — receivers
                    // only touch the slot after the barrier.
                    for (dest, row) in out_rows.iter_mut().enumerate() {
                        if !row.is_empty() {
                            std::mem::swap(&mut *exchange[p * partitions + dest].lock(), row);
                        }
                    }
                    // All sends for window `w` complete.
                    observer.wait_begin(p);
                    barrier.wait();
                    observer.wait_end(p);
                    if poison.load(Ordering::Relaxed) {
                        // Coordinated shutdown: every thread sees the
                        // flag after the same barrier and returns, so no
                        // peer is left blocking.
                        break;
                    }
                    // Reduce this window's counts into the bucketed
                    // stats (partition 0 only; peers are draining their
                    // columns meanwhile, which never touches
                    // `win_counts`).
                    if let Some(acc) = windowed.as_mut() {
                        // Fast-forward chose `w` because it holds the
                        // globally next event, so the window is never
                        // empty.
                        debug_assert!(
                            win_counts.iter().any(|c| c.load(Ordering::Relaxed) > 0),
                            "executed window must hold events"
                        );
                        acc.record_window(w, win_counts.iter().map(|c| c.load(Ordering::Relaxed)));
                    }
                    barrier_rounds += 2;
                    // Drain my column in fixed sender-index order.
                    for q in 0..partitions {
                        if q == p {
                            continue;
                        }
                        let mut slot = exchange[q * partitions + p].lock();
                        for ev in slot.drain(..) {
                            debug_assert!(ev.time >= window_end, "lookahead-safe arrival");
                            heap.push(Reverse(arena.enqueue(ev)));
                        }
                    }
                    // Publish my next local event time for the
                    // fast-forward decision. Every in-flight event has
                    // been exchanged, so the global min over these is
                    // exact — and ≥ window_end, so virtual time strictly
                    // advances.
                    let next = heap.peek().map_or(IDLE, |&Reverse(ev)| ev.time.as_ns());
                    next_times[p].store(next, Ordering::Relaxed);
                    // Nobody may compute the next window (or start
                    // sending into it) until every partition has drained
                    // and published.
                    observer.wait_begin(p);
                    barrier.wait();
                    observer.wait_end(p);
                }
                // At loop exit every in-flight event has been exchanged
                // (the exit check precedes popping, after a barrier), so
                // this heap holds exactly this partition's share of the
                // global frontier. Drain in heap order → sorted output.
                let mut pending = Vec::new();
                if !poison.load(Ordering::Relaxed) {
                    pending.reserve(heap.len());
                    while let Some(Reverse(ev)) = heap.pop() {
                        match arena.try_take(ev.handle) {
                            Ok(payload) => pending.push(EventRecord {
                                time: ev.time,
                                target: ev.target,
                                tag: ev.tag,
                                payload,
                            }),
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                }
                ThreadResult {
                    shard,
                    lp_events,
                    total,
                    violation,
                    windowed,
                    barrier_rounds,
                    pending,
                    counters,
                    error,
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("partition thread panicked"))
            .collect()
    });

    // Abort path: report the earliest violation across partitions
    // (deterministic — every thread processed the same window set before
    // the coordinated shutdown).
    if let Some((event_time_ns, partition)) = results
        .iter()
        .enumerate()
        .filter_map(|(p, r)| r.violation.map(|t| (t, p)))
        .min()
    {
        let partition = u32::try_from(partition).expect("partition count fits in u32");
        return Err(MassfError::LookaheadViolation {
            partition,
            event_time_ns,
            window_ns: window.as_ns(),
        });
    }

    // Arena misuse reported through the fallible path: surface the
    // lowest-partition error (results are in partition order, so this is
    // deterministic).
    if let Some(e) = results.iter().find_map(|r| r.error.clone()) {
        return Err(e);
    }

    let mut stats = ExecutionStats::new(lp_count);
    stats.end_time = end_time;
    stats.barrier_rounds = results[0].barrier_rounds;
    stats.barrier_wait_us = observer.waits_us();
    let mut shards_out = Vec::with_capacity(partitions);
    let mut resume_events: Vec<EventRecord<M::Event>> = Vec::new();
    let mut resume_counters = vec![0u32; lp_count];
    for r in results {
        for (dst, src) in stats.lp_events.iter_mut().zip(&r.lp_events) {
            *dst += src;
        }
        stats.total_events += r.total;
        if let Some(acc) = r.windowed {
            acc.finish(window, &mut stats);
        }
        resume_events.extend(r.pending);
        // Each LP advances only in its owner partition; everywhere else
        // its counter stays at the restored value, so the elementwise
        // max reconstructs the global counter vector.
        for (dst, src) in resume_counters.iter_mut().zip(&r.counters) {
            *dst = (*dst).max(*src);
        }
        shards_out.push(r.shard);
    }
    // Per-partition drains are each sorted; the merged frontier must be
    // globally sorted by `(time, tag)` to be partition-layout agnostic.
    resume_events.sort_unstable();
    Ok((
        shards_out,
        stats,
        ResumeState {
            events: resume_events,
            counters: resume_counters,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LpId;
    use crate::seq::tests::run_fresh as run_reference;

    /// A fresh parallel run from `initial` with no barrier observer.
    fn run_fresh<M: Model>(
        shards: Vec<M>,
        lp_count: usize,
        assignment: &[u32],
        initial: Vec<(SimTime, LpId, M::Event)>,
        end_time: SimTime,
        window: SimTime,
    ) -> Result<(Vec<M>, ExecutionStats), MassfError> {
        let start = ResumeState::seeded(initial, lp_count);
        run_parallel(
            shards,
            assignment,
            start,
            end_time,
            window,
            &NoopBarrierObserver,
        )
        .map(|(shards, stats, _)| (shards, stats))
    }

    /// Token ring over n LPs with 1 ms hops; each shard records visits to
    /// its own LPs (handlers touch only target-LP state).
    #[derive(Debug)]
    struct RingShard {
        n: u32,
        hop: SimTime,
        visits: Vec<(u32, u64)>, // (lp, time ns)
    }

    impl Model for RingShard {
        type Event = u8;
        fn handle(&mut self, target: LpId, now: SimTime, _ev: u8, out: &mut Emitter<'_, u8>) {
            self.visits.push((target.0, now.as_ns()));
            out.emit(self.hop, LpId((target.0 + 1) % self.n), 0);
        }
    }

    fn ring_shards(n: u32, parts: usize, hop: SimTime) -> Vec<RingShard> {
        (0..parts)
            .map(|_| RingShard {
                n,
                hop,
                visits: vec![],
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_token_ring() {
        let n = 6u32;
        let hop = SimTime::from_ms(2);
        let end = SimTime::from_ms(50);
        let assignment = [0u32, 0, 1, 1, 2, 2];

        // Sequential reference.
        let mut seq_model = RingShard {
            n,
            hop,
            visits: vec![],
        };
        let seq_stats = run_reference(
            &mut seq_model,
            n as usize,
            vec![(SimTime::ZERO, LpId(0), 0)],
            end,
            None,
        );

        // Parallel, window = hop latency (the MLL).
        let (shards, par_stats) = run_fresh(
            ring_shards(n, 3, hop),
            n as usize,
            &assignment,
            vec![(SimTime::ZERO, LpId(0), 0)],
            end,
            hop,
        )
        .expect("window = hop cannot violate lookahead");

        assert_eq!(seq_stats.total_events, par_stats.total_events);
        assert_eq!(seq_stats.lp_events, par_stats.lp_events);
        // Merge + sort parallel visit logs; must equal sequential order.
        let mut merged: Vec<(u32, u64)> = shards.into_iter().flat_map(|s| s.visits).collect();
        merged.sort_by_key(|&(_, t)| t);
        assert_eq!(merged, seq_model.visits);
    }

    #[test]
    fn resumable_parallel_chains_bit_identically_across_layouts() {
        let n = 6u32;
        let hop = SimTime::from_ms(2);
        let end = SimTime::from_ms(50);

        let mut seq_model = RingShard {
            n,
            hop,
            visits: vec![],
        };
        let seq_stats = run_reference(
            &mut seq_model,
            n as usize,
            vec![(SimTime::ZERO, LpId(0), 0)],
            end,
            None,
        );

        // Segment 1: 3 partitions to 24 ms. Segment 2: resume the merged
        // frontier on 2 partitions with a different assignment — the
        // frontier is layout-agnostic, so the chain must still equal the
        // sequential run bit for bit.
        let start = ResumeState::seeded(vec![(SimTime::ZERO, LpId(0), 0)], n as usize);
        let (shards1, s1, mid) = run_parallel(
            ring_shards(n, 3, hop),
            &[0, 0, 1, 1, 2, 2],
            start,
            SimTime::from_ms(24),
            hop,
            &NoopBarrierObserver,
        )
        .expect("segment 1: window = hop cannot violate lookahead");
        let (shards2, s2, fin) = run_parallel(
            ring_shards(n, 2, hop),
            &[0, 1, 0, 1, 0, 1],
            mid,
            end,
            hop,
            &NoopBarrierObserver,
        )
        .expect("segment 2: window = hop cannot violate lookahead");

        let mut merged: Vec<(u32, u64)> = shards1
            .into_iter()
            .chain(shards2)
            .flat_map(|s| s.visits)
            .collect();
        merged.sort_by_key(|&(_, t)| t);
        assert_eq!(merged, seq_model.visits);
        assert_eq!(s1.total_events + s2.total_events, seq_stats.total_events);
        assert_eq!(fin.events.len(), 1, "the next hop survives in the frontier");
        assert_eq!(
            fin.counters.iter().map(|&c| u64::from(c)).sum::<u64>(),
            seq_stats.total_events,
            "every handled ring event emitted exactly one follow-up"
        );
    }

    #[test]
    fn window_counts_cover_all_events() {
        let n = 4u32;
        let hop = SimTime::from_ms(1);
        let (_, stats) = run_fresh(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 0, 1, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            hop,
        )
        .expect("window = hop cannot violate lookahead");
        let counted: u64 = stats.bucket_totals.iter().sum();
        assert_eq!(counted, stats.total_events);
        let by_partition: u64 = stats.partition_totals.iter().sum();
        assert_eq!(by_partition, stats.total_events);
        assert_eq!(stats.window_count(), 10);
        // A dense ring fills every window: nothing skipped, a barrier
        // pair per window plus the initial publish rendezvous.
        assert_eq!(stats.windows_executed, 10);
        assert_eq!(stats.windows_skipped, 0);
        assert_eq!(stats.barrier_rounds, 1 + 2 * 10);
    }

    #[test]
    fn single_partition_parallel_equals_sequential() {
        let n = 5u32;
        let hop = SimTime::from_ms(1);
        let mut seq_model = RingShard {
            n,
            hop,
            visits: vec![],
        };
        run_reference(
            &mut seq_model,
            n as usize,
            vec![(SimTime::ZERO, LpId(2), 0)],
            SimTime::from_ms(20),
            None,
        );
        let (shards, _) = run_fresh(
            ring_shards(n, 1, hop),
            n as usize,
            &[0, 0, 0, 0, 0],
            vec![(SimTime::ZERO, LpId(2), 0)],
            SimTime::from_ms(20),
            SimTime::from_ms(7), // window larger than hop is fine for 1 partition
        )
        .expect("one partition has no cross-partition events");
        assert_eq!(shards[0].visits, seq_model.visits);
    }

    #[test]
    fn lookahead_violation_detected() {
        // Hop of 1 ms but window of 2 ms: cross-partition events land
        // inside the current window.
        let n = 2u32;
        let hop = SimTime::from_ms(1);
        let out = run_fresh(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            SimTime::from_ms(2),
        );
        assert!(
            matches!(out, Err(MassfError::LookaheadViolation { .. })),
            "expected a lookahead violation, got {:?}",
            out.map(|(_, stats)| stats.total_events)
        );
    }

    /// Inconsistent layouts are structured errors in both executors —
    /// checked up front, before any thread starts or any event runs.
    #[test]
    fn bad_layouts_are_invalid_config_in_both_executors() {
        let ms = SimTime::from_ms;
        // (case, window, assignment, shard / trace partition count)
        let cases: [(&str, SimTime, &[u32], usize); 4] = [
            ("zero window", SimTime::ZERO, &[0, 1], 2),
            ("short assignment", ms(1), &[0], 2),
            ("entry >= shard count", ms(1), &[0, 2], 2),
            ("zero shards", ms(1), &[0, 0], 0),
        ];
        let initial = || vec![(SimTime::ZERO, LpId(0), 0u8)];
        for (case, window, assignment, partitions) in cases {
            let par = run_fresh(
                ring_shards(2, partitions, ms(1)),
                2,
                assignment,
                initial(),
                ms(10),
                window,
            );
            assert!(
                matches!(par, Err(MassfError::InvalidConfig(_))),
                "run_parallel, {case}: got {:?}",
                par.map(|(_, stats)| stats.total_events)
            );
            let mut model = RingShard {
                n: 2,
                hop: ms(1),
                visits: vec![],
            };
            let seq = crate::run_sequential(
                &mut model,
                ResumeState::seeded(initial(), 2),
                ms(10),
                Some((window, assignment, partitions)),
            );
            assert!(
                matches!(seq, Err(MassfError::InvalidConfig(_))),
                "run_sequential trace, {case}: got {:?}",
                seq.map(|(stats, _)| stats.total_events)
            );
            assert!(model.visits.is_empty(), "{case}: no event may run");
        }
    }

    #[test]
    fn lookahead_violation_is_structured_and_earliest() {
        let n = 2u32;
        let hop = SimTime::from_ms(1);
        let err = run_fresh(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            SimTime::from_ms(2),
        )
        .expect_err("1 ms hops inside a 2 ms window must violate lookahead");
        // The t=0 event on LP0 (partition 0) emits the first violating
        // cross event, landing at t=1 ms inside window [0, 2) ms.
        assert_eq!(
            err,
            MassfError::LookaheadViolation {
                partition: 0,
                event_time_ns: SimTime::from_ms(1).as_ns(),
                window_ns: SimTime::from_ms(2).as_ns(),
            }
        );
        assert!(err.to_string().starts_with("lookahead violation"));
    }

    #[test]
    fn events_beyond_end_time_not_processed() {
        let n = 2u32;
        let hop = SimTime::from_ms(3);
        let (_, stats) = run_fresh(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(7),
            hop,
        )
        .expect("window = hop cannot violate lookahead");
        // Events at t=0,3,6 run; t=9 is beyond end.
        assert_eq!(stats.total_events, 3);
    }

    /// Two LPs ping-pong a token with a long idle gap between bursts:
    /// fast-forward must skip the empty windows (barrier count shrinks)
    /// while the visit log stays bit-identical to sequential.
    struct BurstShard {
        gap: SimTime,
        visits: Vec<(u32, u64)>,
    }

    impl Model for BurstShard {
        type Event = u32; // hops remaining in the current burst
        fn handle(&mut self, target: LpId, now: SimTime, left: u32, out: &mut Emitter<'_, u32>) {
            self.visits.push((target.0, now.as_ns()));
            let next = LpId(1 - target.0);
            if left > 0 {
                out.emit(SimTime::from_ms(1), next, left - 1);
            } else {
                out.emit(self.gap, next, 4); // next burst after the gap
            }
        }
    }

    #[test]
    fn fast_forward_skips_idle_windows_bit_identically() {
        let gap = SimTime::from_ms(200);
        let end = SimTime::from_secs(2);
        let window = SimTime::from_ms(1);
        let init = vec![(SimTime::ZERO, LpId(0), 4u32)];

        let mut seq = BurstShard {
            gap,
            visits: vec![],
        };
        let seq_stats = run_reference(&mut seq, 2, init.clone(), end, None);

        let shards = (0..2)
            .map(|_| BurstShard {
                gap,
                visits: vec![],
            })
            .collect();
        let (shards, stats) = run_fresh(shards, 2, &[0, 1], init, end, window)
            .expect("1 ms hops in 1 ms windows cannot violate lookahead");

        let mut merged: Vec<(u32, u64)> = shards.into_iter().flat_map(|s| s.visits).collect();
        merged.sort_by_key(|&(_, t)| t);
        assert_eq!(merged, seq.visits);
        assert_eq!(stats.total_events, seq_stats.total_events);

        // 2000 nominal 1 ms windows, but bursts cover only ~5 ms every
        // ~204 ms: the executor must skip the idle stretches.
        assert_eq!(stats.window_count(), 2000);
        assert!(
            stats.windows_executed < 100,
            "only burst windows execute, got {}",
            stats.windows_executed
        );
        assert_eq!(stats.windows_skipped, 2000 - stats.windows_executed);
        assert_eq!(stats.barrier_rounds, 1 + 2 * stats.windows_executed);
        // ≥5× fewer barriers than the one-pair-per-window baseline.
        assert!(stats.barrier_rounds * 5 < 2 * 2000);
    }

    #[test]
    fn empty_initial_events_fast_forwards_to_exit() {
        let (_, stats) = run_fresh(
            ring_shards(2, 2, SimTime::from_ms(1)),
            2,
            &[0, 1],
            vec![],
            SimTime::from_secs(10),
            SimTime::from_ms(1),
        )
        .expect("an empty run cannot violate lookahead");
        assert_eq!(stats.total_events, 0);
        assert_eq!(stats.windows_executed, 0);
        assert_eq!(stats.windows_skipped, 10_000);
        assert_eq!(stats.barrier_rounds, 1, "just the initial rendezvous");
    }

    /// The observer hooks fire around every barrier and its measurement
    /// lands in the stats without disturbing results.
    #[test]
    fn observer_hooks_fire_and_surface_in_stats() {
        use std::sync::atomic::AtomicU64 as Counter;
        struct CountingObserver {
            begins: Counter,
            ends: Counter,
        }
        impl BarrierObserver for CountingObserver {
            fn wait_begin(&self, _p: usize) {
                self.begins.fetch_add(1, Ordering::Relaxed);
            }
            fn wait_end(&self, _p: usize) {
                self.ends.fetch_add(1, Ordering::Relaxed);
            }
            fn waits_us(&self) -> Vec<f64> {
                vec![1.25, 2.5]
            }
        }
        let obs = CountingObserver {
            begins: Counter::new(0),
            ends: Counter::new(0),
        };
        let (_, stats, _) = run_parallel(
            ring_shards(4, 2, SimTime::from_ms(1)),
            &[0, 0, 1, 1],
            ResumeState::seeded(vec![(SimTime::ZERO, LpId(0), 0)], 4),
            SimTime::from_ms(10),
            SimTime::from_ms(1),
            &obs,
        )
        .expect("window = hop cannot violate lookahead");
        let expected = stats.barrier_rounds * 2; // 2 partitions per round
        assert_eq!(obs.begins.load(Ordering::Relaxed), expected);
        assert_eq!(obs.ends.load(Ordering::Relaxed), expected);
        assert_eq!(stats.barrier_wait_us, vec![1.25, 2.5]);
        assert!((stats.total_barrier_wait_us() - 3.75).abs() < 1e-12);
    }
}
