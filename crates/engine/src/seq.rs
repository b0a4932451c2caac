//! The sequential reference executor.
//!
//! [`run_sequential`] processes every event in one global `(time, tag)`
//! order. Given a trace layout it also attributes every event to a
//! `(window, partition)` cell, producing the load trace the cluster
//! performance model consumes. Window boundaries never change event
//! order, so traced and untraced runs produce identical model states.

use crate::arena::{EventArena, QueuedEvent};
use crate::event::EventRecord;
use crate::model::{Emitter, Model};
use crate::par::check_layout;
use crate::resume::ResumeState;
use crate::stats::{ExecutionStats, WindowAccumulator};
use crate::time::SimTime;
use massf_topology::MassfError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run `model` from `start` until `end_time` (exclusive), returning the
/// executed segment's per-LP statistics and the new frontier: the
/// events pending at `end_time` plus the advanced LP counters.
///
/// A fresh run starts from [`ResumeState::seeded`]; a frontier returned
/// by either executor continues its run, and chaining segments is
/// bit-identical to one straight-through run because the frontier
/// preserves every `(time, tag)` ordering key. The LP count is
/// `start.counters.len()`.
///
/// `trace = Some((window, assignment, partitions))` additionally counts
/// events per `(window, partition)` cell, with `assignment[lp]` giving
/// each LP's partition.
///
/// # Errors
/// [`MassfError::InvalidConfig`] for a malformed `start` (it may come
/// from a snapshot file) or an inconsistent trace layout: a zero window,
/// zero partitions, an assignment whose length is not the LP count, or
/// an entry at or above `partitions`.
#[allow(clippy::type_complexity)] // (stats, frontier) pair is the natural segment result
pub fn run_sequential<M: Model>(
    model: &mut M,
    start: ResumeState<M::Event>,
    end_time: SimTime,
    trace: Option<(SimTime, &[u32], usize)>,
) -> Result<(ExecutionStats, ResumeState<M::Event>), MassfError> {
    let lp_count = start.counters.len();
    start.validate(lp_count)?;
    if let Some((window, assignment, partitions)) = trace {
        check_layout(window, assignment, lp_count, partitions)?;
    }
    let ResumeState {
        events: pending,
        mut counters,
    } = start;

    let mut stats = ExecutionStats::new(lp_count);
    // Payloads live in the arena; the heap orders 32-byte handles. Slots
    // recycle as events execute, so the steady-state loop is
    // allocation-free (see `crate::arena`).
    let mut arena: EventArena<M::Event> = EventArena::new();
    let mut heap: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::new();
    for ev in pending {
        heap.push(Reverse(arena.enqueue(ev)));
    }
    let mut out_buf: Vec<EventRecord<M::Event>> = Vec::new();

    let mut acc = trace.map(|(window, _, partitions)| {
        let n_windows = end_time.as_ns().div_ceil(window.as_ns()) as usize;
        WindowAccumulator::new(partitions, n_windows)
    });

    // Peek before popping: events at or past `end_time` stay queued, so
    // the frontier drain below sees the complete pending set.
    while let Some(&Reverse(head)) = heap.peek() {
        if head.time >= end_time {
            break;
        }
        let Reverse(ev) = heap.pop().expect("peeked entry pops");
        let payload = arena.take(ev.handle);
        let lp = ev.target;
        debug_assert!(lp.index() < lp_count, "event for unknown LP {lp:?}");
        {
            let mut emitter = Emitter::new(ev.time, lp.0, &mut counters[lp.index()], &mut out_buf);
            model.handle(lp, ev.time, payload, &mut emitter);
        }
        stats.lp_events[lp.index()] += 1;
        stats.total_events += 1;
        if let (Some(acc), Some((window, assignment, _))) = (acc.as_mut(), trace) {
            let w = (ev.time.as_ns() / window.as_ns()) as usize;
            let p = assignment[lp.index()] as usize;
            acc.record(w, p);
        }
        for new_ev in out_buf.drain(..) {
            debug_assert!(new_ev.time >= ev.time, "event scheduled in the past");
            heap.push(Reverse(arena.enqueue(new_ev)));
        }
    }
    if let (Some(acc), Some((window, _, _))) = (acc, trace) {
        acc.finish(window, &mut stats);
    }
    stats.end_time = end_time;

    // Drain the frontier in heap order (ascending `(time, tag)`), so the
    // returned events are sorted by construction.
    let mut events = Vec::with_capacity(heap.len());
    while let Some(Reverse(ev)) = heap.pop() {
        events.push(EventRecord {
            time: ev.time,
            target: ev.target,
            tag: ev.tag,
            payload: arena.take(ev.handle),
        });
    }
    Ok((stats, ResumeState { events, counters }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::LpId;

    /// A fresh run of `model` over `lp_count` LPs seeded with `initial`.
    pub(crate) fn run_fresh<M: Model>(
        model: &mut M,
        lp_count: usize,
        initial: Vec<(SimTime, LpId, M::Event)>,
        end: SimTime,
        trace: Option<(SimTime, &[u32], usize)>,
    ) -> ExecutionStats {
        run_sequential(model, ResumeState::seeded(initial, lp_count), end, trace)
            .expect("well-formed test run")
            .0
    }

    /// Each LP forwards a token to the next LP after 1 ms, recording the
    /// visit order.
    struct Ring {
        n: u32,
        visits: Vec<u32>,
    }

    impl Model for Ring {
        type Event = u8;
        fn handle(&mut self, target: LpId, _now: SimTime, _ev: u8, out: &mut Emitter<'_, u8>) {
            self.visits.push(target.0);
            out.emit(SimTime::from_ms(1), LpId((target.0 + 1) % self.n), 0);
        }
    }

    #[test]
    fn token_ring_progresses_in_time_order() {
        let mut m = Ring {
            n: 4,
            visits: vec![],
        };
        let stats = run_fresh(
            &mut m,
            4,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            None,
        );
        assert_eq!(m.visits, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        assert_eq!(stats.total_events, 10);
        assert_eq!(stats.lp_events, vec![3, 3, 2, 2]);
    }

    #[test]
    fn end_time_is_exclusive() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        let stats = run_fresh(
            &mut m,
            2,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(1),
            None,
        );
        // Only the event at t=0 runs; the one at exactly 1 ms is excluded.
        assert_eq!(stats.total_events, 1);
    }

    #[test]
    fn simultaneous_events_process_in_injection_order() {
        struct Recorder(Vec<u32>);
        impl Model for Recorder {
            type Event = ();
            fn handle(&mut self, t: LpId, _: SimTime, _: (), _: &mut Emitter<'_, ()>) {
                self.0.push(t.0);
            }
        }
        let mut m = Recorder(vec![]);
        run_fresh(
            &mut m,
            3,
            vec![
                (SimTime::from_ms(1), LpId(2), ()),
                (SimTime::from_ms(1), LpId(0), ()),
                (SimTime::from_ms(1), LpId(1), ()),
            ],
            SimTime::from_ms(2),
            None,
        );
        assert_eq!(m.0, vec![2, 0, 1], "ties broken by injection order");
    }

    #[test]
    fn resumable_segments_match_straight_through() {
        let mut full = Ring {
            n: 4,
            visits: vec![],
        };
        let full_stats = run_fresh(
            &mut full,
            4,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            None,
        );

        let mut split = Ring {
            n: 4,
            visits: vec![],
        };
        let start = ResumeState::seeded(vec![(SimTime::ZERO, LpId(0), 0)], 4);
        let (s1, mid) =
            run_sequential(&mut split, start, SimTime::from_ms(5), None).expect("valid");
        // The event scheduled at exactly the cut time must sit in the
        // frontier, unexecuted (end_time is exclusive).
        assert_eq!(mid.events.len(), 1);
        assert_eq!(mid.events[0].time, SimTime::from_ms(5));
        let (s2, fin) = run_sequential(&mut split, mid, SimTime::from_ms(10), None).expect("valid");
        assert_eq!(split.visits, full.visits, "chained segments = one run");
        assert_eq!(s1.total_events + s2.total_events, full_stats.total_events);
        assert_eq!(fin.events.len(), 1, "next hop stays pending at the end");
    }

    #[test]
    fn resumable_rejects_malformed_frontier() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        // An event for LP 5 in a 3-LP frontier.
        let bad = ResumeState::seeded(vec![(SimTime::ZERO, LpId(5), 0)], 3);
        assert!(run_sequential(&mut m, bad, SimTime::from_ms(1), None).is_err());
    }

    #[test]
    fn windowed_counts_attribute_correctly() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        // LP0 -> partition 0, LP1 -> partition 1; 1 ms window; events at
        // t=0(LP0),1(LP1),2(LP0),3(LP1) within end=4ms.
        let stats = run_fresh(
            &mut m,
            2,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(4),
            Some((SimTime::from_ms(1), &[0, 1], 2)),
        );
        assert_eq!(stats.window_count(), 4);
        // 4 windows at 1 window per bucket: buckets mirror windows.
        assert_eq!(stats.bucket_critical, vec![1, 1, 1, 1]);
        assert_eq!(stats.bucket_totals, vec![1, 1, 1, 1]);
        assert_eq!(stats.partition_totals, vec![2, 2]);
        assert_eq!(stats.critical_path_events(), 4);
        assert_eq!(stats.windows_executed, 4);
        assert_eq!(stats.windows_skipped, 0);
    }

    #[test]
    fn windowed_and_plain_runs_agree_on_state() {
        let mut a = Ring {
            n: 5,
            visits: vec![],
        };
        let mut b = Ring {
            n: 5,
            visits: vec![],
        };
        let init = vec![
            (SimTime::ZERO, LpId(0), 0u8),
            (SimTime::from_ms(2), LpId(3), 0u8),
        ];
        run_fresh(&mut a, 5, init.clone(), SimTime::from_ms(20), None);
        run_fresh(
            &mut b,
            5,
            init,
            SimTime::from_ms(20),
            Some((SimTime::from_ms(3), &[0, 0, 1, 1, 1], 2)),
        );
        assert_eq!(a.visits, b.visits);
    }

    #[test]
    fn event_rate_normalization() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        let stats = run_fresh(
            &mut m,
            2,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_secs(1),
            Some((SimTime::from_ms(100), &[0, 1], 2)),
        );
        let rates = stats.partition_event_rates();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] + rates[1] - stats.total_events as f64).abs() < 1e-9);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::tests::run_fresh;
    use crate::event::LpId;
    use crate::stats::TRACE_BUCKETS;
    use crate::time::SimTime;

    /// Self-ticking LP: one event per millisecond.
    struct Ticker;
    impl crate::model::Model for Ticker {
        type Event = ();
        fn handle(&mut self, t: LpId, _: SimTime, _: (), out: &mut crate::model::Emitter<'_, ()>) {
            out.emit(SimTime::from_ms(1), t, ());
        }
    }

    #[test]
    fn coarse_trace_covers_long_runs_with_bounded_buckets() {
        let mut m = Ticker;
        // 2000 windows of 1 ms: must be bucketed down to ≤ TRACE_BUCKETS.
        let stats = run_fresh(
            &mut m,
            1,
            vec![(SimTime::ZERO, LpId(0), ())],
            SimTime::from_ms(2000),
            Some((SimTime::from_ms(1), &[0], 1)),
        );
        assert_eq!(stats.window_count(), 2000);
        assert!(stats.coarse_trace.len() <= TRACE_BUCKETS);
        assert!(stats.windows_per_bucket >= 2);
        let bucket_total: u64 = stats.coarse_trace.iter().flatten().sum();
        assert_eq!(bucket_total, stats.total_events);
    }

    #[test]
    fn event_on_window_boundary_lands_in_later_window() {
        let mut m = Ticker;
        // Events at t = 0, 1, 2, 3 ms with 2 ms windows: the t = 2 ms
        // event belongs to window 1 (windows are half-open [t0, t1)).
        let stats = run_fresh(
            &mut m,
            1,
            vec![(SimTime::ZERO, LpId(0), ())],
            SimTime::from_ms(4),
            Some((SimTime::from_ms(2), &[0], 1)),
        );
        assert_eq!(stats.bucket_totals, vec![2, 2]);
    }

    #[test]
    fn empty_initial_events_is_a_clean_noop() {
        let mut m = Ticker;
        let stats = run_fresh(&mut m, 3, vec![], SimTime::from_secs(1), None);
        assert_eq!(stats.total_events, 0);
        assert!(stats.lp_events.iter().all(|&c| c == 0));
    }
}
