//! Per-executor event arenas: slab-allocated event payloads behind
//! generation-checked handles.
//!
//! The executors keep event *payloads* out of their priority queues:
//! each pending event's payload lives in a slot of an [`EventArena`]
//! owned by the executing thread, and the heap orders compact
//! `QueuedEvent` entries (time, tag, target, handle — 32 bytes)
//! instead of full `EventRecord`s. Slots are recycled through a LIFO
//! free list the moment their event executes, which generalizes the
//! outbox buffer ping-pong of the parallel executor (recycled at window
//! boundaries) down to every single payload: in steady state the hot
//! loop performs no allocator calls — push/pop traffic reuses slots and
//! the heap's existing capacity.
//!
//! Handles carry a per-slot generation stamp; taking a payload bumps
//! the generation, so a stale or double-freed handle is detected
//! instead of silently yielding another event's payload. Slot indices
//! are a pure function of the arena's insert/take sequence (LIFO free
//! list), which in turn is the partition's deterministic event order —
//! but handles never leave the executing thread, so recycling order
//! cannot influence simulation results.

use crate::event::{EventRecord, LpId};
use crate::time::SimTime;
use massf_topology::MassfError;
use std::cmp::Ordering;

/// A generation-checked reference to a payload slot in an
/// [`EventArena`]. Valid until the payload is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    index: u32,
    gen: u32,
}

/// Slab of pending event payloads with free-list slot recycling.
pub struct EventArena<M> {
    slots: Vec<Option<M>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl<M> Default for EventArena<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventArena<M> {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `payload`, recycling a freed slot when one is available.
    pub fn insert(&mut self, payload: M) -> EventHandle {
        match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = Some(payload);
                EventHandle {
                    index,
                    gen: self.gens[index as usize],
                }
            }
            None => {
                // simlint: allow(cast-lossy) -- slot count is bounded by simultaneously pending events, far below u32::MAX
                let index = self.slots.len() as u32;
                self.slots.push(Some(payload));
                self.gens.push(0);
                EventHandle { index, gen: 0 }
            }
        }
    }

    /// Remove and return the payload behind `handle`, releasing its
    /// slot for reuse.
    ///
    /// # Panics
    /// Panics when `handle` is stale: its slot was already taken (the
    /// generation moved on). This is an executor bug, never a model
    /// bug — handles are created and consumed by the engine only.
    pub fn take(&mut self, handle: EventHandle) -> M {
        let i = handle.index as usize;
        assert_eq!(self.gens[i], handle.gen, "stale event handle");
        let payload = self.slots[i]
            .take()
            .expect("generation-live slot holds a payload");
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(handle.index);
        payload
    }

    /// Fallible form of [`EventArena::take`]: returns
    /// [`MassfError::StaleEventHandle`] instead of panicking when the
    /// handle is stale or out of range. The `try_` executors and the
    /// snapshot restore/drain paths use this so that slab misuse
    /// surfaces as a structured error, never a panic; the infallible
    /// hot loop keeps the assert-based [`EventArena::take`].
    pub fn try_take(&mut self, handle: EventHandle) -> Result<M, MassfError> {
        let i = handle.index as usize;
        let stale = || MassfError::StaleEventHandle {
            index: handle.index,
            gen: handle.gen,
        };
        if self.gens.get(i) != Some(&handle.gen) {
            return Err(stale());
        }
        let payload = self.slots[i].take().ok_or_else(stale)?;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(handle.index);
        Ok(payload)
    }

    /// Payloads currently stored.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever grown (high-water mark of simultaneous pending
    /// events).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Move a full record's payload into the arena, returning the
    /// compact heap entry for it.
    pub(crate) fn enqueue(&mut self, rec: EventRecord<M>) -> QueuedEvent {
        let handle = self.insert(rec.payload);
        QueuedEvent {
            time: rec.time,
            tag: rec.tag,
            target: rec.target,
            handle,
        }
    }
}

/// A pending event as the executor heaps see it: the deterministic
/// ordering key inline, the payload by arena handle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub time: SimTime,
    pub tag: u64,
    pub target: LpId,
    pub handle: EventHandle,
}

/// Size budget: time + tag (16) + target + handle (12) pads to 32
/// bytes — two entries per cache line in the heap's backing array,
/// independent of how large the model's payload type is.
const _: () = assert!(std::mem::size_of::<QueuedEvent>() <= 32);

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tag == other.tag
    }
}
impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.tag.cmp(&other.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut arena = EventArena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(a), "a");
        assert_eq!(arena.take(b), "b");
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.capacity(), 2);
    }

    #[test]
    fn slots_recycle_lifo_without_growth() {
        let mut arena = EventArena::new();
        let handles: Vec<_> = (0..4).map(|i| arena.insert(i)).collect();
        for h in handles {
            arena.take(h);
        }
        // Steady-state churn reuses the four slots, most-recently-freed
        // first, and never grows the slab.
        for round in 0..3 {
            let h = arena.insert(round);
            assert_eq!(arena.capacity(), 4);
            assert_eq!(arena.take(h), round);
        }
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn stale_handle_is_rejected() {
        let mut arena = EventArena::new();
        let h = arena.insert(1u8);
        arena.take(h);
        let _ = arena.insert(2u8); // reuses the slot under a new generation
        arena.take(h); // old handle must not see the new payload
    }

    #[test]
    fn try_take_reports_stale_and_out_of_range() {
        let mut arena = EventArena::new();
        let h = arena.insert(1u8);
        assert_eq!(arena.try_take(h), Ok(1u8));
        assert!(matches!(
            arena.try_take(h),
            Err(MassfError::StaleEventHandle { index: 0, .. })
        ));
        let _ = arena.insert(2u8); // slot reused under a new generation
        assert!(
            arena.try_take(h).is_err(),
            "old generation must not see the new payload"
        );
    }

    #[test]
    fn queued_events_order_by_time_then_tag() {
        let mut arena = EventArena::new();
        let qe = |arena: &mut EventArena<u8>, t: u64, tag: u64| {
            arena.enqueue(EventRecord {
                time: SimTime::from_ns(t),
                target: LpId(0),
                tag,
                payload: 0,
            })
        };
        let a = qe(&mut arena, 1, 9);
        let b = qe(&mut arena, 2, 0);
        let c = qe(&mut arena, 1, 1);
        assert!(a < b);
        assert!(c < a);
        assert_eq!(a, qe(&mut arena, 1, 9), "identity is (time, tag)");
    }
}
