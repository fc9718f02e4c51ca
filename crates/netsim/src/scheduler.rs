//! Event-queue backends: the legacy binary heap and the memory-lean
//! calendar queue.
//!
//! The engine schedules every future event — protocol deliveries, timers,
//! ARQ bookkeeping — through one [`Scheduler`]. Two interchangeable
//! backends implement the same total order `(time, seq)` (FIFO within a
//! tick, by global push sequence):
//!
//! * [`SchedulerKind::Heap`] — the original `BinaryHeap<Reverse<Event>>`
//!   with full event payloads stored inline in the heap nodes. Every
//!   push/pop sifts `O(log n)` fat elements; kept as the differential
//!   baseline.
//! * [`SchedulerKind::Calendar`] — a slab arena of event records addressed
//!   by integer [`EventHandle`]s plus a bucketed-wheel calendar queue
//!   ([`Scheduler::WHEEL_BUCKETS`] one-tick buckets). Push and pop are
//!   `O(1)` amortized; the heap degenerates to a small overflow pile for
//!   events scheduled beyond the wheel horizon.
//!
//! # Cancellation
//!
//! [`Scheduler::push`] returns an [`EventToken`]; [`Scheduler::cancel`]
//! drops the event it names if it is still queued. The engine uses this
//! to withdraw a flow's superseded completion the moment the flow table
//! re-predicts it, instead of dispatching a dead event later.
//!
//! * Calendar: cancel frees the arena slot at once and bumps the slot's
//!   generation. Every wheel-bucket and overflow entry carries the
//!   generation it was pushed under, so an entry whose slot has since been
//!   freed (by a cancel or a pop) or reused is *dead*: `pop`, `next_time`
//!   and the overflow migration skip dead entries and discard them.
//! * Heap: cancel records the event's `(time, seq)` key in a set, as
//!   dslab's `cancel_event` does; a cancelled entry is discarded when it
//!   reaches the top of the heap, and its key leaves the set once a live
//!   pop passes it.
//!
//! Seqs are assigned on every push, cancelled or not, so the surviving
//! events keep exactly the `(time, seq)` order they would have had.
//!
//! # Determinism
//!
//! Both backends pop in strictly increasing `(time, seq)` order, where
//! `seq` is assigned at push time from one monotone counter. For the wheel
//! this follows from three invariants over the *live* entries (see
//! DESIGN.md §11 for the argument):
//!
//! 1. events are never pushed into the past (`time ≥ cur`), so a bucket
//!    only ever holds live entries of the single absolute time `t` with
//!    `cur ≤ t < cur + B` and `t ≡ bucket (mod B)` — appending to the
//!    bucket is insertion in seq order;
//! 2. overflow events (time ≥ `cur + B`) migrate into the wheel in
//!    `(time, seq)` heap order *immediately* whenever `cur` advances, so a
//!    migrated entry always lands in its bucket before any direct push of
//!    the same time (a direct push at time `t` requires `t < cur + B`,
//!    which becomes true only at a `cur` advance — after migration ran);
//! 3. `cur` only advances when every earlier bucket is drained.
//!
//! Cancellation only ever removes entries, never moves or reorders one, so
//! it cannot break any of the three. Dead entries are not bound by them
//! (one may linger in a bucket after the window has moved past its time),
//! but no operation ever returns or counts one: a bucket is "drained" when
//! it holds no live entry, and `in_wheel` counts live entries only.

use crate::engine::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Which event-queue backend a [`Simulator`](crate::Simulator) runs on.
///
/// Both kinds are observationally identical — same seed, same protocol ⇒
/// byte-identical `CostBook`, metrics, trace, and outcomes — differing only
/// in speed and memory layout. The default is [`SchedulerKind::Calendar`];
/// [`SchedulerKind::Heap`] remains for differential testing and as the
/// perf baseline in the `scale` bench gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Legacy binary heap storing full events inline (`O(log n)` ops).
    Heap,
    /// Slab arena + calendar queue (bucketed wheel, `O(1)` amortized ops).
    #[default]
    Calendar,
}

/// Integer address of an event record in the calendar backend's slab arena.
///
/// Handles are indices into a free-listed `Vec` of slots: allocating an
/// event never moves existing records, and a popped or cancelled slot is
/// recycled for the next push. The wheel and the overflow heap store only
/// these 4-byte handles (plus the slot generation), never event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle(pub u32);

impl EventHandle {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Names one queued event for [`Scheduler::cancel`]; returned by
/// [`Scheduler::push`]. A token outlives its event harmlessly: once the
/// event has popped or been cancelled, cancelling the token again returns
/// `false` and touches nothing, even after the calendar arena has reused
/// the event's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventToken(TokenKey);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKey {
    /// Heap backend: the event's `(time, seq)` order key.
    Heap { time: SimTime, seq: u64 },
    /// Calendar backend: the arena slot and its generation at push time.
    Calendar(Entry),
}

/// One event as returned by [`Scheduler::pop`].
pub struct PoppedEvent<T> {
    /// Simulated time the event fires at.
    pub time: SimTime,
    /// Destination node.
    pub node: usize,
    /// The engine-defined payload (delivery, timer, ARQ bookkeeping...).
    pub payload: T,
}

/// Inline event record of the heap backend (the legacy layout).
struct HeapEvent<T> {
    time: SimTime,
    seq: u64,
    node: usize,
    payload: T,
}

// Ordering on the (time, seq) key pair only, so `T: Ord` is not required.
impl<T> PartialEq for HeapEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEvent<T> {}
impl<T> PartialOrd for HeapEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEvent<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Heap backend: the legacy inline-payload heap plus the seqs of cancelled
/// events still buried in it.
struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEvent<T>>>,
    /// `(time, seq)` keys cancelled after the last live pop. A cancelled
    /// entry is discarded when it reaches the top of the heap, but its key
    /// stays here until a live pop passes it, so cancelling it again is
    /// still recognized.
    cancelled: BTreeSet<(SimTime, u64)>,
    /// Key of the last live event popped. Live events pop in key order
    /// and pushes never go into the past, so an event keyed at or below it
    /// has popped or was cancelled.
    popped_through: Option<(SimTime, u64)>,
}

impl<T> HeapQueue<T> {
    fn push(&mut self, time: SimTime, seq: u64, node: usize, payload: T) -> TokenKey {
        debug_assert!(
            self.popped_through.is_none_or(|(t, _)| time >= t),
            "push into the past breaks cancel's popped test"
        );
        self.heap.push(Reverse(HeapEvent {
            time,
            seq,
            node,
            payload,
        }));
        TokenKey::Heap { time, seq }
    }

    fn cancel(&mut self, key: (SimTime, u64)) -> bool {
        if self.popped_through.is_some_and(|k| key <= k) {
            return false;
        }
        self.cancelled.insert(key)
    }

    /// Discards cancelled entries off the top of the heap.
    fn skip_cancelled(&mut self) {
        while let Some(Reverse(e)) = self.heap.peek() {
            if !self.cancelled.contains(&(e.time, e.seq)) {
                return;
            }
            self.heap.pop();
        }
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    fn pop(&mut self) -> Option<PoppedEvent<T>> {
        self.skip_cancelled();
        let Reverse(e) = self.heap.pop()?;
        let key = (e.time, e.seq);
        self.popped_through = Some(key);
        // Every cancelled key below this one was discarded on the way here
        // and is now covered by `popped_through`.
        while self.cancelled.first().is_some_and(|&c| c < key) {
            self.cancelled.pop_first();
        }
        Some(PoppedEvent {
            time: e.time,
            node: e.node,
            payload: e.payload,
        })
    }
}

/// Arena slot of the calendar backend. `payload` is `Some` while the
/// handle is live and taken on pop or cancel (the slot then returns to the
/// free list). `gen` counts the slot's lives: it is bumped every time the
/// slot is freed, so an [`Entry`] stamped with an older generation is dead.
/// The seq tiebreak is not stored here: within a bucket it is the
/// insertion order, and the overflow heap carries it in its key.
struct Slot<T> {
    time: SimTime,
    node: u32,
    gen: u32,
    payload: Option<T>,
}

/// A wheel-bucket or overflow entry: the arena slot plus the generation
/// the slot had when the event was pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    handle: EventHandle,
    gen: u32,
}

/// One wheel bucket: entries in insertion (= seq) order with a pop cursor,
/// so draining never shifts elements. The backing `Vec` is reused across
/// wheel rotations.
#[derive(Default)]
struct Bucket {
    items: Vec<Entry>,
    head: usize,
}

/// Calendar-queue backend: slab arena + one-tick bucket wheel + overflow
/// heap of far-future handles.
struct CalendarQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<EventHandle>,
    buckets: Vec<Bucket>,
    /// Far-future events (`time ≥ cur + B`), ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<(SimTime, u64, Entry)>>,
    /// Lower bound on every queued event's time; the wheel window is
    /// `[cur, cur + B)`.
    cur: SimTime,
    /// Live events currently in wheel buckets (excludes overflow). A live
    /// event is in the wheel exactly when its time is below the horizon.
    in_wheel: usize,
}

impl<T> CalendarQueue<T> {
    fn new(wheel_buckets: usize) -> Self {
        debug_assert!(wheel_buckets.is_power_of_two());
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: (0..wheel_buckets).map(|_| Bucket::default()).collect(),
            overflow: BinaryHeap::new(),
            cur: 0,
            in_wheel: 0,
        }
    }

    fn horizon(&self) -> SimTime {
        self.cur + self.buckets.len() as SimTime
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        (time & (self.buckets.len() as SimTime - 1)) as usize
    }

    fn is_live(&self, e: Entry) -> bool {
        self.slots[e.handle.index()].gen == e.gen
    }

    fn alloc(&mut self, time: SimTime, node: usize, payload: T) -> Entry {
        match self.free.pop() {
            Some(handle) => {
                let slot = &mut self.slots[handle.index()];
                slot.time = time;
                slot.node = node as u32;
                slot.payload = Some(payload);
                Entry {
                    handle,
                    gen: slot.gen,
                }
            }
            None => {
                let handle =
                    EventHandle(u32::try_from(self.slots.len()).expect("event arena overflow")); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 handles), not a fault path
                self.slots.push(Slot {
                    time,
                    node: node as u32,
                    gen: 0,
                    payload: Some(payload),
                });
                Entry { handle, gen: 0 }
            }
        }
    }

    /// Ends the current life of `handle`'s slot: every entry stamped with
    /// the old generation is dead from here on.
    fn free_slot(&mut self, handle: EventHandle) -> Option<T> {
        let slot = &mut self.slots[handle.index()];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(handle);
        slot.payload.take()
    }

    fn push(&mut self, time: SimTime, seq: u64, node: usize, payload: T) -> Entry {
        debug_assert!(time >= self.cur, "push into the past breaks the wheel");
        let e = self.alloc(time, node, payload);
        if time < self.horizon() {
            let b = self.bucket_of(time);
            self.buckets[b].items.push(e);
            self.in_wheel += 1;
        } else {
            self.overflow.push(Reverse((time, seq, e)));
        }
        e
    }

    fn cancel(&mut self, e: Entry) -> bool {
        if self
            .slots
            .get(e.handle.index())
            .is_none_or(|s| s.gen != e.gen)
        {
            return false;
        }
        if self.slots[e.handle.index()].time < self.horizon() {
            self.in_wheel -= 1;
        }
        // The bucket or overflow entry stays behind, dead; whoever meets
        // it next discards it.
        self.free_slot(e.handle);
        true
    }

    /// Advances the window to `cur` and drains every overflow handle that
    /// now fits into the wheel, in `(time, seq)` order, discarding dead
    /// ones. Must run before any event at the new `cur` is popped or pushed
    /// (invariant 2).
    fn set_cur(&mut self, cur: SimTime) {
        self.cur = cur;
        let horizon = self.horizon();
        while let Some(&Reverse((t, _, e))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            if self.is_live(e) {
                let b = self.bucket_of(t);
                self.buckets[b].items.push(e);
                self.in_wheel += 1;
            }
        }
    }

    /// Moves bucket `b`'s cursor past dead entries and reports whether a
    /// live one is left at the head. A bucket left with none is reset for
    /// reuse one rotation later.
    fn skip_dead(&mut self, b: usize) -> bool {
        let (slots, bucket) = (&self.slots, &mut self.buckets[b]);
        while let Some(&e) = bucket.items.get(bucket.head) {
            if slots[e.handle.index()].gen == e.gen {
                return true;
            }
            bucket.head += 1;
        }
        bucket.items.clear();
        bucket.head = 0;
        false
    }

    /// Time of the next event without committing any cursor movement, so
    /// `run_until` can stop at a deadline and a later `inject` between the
    /// deadline and the next queued event stays legal (`push` requires
    /// `time ≥ cur`, and `cur` only advances on [`CalendarQueue::pop`]).
    /// Dead entries met on the way are discarded, which changes no order.
    fn next_time(&mut self, live: usize) -> Option<SimTime> {
        if live == 0 {
            return None;
        }
        if self.in_wheel == 0 {
            // Wheel empty: the earliest event is the live overflow minimum.
            loop {
                let &Reverse((t, _, e)) = self.overflow.peek().expect("live events unaccounted"); // simlint: allow(no-panic-in-protocol): guarded by the live-count accounting above, not reachable from faults
                if self.is_live(e) {
                    return Some(t);
                }
                self.overflow.pop();
            }
        }
        // Scan forward for the first bucket with a live entry. All live
        // wheel events lie in [cur, cur + B) — and every overflow event is
        // later than all of them — so the wheel minimum is the global
        // minimum and the scan terminates within one rotation.
        let mut t = self.cur;
        loop {
            if self.skip_dead(self.bucket_of(t)) {
                return Some(t);
            }
            t += 1;
            debug_assert!(t < self.horizon(), "in_wheel count out of sync");
        }
    }

    fn pop(&mut self, live: usize) -> Option<PoppedEvent<T>> {
        let t = self.next_time(live)?;
        if t != self.cur {
            // Commit the window advance; migrates every overflow handle
            // that now fits (when the wheel was empty, `t`'s own included;
            // otherwise all at times > t — see invariant 2).
            self.set_cur(t);
        }
        let b = self.bucket_of(t);
        let found = self.skip_dead(b);
        debug_assert!(found, "next_time named a bucket with no live entry");
        let bucket = &mut self.buckets[b];
        let e = bucket.items[bucket.head];
        bucket.head += 1;
        if bucket.head == bucket.items.len() {
            // Reset for reuse one rotation later; same-tick pushes from the
            // handler simply re-populate it and are popped in seq order.
            bucket.items.clear();
            bucket.head = 0;
        }
        self.in_wheel -= 1;
        let slot = &self.slots[e.handle.index()];
        debug_assert_eq!(slot.time, t, "bucket held a foreign-time handle");
        let node = slot.node as usize;
        let payload = self
            .free_slot(e.handle)
            .expect("double pop of event handle"); // simlint: allow(no-panic-in-protocol): arena bookkeeping invariant; a live entry's slot holds its payload
        Some(PoppedEvent {
            time: t,
            node,
            payload,
        })
    }
}

enum Backend<T> {
    Heap(HeapQueue<T>),
    Calendar(CalendarQueue<T>),
}

/// The engine's future-event set: push with an auto-assigned global
/// sequence number, pop in `(time, seq)` order, cancel by token.
///
/// Construct with [`Scheduler::new`]; the backend is fixed per run (the
/// engine asserts the queue is empty when switching kinds).
pub struct Scheduler<T> {
    seq: u64,
    live: usize,
    peak_live: usize,
    backend: Backend<T>,
}

impl<T> Scheduler<T> {
    /// Buckets in the calendar wheel (one simulated tick each). Sized to
    /// cover the implicit-schedule horizon of a 64k-node fleet (§4 start
    /// times reach a few thousand ticks); later events overflow into a
    /// heap and migrate in when the window reaches them.
    pub const WHEEL_BUCKETS: usize = 8192;

    /// Creates an empty scheduler on the given backend.
    pub fn new(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(HeapQueue {
                heap: BinaryHeap::new(),
                cancelled: BTreeSet::new(),
                popped_through: None,
            }),
            SchedulerKind::Calendar => Backend::Calendar(CalendarQueue::new(Self::WHEEL_BUCKETS)),
        };
        Scheduler {
            seq: 0,
            live: 0,
            peak_live: 0,
            backend,
        }
    }

    /// The backend kind in force.
    pub fn kind(&self) -> SchedulerKind {
        match self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Queued events right now (cancelled ones excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of simultaneously queued events over the whole run.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Queues `payload` for `node` at `time`, assigning the next global
    /// sequence number (the same-tick FIFO tiebreak). The returned token
    /// can later [`cancel`](Scheduler::cancel) the event.
    pub fn push(&mut self, time: SimTime, node: usize, payload: T) -> EventToken {
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        EventToken(match &mut self.backend {
            Backend::Heap(q) => q.push(time, seq, node, payload),
            Backend::Calendar(cal) => TokenKey::Calendar(cal.push(time, seq, node, payload)),
        })
    }

    /// Drops the event `token` names, so it never pops. Returns `false`
    /// (and does nothing) when that event has already popped or been
    /// cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let cancelled = match (&mut self.backend, token.0) {
            (Backend::Heap(q), TokenKey::Heap { time, seq }) => q.cancel((time, seq)),
            (Backend::Calendar(cal), TokenKey::Calendar(e)) => cal.cancel(e),
            _ => false,
        };
        if cancelled {
            self.live -= 1;
        }
        cancelled
    }

    /// Time of the earliest queued event without popping it (`None` when
    /// empty). May discard cancelled entries; never reorders events.
    pub fn next_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(q) => q.next_time(),
            Backend::Calendar(cal) => cal.next_time(self.live),
        }
    }

    /// Removes and returns the earliest event (`(time, seq)` order).
    pub fn pop(&mut self) -> Option<PoppedEvent<T>> {
        let popped = match &mut self.backend {
            Backend::Heap(q) => q.pop(),
            Backend::Calendar(cal) => cal.pop(self.live),
        };
        if popped.is_some() {
            self.live -= 1;
        }
        popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(s: &mut Scheduler<T>) -> Vec<(SimTime, usize, T)> {
        let mut out = Vec::new();
        while let Some(e) = s.pop() {
            out.push((e.time, e.node, e.payload));
        }
        out
    }

    #[test]
    fn same_tick_pops_in_push_order() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            for i in 0..10u32 {
                s.push(5, i as usize, i);
            }
            let order: Vec<u32> = drain(&mut s).into_iter().map(|(_, _, p)| p).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn pops_in_time_order_across_wheel_wrap() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            let b = Scheduler::<u64>::WHEEL_BUCKETS as SimTime;
            // Times straddling several wheel rotations, pushed out of order.
            let times = [3 * b + 1, 0, b, 2, 2 * b + 2, 1, b - 1, b + 1, 7];
            for (i, &t) in times.iter().enumerate() {
                s.push(t, i, t);
            }
            let got: Vec<SimTime> = drain(&mut s).into_iter().map(|(t, _, _)| t).collect();
            let mut want = times.to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn overflow_migration_preserves_seq_order() {
        // Two events at the same far-future time T: one pushed while T is
        // beyond the horizon (overflow), one pushed after the window moved
        // close enough for a direct bucket insert. Seq order must survive.
        let b = Scheduler::<u32>::WHEEL_BUCKETS as SimTime;
        let far = b + 100;
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            s.push(far, 0, 1); // beyond horizon from cur=0: overflow
            s.push(200, 0, 0); // pops first; advances cur past 200
            assert_eq!(s.pop().unwrap().payload, 0, "{kind:?}");
            // Window now reaches `far`: this goes straight into the bucket.
            s.push(far, 0, 2);
            let order: Vec<u32> = drain(&mut s).into_iter().map(|(_, _, p)| p).collect();
            assert_eq!(order, vec![1, 2], "{kind:?}: migration lost FIFO");
        }
    }

    #[test]
    fn next_time_peeks_without_losing_events() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            assert_eq!(s.next_time(), None);
            s.push(9, 1, 'a');
            s.push(4, 2, 'b');
            assert_eq!(s.next_time(), Some(4), "{kind:?}");
            assert_eq!(s.next_time(), Some(4), "{kind:?}: peek must not pop");
            assert_eq!(s.len(), 2);
            let e = s.pop().unwrap();
            assert_eq!((e.time, e.node, e.payload), (4, 2, 'b'));
            assert_eq!(s.next_time(), Some(9));
        }
    }

    #[test]
    fn peak_live_tracks_high_water_mark() {
        let mut s = Scheduler::new(SchedulerKind::Calendar);
        for t in 0..100 {
            s.push(t, 0, ());
        }
        for _ in 0..100 {
            s.pop();
        }
        s.push(1000, 0, ());
        assert_eq!(s.peak_live(), 100);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut s = Scheduler::new(SchedulerKind::Calendar);
        // Steady-state churn: the arena should stay at the live size, not
        // grow with total pushes.
        for round in 0..1000u64 {
            s.push(round, 0, round);
            let e = s.pop().unwrap();
            assert_eq!(e.payload, round);
        }
        let Backend::Calendar(cal) = &s.backend else {
            unreachable!()
        };
        assert!(
            cal.slots.len() <= 2,
            "arena grew: {} slots",
            cal.slots.len()
        );
    }

    #[test]
    fn cancelled_event_never_pops() {
        let b = Scheduler::<u32>::WHEEL_BUCKETS as SimTime;
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            let tokens: Vec<EventToken> = (0..6u32).map(|i| s.push(3, 0, i)).collect();
            let far = s.push(b + 50, 0, 100); // overflow on the calendar
            for &i in &[1usize, 4] {
                assert!(s.cancel(tokens[i]), "{kind:?}: queued event cancels");
            }
            assert!(s.cancel(far), "{kind:?}: overflow event cancels");
            assert_eq!(s.len(), 4, "{kind:?}");
            let order: Vec<u32> = drain(&mut s).into_iter().map(|(_, _, p)| p).collect();
            assert_eq!(order, vec![0, 2, 3, 5], "{kind:?}");
            assert!(s.is_empty());
        }
    }

    #[test]
    fn cancelling_a_spent_token_returns_false() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            let popped = s.push(1, 0, 'a');
            let cancelled = s.push(2, 0, 'b');
            let kept = s.push(3, 0, 'c');
            assert_eq!(s.pop().unwrap().payload, 'a');
            assert!(!s.cancel(popped), "{kind:?}: popped token");
            assert!(s.cancel(cancelled), "{kind:?}");
            assert!(!s.cancel(cancelled), "{kind:?}: already cancelled");
            assert_eq!(s.len(), 1, "{kind:?}: failed cancels leave len alone");
            assert_eq!(s.pop().unwrap().payload, 'c');
            assert!(!s.cancel(kept), "{kind:?}: popped after a cancel");
            assert_eq!(s.pop().map(|e| e.payload), None);
        }
    }

    #[test]
    fn discarding_a_cancelled_event_spares_earlier_pushes() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            let late = s.push(50, 0, 'a');
            assert!(s.cancel(late));
            // The peek may discard the cancelled entry; an event pushed
            // after that, but due before it, must still cancel normally.
            assert_eq!(s.next_time(), None, "{kind:?}");
            let early = s.push(10, 0, 'b');
            assert!(!s.cancel(late), "{kind:?}");
            assert!(s.cancel(early), "{kind:?}");
            assert!(s.is_empty(), "{kind:?}");
            s.push(20, 0, 'c');
            assert_eq!(drain(&mut s), vec![(20, 0, 'c')], "{kind:?}");
        }
    }

    #[test]
    fn old_token_cannot_cancel_the_slot_reuser() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            let first = s.push(5, 0, 1u32);
            assert!(s.cancel(first));
            // The calendar hands the freed slot to the next push.
            let second = s.push(5, 0, 2u32);
            assert_ne!(first, second, "{kind:?}: tokens differ across lives");
            assert!(!s.cancel(first), "{kind:?}: stale token hit the reuser");
            assert_eq!(s.pop().unwrap().payload, 2, "{kind:?}");
            // And once the reuser popped, its slot's next life is safe too.
            let third = s.push(6, 0, 3u32);
            assert!(!s.cancel(second), "{kind:?}");
            assert!(!s.cancel(first), "{kind:?}");
            assert!(s.cancel(third), "{kind:?}");
            assert!(s.is_empty());
        }
    }

    #[test]
    fn next_time_skips_a_cancelled_head() {
        let b = Scheduler::<char>::WHEEL_BUCKETS as SimTime;
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut s = Scheduler::new(kind);
            let head = s.push(4, 0, 'a');
            s.push(9, 0, 'b');
            assert!(s.cancel(head));
            assert_eq!(s.next_time(), Some(9), "{kind:?}: wheel head");
            let e = s.pop().unwrap();
            assert_eq!((e.time, e.payload), (9, 'b'), "{kind:?}");
            let c = s.push(2 * b, 0, 'c');
            s.push(3 * b, 0, 'd');
            assert!(s.cancel(c));
            assert_eq!(s.next_time(), Some(3 * b), "{kind:?}: overflow head");
            assert_eq!(s.pop().unwrap().payload, 'd', "{kind:?}");
            assert_eq!(s.next_time(), None, "{kind:?}");
        }
    }

    #[test]
    fn cancel_frees_the_calendar_slot_at_once() {
        let mut s = Scheduler::new(SchedulerKind::Calendar);
        // A flow re-predicted a thousand times: one live event at a time,
        // so the arena never grows past it.
        let mut tok = s.push(10, 0, 0u64);
        for round in 1..1000u64 {
            assert!(s.cancel(tok));
            tok = s.push(10 + round, 0, round);
        }
        assert_eq!(s.peak_live(), 1);
        let Backend::Calendar(cal) = &s.backend else {
            unreachable!()
        };
        assert_eq!(cal.slots.len(), 1, "cancelled slots are recycled");
        assert_eq!(drain(&mut s), vec![(1009, 0, 999)]);
    }

    /// Differential test: both backends must produce the identical pop
    /// sequence on an adversarial interleaved workload (deterministic LCG;
    /// includes same-tick bursts, far-future overflow times,
    /// pop-while-pushing churn and cancels of queued, popped and already
    /// cancelled events).
    #[test]
    fn heap_and_calendar_agree_on_random_workloads() {
        let run = |kind: SchedulerKind| {
            let mut s: Scheduler<u64> = Scheduler::new(kind);
            let mut lcg: u64 = 0x5eed;
            let mut next = || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lcg >> 33
            };
            let mut now: SimTime = 0;
            let mut out = Vec::new();
            let mut tag = 0u64;
            let mut tokens = Vec::new();
            for _ in 0..500 {
                // Burst of pushes at assorted offsets from `now`.
                for _ in 0..(next() % 8) {
                    let r = next();
                    let dt = match r % 4 {
                        0 => 0,                                          // same tick
                        1 => r % 16,                                     // near future
                        2 => r % Scheduler::<u64>::WHEEL_BUCKETS as u64, // in window
                        _ => 8192 + r % 50_000,                          // overflow
                    };
                    tokens.push(s.push(now + dt, (r % 64) as usize, tag));
                    tag += 1;
                }
                // Cancel a few tokens, live or spent alike; both backends
                // must agree on which cancels took effect.
                for _ in 0..(next() % 3) {
                    if !tokens.is_empty() {
                        let i = (next() as usize) % tokens.len();
                        out.push((u64::MAX, i, u64::from(s.cancel(tokens[i]))));
                    }
                }
                // Drain a few.
                for _ in 0..(next() % 6) {
                    if let Some(e) = s.pop() {
                        assert!(e.time >= now, "time went backwards");
                        now = e.time;
                        out.push((e.time, e.node, e.payload));
                    }
                }
            }
            while let Some(e) = s.pop() {
                out.push((e.time, e.node, e.payload));
            }
            out
        };
        assert_eq!(
            run(SchedulerKind::Heap),
            run(SchedulerKind::Calendar),
            "backends diverged"
        );
    }
}
