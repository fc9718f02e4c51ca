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
//! # Determinism
//!
//! Both backends pop in strictly increasing `(time, seq)` order, where
//! `seq` is assigned at push time from one monotone counter. For the wheel
//! this follows from three invariants (see DESIGN.md §11 for the argument):
//!
//! 1. events are never pushed into the past (`time ≥ cur`), so a bucket
//!    only ever holds entries of the single absolute time `t` with
//!    `cur ≤ t < cur + B` and `t ≡ bucket (mod B)` — appending to the
//!    bucket is insertion in seq order;
//! 2. overflow events (time ≥ `cur + B`) migrate into the wheel in
//!    `(time, seq)` heap order *immediately* whenever `cur` advances, so a
//!    migrated entry always lands in its bucket before any direct push of
//!    the same time (a direct push at time `t` requires `t < cur + B`,
//!    which becomes true only at a `cur` advance — after migration ran);
//! 3. `cur` only advances when every earlier bucket is drained.

use crate::engine::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// event never moves existing records, and a popped slot is recycled for
/// the next push. A handle is live from push to pop; the wheel and the
/// overflow heap store only these 4-byte handles, never event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle(pub u32);

impl EventHandle {
    fn index(self) -> usize {
        self.0 as usize
    }
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

/// Arena slot of the calendar backend. `payload` is `Some` while the
/// handle is live and taken on pop (the slot then returns to the free
/// list). The seq tiebreak is not stored here: within a bucket it is the
/// insertion order, and the overflow heap carries it in its key.
struct Slot<T> {
    time: SimTime,
    node: u32,
    payload: Option<T>,
}

/// One wheel bucket: handles in insertion (= seq) order with a pop cursor,
/// so draining never shifts elements. The backing `Vec` is reused across
/// wheel rotations.
#[derive(Default)]
struct Bucket {
    items: Vec<EventHandle>,
    head: usize,
}

impl Bucket {
    fn is_drained(&self) -> bool {
        self.head >= self.items.len()
    }
}

/// Calendar-queue backend: slab arena + one-tick bucket wheel + overflow
/// heap of far-future handles.
struct CalendarQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<EventHandle>,
    buckets: Vec<Bucket>,
    /// Far-future events (`time ≥ cur + B`), ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<(SimTime, u64, EventHandle)>>,
    /// Lower bound on every queued event's time; the wheel window is
    /// `[cur, cur + B)`.
    cur: SimTime,
    /// Live handles currently in wheel buckets (excludes overflow).
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

    fn alloc(&mut self, time: SimTime, node: usize, payload: T) -> EventHandle {
        let slot = Slot {
            time,
            node: node as u32,
            payload: Some(payload),
        };
        match self.free.pop() {
            Some(h) => {
                self.slots[h.index()] = slot;
                h
            }
            None => {
                let h = EventHandle(u32::try_from(self.slots.len()).expect("event arena overflow")); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 handles), not a fault path
                self.slots.push(slot);
                h
            }
        }
    }

    fn push(&mut self, time: SimTime, seq: u64, node: usize, payload: T) {
        debug_assert!(time >= self.cur, "push into the past breaks the wheel");
        let h = self.alloc(time, node, payload);
        if time < self.horizon() {
            let b = self.bucket_of(time);
            self.buckets[b].items.push(h);
            self.in_wheel += 1;
        } else {
            self.overflow.push(Reverse((time, seq, h)));
        }
    }

    /// Advances the window to `cur` and drains every overflow handle that
    /// now fits into the wheel, in `(time, seq)` order. Must run before
    /// any event at the new `cur` is popped or pushed (invariant 2).
    fn set_cur(&mut self, cur: SimTime) {
        self.cur = cur;
        let horizon = self.horizon();
        while let Some(&Reverse((t, _, h))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            let b = self.bucket_of(t);
            self.buckets[b].items.push(h);
            self.in_wheel += 1;
        }
    }

    /// Time of the next event without committing any cursor movement —
    /// a pure peek, so `run_until` can stop at a deadline and a later
    /// `inject` between the deadline and the next queued event stays
    /// legal (`push` requires `time ≥ cur`, and `cur` only advances on
    /// [`CalendarQueue::pop`]).
    fn next_time(&self, live: usize) -> Option<SimTime> {
        if live == 0 {
            return None;
        }
        if self.in_wheel == 0 {
            // Wheel empty: the earliest event is the overflow minimum.
            let &Reverse((t, _, _)) = self.overflow.peek().expect("live events unaccounted"); // simlint: allow(no-panic-in-protocol): guarded by the live-count accounting above, not reachable from faults
            return Some(t);
        }
        // Scan forward for the first non-drained bucket. All wheel events
        // live in [cur, cur + B) — and every overflow event is later than
        // all of them — so the wheel minimum is the global minimum and the
        // scan terminates within one rotation.
        let mut t = self.cur;
        loop {
            if !self.buckets[self.bucket_of(t)].is_drained() {
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
            // that now fits (all at times > t — see invariant 2).
            self.set_cur(t);
        }
        let b = self.bucket_of(t);
        let bucket = &mut self.buckets[b];
        let h = bucket.items[bucket.head];
        bucket.head += 1;
        if bucket.is_drained() {
            // Reset for reuse one rotation later; same-tick pushes from the
            // handler simply re-populate it and are popped in seq order.
            bucket.items.clear();
            bucket.head = 0;
        }
        self.in_wheel -= 1;
        let slot = &mut self.slots[h.index()];
        debug_assert_eq!(slot.time, t, "bucket held a foreign-time handle");
        let payload = slot.payload.take().expect("double pop of event handle"); // simlint: allow(no-panic-in-protocol): arena bookkeeping invariant; a bucket handle is live exactly once
        let node = slot.node as usize;
        self.free.push(h);
        Some(PoppedEvent {
            time: t,
            node,
            payload,
        })
    }
}

enum Backend<T> {
    Heap(BinaryHeap<Reverse<HeapEvent<T>>>),
    Calendar(CalendarQueue<T>),
}

/// The engine's future-event set: push with an auto-assigned global
/// sequence number, pop in `(time, seq)` order.
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
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
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

    /// Queued events right now.
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
    /// sequence number (the same-tick FIFO tiebreak).
    pub fn push(&mut self, time: SimTime, node: usize, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Reverse(HeapEvent {
                time,
                seq,
                node,
                payload,
            })),
            Backend::Calendar(cal) => cal.push(time, seq, node, payload),
        }
    }

    /// Time of the earliest queued event without popping it (`None` when
    /// empty). May advance internal cursors; never reorders events.
    pub fn next_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|Reverse(e)| e.time),
            Backend::Calendar(cal) => cal.next_time(self.live),
        }
    }

    /// Removes and returns the earliest event (`(time, seq)` order).
    pub fn pop(&mut self) -> Option<PoppedEvent<T>> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|Reverse(e)| PoppedEvent {
                time: e.time,
                node: e.node,
                payload: e.payload,
            }),
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

    /// Differential test: both backends must produce the identical pop
    /// sequence on an adversarial interleaved workload (deterministic LCG;
    /// includes same-tick bursts, far-future overflow times and
    /// pop-while-pushing churn).
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
                    s.push(now + dt, (r % 64) as usize, tag);
                    tag += 1;
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
