//! A bounded lock-free MPMC ring (Vyukov's sequence-tagged queue).
//!
//! The one ring the hot path rests on: the buffer pool's free-list
//! shards carry `ChunkBuf` buffers through it, the IO engine's free /
//! submission / completion rings carry descriptor indices. (The flight
//! recorder's ring overwrites oldest-first and is a different structure;
//! see `obs/flight.rs`.)
//!
//! Each slot carries a sequence number. A slot at position `pos` is
//! writable when `seq == pos` and readable when `seq == pos + 1`; a
//! producer claims it by CAS on `tail`, a consumer by CAS on `head`, and
//! each publishes its hand-over with a Release store of the next `seq`
//! that the other side Acquire-loads. `push` and `pop` never block:
//! they report full / empty, where "full" and "empty" include the
//! transient state of a peer that has claimed a slot but not yet
//! published it. Callers whose occupancy is bounded below the capacity
//! (both callers size the ring at twice what they ever hold) ride that
//! out with [`Ring::push_spin`].

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{
    AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};

/// Pads a hot atomic to its own cache line: producers CAS-ing `tail`
/// must not invalidate the line consumers CAS on `head`.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free multi-producer / multi-consumer FIFO.
pub(crate) struct Ring<T> {
    mask: usize,
    /// Dequeue position (own cache line).
    head: CachePadded<AtomicUsize>,
    /// Enqueue position (own cache line).
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot<T>]>,
}

// SAFETY: a slot's `val` is touched only by the one thread that won the
// CAS on `tail` (to write it) or on `head` (to read it out) for that
// position, and the slot's `seq` Release store / Acquire load orders the
// write before the read. `mask`, `head`, `tail` and `seq` are plain or
// atomic integers. Values of `T` cross threads by value (pushed on one,
// popped or dropped on another), hence `T: Send`; no `&T` is ever
// shared, so `T: Sync` is not needed.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring holding at least `capacity` values (rounded up to a power
    /// of two, minimum 2).
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            mask: cap - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            slots,
        }
    }

    /// Enqueues `v`, or returns it if the ring is full.
    pub(crate) fn push(&self, v: T) -> Result<(), T> {
        let mut pos = self.tail.0.load(Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self
                    .tail
                    .0
                    .compare_exchange_weak(pos, pos.wrapping_add(1), Relaxed, Relaxed)
                {
                    Ok(_) => {
                        // SAFETY: winning the CAS at `pos` while
                        // `seq == pos` makes this thread the slot's only
                        // accessor until the store below; the slot is
                        // empty (its last value was read out by the pop
                        // that set `seq` to `pos`).
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos.wrapping_add(1), Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if dif < 0 {
                return Err(v);
            } else {
                pos = self.tail.0.load(Relaxed);
            }
        }
    }

    /// [`push`](Self::push) for callers that keep the ring logically
    /// below capacity: a failed push then only means a concurrent pop
    /// sits between its head-CAS and its sequence store, which is a few
    /// instructions long, so spinning it out is bounded.
    pub(crate) fn push_spin(&self, mut v: T) {
        while let Err(back) = self.push(v) {
            v = back;
            std::hint::spin_loop();
        }
    }

    /// Dequeues the oldest value, or `None` if the ring is empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut pos = self.head.0.load(Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self
                    .head
                    .0
                    .compare_exchange_weak(pos, pos.wrapping_add(1), Relaxed, Relaxed)
                {
                    Ok(_) => {
                        // SAFETY: winning the CAS at `pos` while
                        // `seq == pos + 1` makes this thread the slot's
                        // only accessor until the store below, and the
                        // Acquire load of `seq` saw the push's Release
                        // store, so the value is initialized.
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask).wrapping_add(1), Release);
                        return Some(v);
                    }
                    Err(p) => pos = p,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.head.0.load(Relaxed);
            }
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Pop what is left so the values' destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Barrier};

    #[test]
    fn fifo_order_survives_wrap_around() {
        let ring = Ring::new(4);
        for lap in 0..10u32 {
            for i in 0..3 {
                ring.push(lap * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(ring.pop(), Some(lap * 3 + i));
            }
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn full_and_empty_are_reported_not_blocked_on() {
        let ring = Ring::new(3); // rounds up to 4
        assert_eq!(ring.pop(), None);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.push(99), Err(99), "a full ring hands the value back");
        assert_eq!(ring.pop(), Some(0));
        ring.push(4).unwrap();
        assert_eq!((1..=4).map(|_| ring.pop().unwrap()).sum::<i32>(), 10);
        assert_eq!(ring.pop(), None);
        assert_eq!(Ring::<u8>::new(0).mask, 1, "minimum capacity is 2");
    }

    #[test]
    fn mpmc_conserves_every_value() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let ring = Arc::new(Ring::new(64));
        let start = Arc::new(Barrier::new(2 * PRODUCERS as usize));
        let popped = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let (r, go) = (Arc::clone(&ring), Arc::clone(&start));
            handles.push(std::thread::spawn(move || {
                go.wait();
                for i in 0..PER {
                    let mut v = p * PER + i;
                    while let Err(back) = r.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            }));
            let (r, go) = (Arc::clone(&ring), Arc::clone(&start));
            let (popped, sum) = (Arc::clone(&popped), Arc::clone(&sum));
            handles.push(std::thread::spawn(move || {
                go.wait();
                while popped.load(Relaxed) < PRODUCERS * PER {
                    match r.pop() {
                        Some(v) => {
                            sum.fetch_add(v, Relaxed);
                            popped.fetch_add(1, Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = PRODUCERS * PER;
        assert_eq!(popped.load(Relaxed), n);
        assert_eq!(sum.load(Relaxed), n * (n - 1) / 2, "lost or duplicated");
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn drop_drains_what_is_left() {
        let token = Arc::new(());
        let ring = Ring::new(8);
        for _ in 0..5 {
            ring.push(Arc::clone(&token)).unwrap();
        }
        drop(ring.pop());
        assert_eq!(Arc::strong_count(&token), 5);
        drop(ring);
        assert_eq!(Arc::strong_count(&token), 1, "queued values were leaked");
    }
}
