//! Cooperative synchronization primitives for simulation tasks.
//!
//! All primitives are **fair** (strict FIFO wakeup) and single-threaded:
//! they rely on the cooperative scheduling of [`Sim`](crate::Sim), where no
//! other task can run between checking a condition and registering a waiter
//! within the same poll. They are therefore free of the lost-wakeup races
//! that their multi-threaded counterparts must defend against.
//!
//! - [`Semaphore`]: counting semaphore with RAII [`Permit`]s. Models bounded
//!   resources (buffer pools, disk queue slots, server worker threads).
//! - [`Notify`]: condition-variable-style wakeups.
//! - [`WaitGroup`]: dynamic completion counting (outstanding chunk writes).
//! - [`channel`]: FIFO MPMC channel (the CRFS work queue in the simulator).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaitState {
    Waiting,
    Granted,
    Cancelled,
}

struct SemWaiter {
    need: usize,
    state: Cell<WaitState>,
    waker: RefCell<Option<Waker>>,
}

struct SemInner {
    permits: usize,
    waiters: VecDeque<Rc<SemWaiter>>,
}

impl SemInner {
    /// Hands permits to queued waiters in FIFO order.
    fn grant(&mut self) {
        while let Some(front) = self.waiters.front() {
            match front.state.get() {
                WaitState::Cancelled => {
                    self.waiters.pop_front();
                }
                WaitState::Waiting if self.permits >= front.need => {
                    self.permits -= front.need;
                    front.state.set(WaitState::Granted);
                    if let Some(w) = front.waker.borrow_mut().take() {
                        w.wake();
                    }
                    self.waiters.pop_front();
                }
                _ => break,
            }
        }
    }
}

/// A fair counting semaphore.
///
/// `acquire(n).await` suspends until `n` permits are available *and* every
/// earlier waiter has been served (no barging), then returns an RAII
/// [`Permit`] that restores the permits on drop.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

impl Semaphore {
    /// Creates a semaphore holding `permits` permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Permits currently available (not counting queued waiters).
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Number of tasks queued on the semaphore.
    pub fn queue_len(&self) -> usize {
        self.inner
            .borrow()
            .waiters
            .iter()
            .filter(|w| w.state.get() == WaitState::Waiting)
            .count()
    }

    /// Adds `n` permits, waking queued waiters as they become satisfiable.
    pub fn add_permits(&self, n: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += n;
        inner.grant();
    }

    /// Attempts to take `n` permits without waiting. Fails if that would
    /// overtake an already-queued waiter.
    pub fn try_acquire(&self, n: usize) -> Option<Permit> {
        let mut inner = self.inner.borrow_mut();
        let nobody_waiting = inner
            .waiters
            .iter()
            .all(|w| w.state.get() != WaitState::Waiting);
        if nobody_waiting && inner.permits >= n {
            inner.permits -= n;
            Some(Permit {
                sem: Rc::clone(&self.inner),
                count: n,
            })
        } else {
            None
        }
    }

    /// Waits for `n` permits (FIFO-fair).
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: Rc::clone(&self.inner),
            need: n,
            waiter: None,
            complete: false,
        }
    }
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semaphore")
            .field("available", &self.available())
            .field("queued", &self.queue_len())
            .finish()
    }
}

/// Future returned by [`Semaphore::acquire`].
#[must_use = "futures do nothing unless awaited"]
pub struct Acquire {
    sem: Rc<RefCell<SemInner>>,
    need: usize,
    waiter: Option<Rc<SemWaiter>>,
    complete: bool,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        if let Some(w) = &self.waiter {
            match w.state.get() {
                WaitState::Granted => {
                    self.complete = true;
                    return Poll::Ready(Permit {
                        sem: Rc::clone(&self.sem),
                        count: self.need,
                    });
                }
                WaitState::Waiting => {
                    *w.waker.borrow_mut() = Some(cx.waker().clone());
                    return Poll::Pending;
                }
                WaitState::Cancelled => unreachable!("cancelled waiter polled"),
            }
        }
        let mut inner = self.sem.borrow_mut();
        let nobody_waiting = inner
            .waiters
            .iter()
            .all(|w| w.state.get() != WaitState::Waiting);
        if nobody_waiting && inner.permits >= self.need {
            inner.permits -= self.need;
            drop(inner);
            self.complete = true;
            return Poll::Ready(Permit {
                sem: Rc::clone(&self.sem),
                count: self.need,
            });
        }
        let waiter = Rc::new(SemWaiter {
            need: self.need,
            state: Cell::new(WaitState::Waiting),
            waker: RefCell::new(Some(cx.waker().clone())),
        });
        inner.waiters.push_back(Rc::clone(&waiter));
        drop(inner);
        self.waiter = Some(waiter);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.complete {
            return;
        }
        if let Some(w) = &self.waiter {
            match w.state.get() {
                WaitState::Waiting => w.state.set(WaitState::Cancelled),
                WaitState::Granted => {
                    // Granted but never observed: return the permits.
                    let mut inner = self.sem.borrow_mut();
                    inner.permits += self.need;
                    inner.grant();
                }
                WaitState::Cancelled => {}
            }
        }
    }
}

/// RAII permit from a [`Semaphore`]; returns its permits on drop.
pub struct Permit {
    sem: Rc<RefCell<SemInner>>,
    count: usize,
}

impl Permit {
    /// Number of permits held.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Releases the permits permanently without returning them (shrinks the
    /// semaphore).
    pub fn forget(mut self) {
        self.count = 0;
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.count > 0 {
            let mut inner = self.sem.borrow_mut();
            inner.permits += self.count;
            inner.grant();
        }
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyWaiter {
    notified: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

/// Condition-variable-style notification.
///
/// The intended pattern is the classic predicate loop:
/// ```ignore
/// while !predicate() {
///     notify.notified().await;
/// }
/// ```
/// Because the executor is cooperative, no wakeup can be lost between the
/// predicate check and the await.
#[derive(Clone, Default)]
pub struct Notify {
    waiters: Rc<RefCell<VecDeque<Rc<NotifyWaiter>>>>,
}

impl Notify {
    /// Creates a notifier with no waiters.
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Wakes the oldest waiter, if any.
    pub fn notify_one(&self) {
        let mut ws = self.waiters.borrow_mut();
        if let Some(w) = ws.pop_front() {
            w.notified.set(true);
            if let Some(wk) = w.waker.borrow_mut().take() {
                wk.wake();
            }
        }
    }

    /// Wakes every current waiter.
    pub fn notify_all(&self) {
        let mut ws = self.waiters.borrow_mut();
        for w in ws.drain(..) {
            w.notified.set(true);
            if let Some(wk) = w.waker.borrow_mut().take() {
                wk.wake();
            }
        }
    }

    /// Waits for the next notification.
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            waiter: None,
        }
    }

    /// Number of tasks currently waiting.
    pub fn waiter_count(&self) -> usize {
        self.waiters.borrow().len()
    }
}

impl fmt::Debug for Notify {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Notify")
            .field("waiters", &self.waiter_count())
            .finish()
    }
}

/// Future returned by [`Notify::notified`].
#[must_use = "futures do nothing unless awaited"]
pub struct Notified {
    notify: Notify,
    waiter: Option<Rc<NotifyWaiter>>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match &self.waiter {
            Some(w) if w.notified.get() => Poll::Ready(()),
            Some(w) => {
                *w.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
            None => {
                let w = Rc::new(NotifyWaiter {
                    notified: Cell::new(false),
                    waker: RefCell::new(Some(cx.waker().clone())),
                });
                self.notify.waiters.borrow_mut().push_back(Rc::clone(&w));
                self.waiter = Some(w);
                Poll::Pending
            }
        }
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            if !w.notified.get() {
                // Lazy removal: drop our entry from the queue.
                self.notify
                    .waiters
                    .borrow_mut()
                    .retain(|x| !Rc::ptr_eq(x, w));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

struct WaitGroupInner {
    count: usize,
    notify: Notify,
}

/// Tracks a dynamic set of outstanding operations; `wait()` resolves when
/// the count returns to zero. This mirrors CRFS's "complete chunk count ==
/// write chunk count" close barrier.
#[derive(Clone)]
pub struct WaitGroup {
    inner: Rc<RefCell<WaitGroupInner>>,
}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    /// Creates a wait group with a zero count.
    pub fn new() -> WaitGroup {
        WaitGroup {
            inner: Rc::new(RefCell::new(WaitGroupInner {
                count: 0,
                notify: Notify::new(),
            })),
        }
    }

    /// Registers `n` new outstanding operations.
    pub fn add(&self, n: usize) {
        self.inner.borrow_mut().count += n;
    }

    /// Marks one operation complete.
    ///
    /// # Panics
    /// Panics if the count is already zero.
    pub fn done(&self) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.count > 0, "WaitGroup::done called with zero count");
        inner.count -= 1;
        if inner.count == 0 {
            inner.notify.notify_all();
        }
    }

    /// Current outstanding count.
    pub fn count(&self) -> usize {
        self.inner.borrow().count
    }

    /// Waits until the count reaches zero (returns immediately if it
    /// already is).
    pub async fn wait(&self) {
        loop {
            let notified = {
                let inner = self.inner.borrow();
                if inner.count == 0 {
                    return;
                }
                inner.notify.notified()
            };
            notified.await;
        }
    }
}

// ---------------------------------------------------------------------------
// MPMC channel
// ---------------------------------------------------------------------------

/// Error returned by [`Sender::send`] when every receiver has been dropped;
/// carries the unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("channel closed: all receivers dropped")
    }
}

struct SendWaiter<T> {
    value: RefCell<Option<T>>,
    state: Cell<WaitState>,
    waker: RefCell<Option<Waker>>,
}

struct ChanInner<T> {
    buf: VecDeque<T>,
    cap: usize,
    senders: usize,
    receivers: usize,
    recv_waiters: VecDeque<Rc<NotifyWaiter>>,
    send_waiters: VecDeque<Rc<SendWaiter<T>>>,
}

impl<T> ChanInner<T> {
    fn wake_one_receiver(&mut self) {
        while let Some(w) = self.recv_waiters.pop_front() {
            w.notified.set(true);
            if let Some(wk) = w.waker.borrow_mut().take() {
                wk.wake();
                return;
            }
        }
    }

    fn wake_all(&mut self) {
        for w in self.recv_waiters.drain(..) {
            w.notified.set(true);
            if let Some(wk) = w.waker.borrow_mut().take() {
                wk.wake();
            }
        }
        for w in self.send_waiters.drain(..) {
            if w.state.get() == WaitState::Waiting {
                w.state.set(WaitState::Granted); // will observe closed channel
                if let Some(wk) = w.waker.borrow_mut().take() {
                    wk.wake();
                }
            }
        }
    }

    /// Moves a parked sender's value into the buffer if space allows.
    fn refill_from_senders(&mut self) {
        while self.buf.len() < self.cap {
            let Some(front) = self.send_waiters.front() else {
                break;
            };
            match front.state.get() {
                WaitState::Cancelled => {
                    self.send_waiters.pop_front();
                }
                WaitState::Waiting => {
                    let v = front
                        .value
                        .borrow_mut()
                        .take()
                        .expect("parked sender must hold a value");
                    self.buf.push_back(v);
                    front.state.set(WaitState::Granted);
                    if let Some(wk) = front.waker.borrow_mut().take() {
                        wk.wake();
                    }
                    self.send_waiters.pop_front();
                }
                WaitState::Granted => {
                    self.send_waiters.pop_front();
                }
            }
        }
    }
}

/// Creates a bounded FIFO MPMC channel with capacity `cap` (≥ 1).
///
/// Senders block (cooperatively) when the buffer is full — exactly the
/// back-pressure CRFS's bounded work queue exerts on writers.
pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "channel capacity must be at least 1");
    make_channel(cap)
}

/// Creates an unbounded FIFO MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make_channel(usize::MAX)
}

fn make_channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        buf: VecDeque::new(),
        cap,
        senders: 1,
        receivers: 1,
        recv_waiters: VecDeque::new(),
        send_waiters: VecDeque::new(),
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Sending half of a [`channel`]; cloneable.
pub struct Sender<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `v`, waiting for buffer space if the channel is bounded and
    /// full. Fails (returning `v`) if all receivers are gone.
    pub fn send(&self, v: T) -> Send<'_, T> {
        Send {
            chan: self,
            value: Some(v),
            waiter: None,
        }
    }

    /// Non-blocking send; returns the value if the channel is full/closed.
    pub fn try_send(&self, v: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.borrow_mut();
        if inner.receivers == 0 {
            return Err(SendError(v));
        }
        if inner.buf.len() < inner.cap && inner.send_waiters.is_empty() {
            inner.buf.push_back(v);
            inner.wake_one_receiver();
            Ok(())
        } else {
            Err(SendError(v))
        }
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Sender::send`].
#[must_use = "futures do nothing unless awaited"]
pub struct Send<'a, T> {
    chan: &'a Sender<T>,
    value: Option<T>,
    waiter: Option<Rc<SendWaiter<T>>>,
}

// `Send` holds `T` only by value and never relies on pinned self-references,
// so it is unconditionally Unpin even for `T: !Unpin`.
impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        if let Some(w) = &this.waiter {
            return match w.state.get() {
                WaitState::Granted => {
                    let mut inner = this.chan.inner.borrow_mut();
                    if inner.receivers == 0 {
                        // Closed while parked; value may still be queued.
                        if let Some(v) = w.value.borrow_mut().take() {
                            return Poll::Ready(Err(SendError(v)));
                        }
                    }
                    inner.wake_one_receiver();
                    Poll::Ready(Ok(()))
                }
                WaitState::Waiting => {
                    *w.waker.borrow_mut() = Some(cx.waker().clone());
                    Poll::Pending
                }
                WaitState::Cancelled => unreachable!("cancelled sender polled"),
            };
        }
        let mut inner = this.chan.inner.borrow_mut();
        if inner.receivers == 0 {
            let v = this.value.take().expect("send value present");
            return Poll::Ready(Err(SendError(v)));
        }
        if inner.buf.len() < inner.cap && inner.send_waiters.is_empty() {
            inner
                .buf
                .push_back(this.value.take().expect("send value present"));
            inner.wake_one_receiver();
            return Poll::Ready(Ok(()));
        }
        let w = Rc::new(SendWaiter {
            value: RefCell::new(this.value.take()),
            state: Cell::new(WaitState::Waiting),
            waker: RefCell::new(Some(cx.waker().clone())),
        });
        inner.send_waiters.push_back(Rc::clone(&w));
        drop(inner);
        this.waiter = Some(w);
        Poll::Pending
    }
}

impl<T> Drop for Send<'_, T> {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            if w.state.get() == WaitState::Waiting {
                w.state.set(WaitState::Cancelled);
            }
        }
    }
}

/// Receiving half of a [`channel`]; cloneable.
pub struct Receiver<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().receivers += 1;
        Receiver {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            inner.wake_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next item, or `None` once the channel is empty and all
    /// senders have been dropped.
    pub async fn recv(&self) -> Option<T> {
        loop {
            let waiter = {
                let mut inner = self.inner.borrow_mut();
                if let Some(v) = inner.buf.pop_front() {
                    inner.refill_from_senders();
                    return Some(v);
                }
                inner.refill_from_senders();
                if let Some(v) = inner.buf.pop_front() {
                    inner.refill_from_senders();
                    return Some(v);
                }
                if inner.senders == 0 {
                    return None;
                }
                let w = Rc::new(NotifyWaiter {
                    notified: Cell::new(false),
                    waker: RefCell::new(None),
                });
                inner.recv_waiters.push_back(Rc::clone(&w));
                w
            };
            RecvWait {
                waiter: Some(waiter),
            }
            .await;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let v = inner.buf.pop_front();
        if v.is_some() {
            inner.refill_from_senders();
        }
        v
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct RecvWait {
    waiter: Option<Rc<NotifyWaiter>>,
}

impl Future for RecvWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let w = self.waiter.as_ref().expect("RecvWait polled after ready");
        if w.notified.get() {
            Poll::Ready(())
        } else {
            *w.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{spawn, Sim};
    use crate::time::{now, sleep};
    use std::time::Duration;

    #[test]
    fn semaphore_fifo_fairness() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        sim.run({
            let order = order.clone();
            async move {
                let sem = Semaphore::new(1);
                let first = sem.acquire(1).await;
                let mut handles = Vec::new();
                for i in 0..4 {
                    let sem = sem.clone();
                    let order = order.clone();
                    handles.push(spawn(async move {
                        let _p = sem.acquire(1).await;
                        order.borrow_mut().push(i);
                        sleep(Duration::from_millis(1)).await;
                    }));
                }
                sleep(Duration::from_millis(1)).await;
                drop(first);
                for h in handles {
                    h.await;
                }
            }
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn semaphore_multi_permit_no_barging() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let sem = Semaphore::new(4);
            let big = sem.clone();
            let order = Rc::new(RefCell::new(Vec::new()));
            let o1 = order.clone();
            let hold = sem.acquire(3).await; // 1 left
            let h_big = spawn(async move {
                let _p = big.acquire(2).await; // must wait
                o1.borrow_mut().push("big");
            });
            // Let the spawned task run and queue its request.
            crate::time::yield_now().await;
            // A small request must NOT overtake the queued big one.
            assert!(sem.try_acquire(1).is_none());
            drop(hold);
            h_big.await;
            assert_eq!(*order.borrow(), vec!["big"]);
            // The big task's permit dropped when it finished.
            assert_eq!(sem.available(), 4);
        });
    }

    #[test]
    fn semaphore_cancelled_waiter_is_skipped() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let sem = Semaphore::new(1);
            let p = sem.acquire(1).await;
            let sem2 = sem.clone();
            let h = spawn(async move {
                let fut = sem2.acquire(1);
                // Poll once then drop: simulates cancellation while queued.
                let res = crate::time::timeout(Duration::from_millis(1), fut).await;
                assert!(res.is_err());
            });
            sleep(Duration::from_millis(2)).await;
            h.await;
            drop(p);
            // The cancelled waiter must not consume the permit.
            assert_eq!(sem.available(), 1);
            let _p2 = sem.acquire(1).await;
        });
    }

    #[test]
    fn notify_wakes_waiters() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let n = Notify::new();
            let n2 = n.clone();
            let h = spawn(async move {
                n2.notified().await;
                now()
            });
            sleep(Duration::from_millis(7)).await;
            n.notify_all();
            let t = h.await;
            assert_eq!(t.as_nanos(), 7_000_000);
        });
    }

    #[test]
    fn waitgroup_barriers_on_zero() {
        let mut sim = Sim::new(0);
        let t = sim.run(async {
            let wg = WaitGroup::new();
            for i in 1..=3u64 {
                wg.add(1);
                let wg = wg.clone();
                let _task = spawn(async move {
                    sleep(Duration::from_millis(10 * i)).await;
                    wg.done();
                });
            }
            wg.wait().await;
            now()
        });
        assert_eq!(t.as_nanos(), 30_000_000);
    }

    #[test]
    fn channel_fifo_and_close() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (tx, rx) = unbounded::<u32>();
            let h = spawn(async move {
                let mut got = Vec::new();
                while let Some(v) = rx.recv().await {
                    got.push(v);
                }
                got
            });
            for i in 0..5 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            assert_eq!(h.await, vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (tx, rx) = channel::<u64>(2);
            let h = spawn(async move {
                // Slow consumer: 5ms per item.
                let mut sum = 0;
                while let Some(v) = rx.recv().await {
                    sleep(Duration::from_millis(5)).await;
                    sum += v;
                }
                sum
            });
            let start = now();
            for i in 0..6 {
                tx.send(i).await.unwrap();
            }
            // With capacity 2 and a 5ms consumer, the 6th send must have
            // waited for several service times.
            assert!(now().since(start) >= Duration::from_millis(15));
            drop(tx);
            assert_eq!(h.await, 15);
        });
    }

    #[test]
    fn send_to_closed_channel_returns_value() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (tx, rx) = channel::<u8>(1);
            drop(rx);
            assert_eq!(tx.send(9).await, Err(SendError(9)));
            assert_eq!(tx.try_send(7), Err(SendError(7)));
        });
    }

    #[test]
    fn multiple_receivers_share_work() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (tx, rx) = unbounded::<u32>();
            let totals = Rc::new(RefCell::new(vec![0u32; 2]));
            let mut handles = Vec::new();
            for w in 0..2usize {
                let rx = rx.clone();
                let totals = totals.clone();
                handles.push(spawn(async move {
                    while let Some(v) = rx.recv().await {
                        sleep(Duration::from_millis(1)).await;
                        totals.borrow_mut()[w] += v;
                    }
                }));
            }
            drop(rx);
            for i in 1..=10 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            for h in handles {
                h.await;
            }
            let t = totals.borrow();
            assert_eq!(t[0] + t[1], 55);
            assert!(t[0] > 0 && t[1] > 0, "both workers should get items");
        });
    }
}
