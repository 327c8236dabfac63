//! Deterministic failure injection for tests.
//!
//! Wraps a [`Backend`] and fails operations according to a
//! [`FailureMode`]. Used by the failure-injection test suite to verify
//! that asynchronous chunk-write errors surface at close/fsync and that
//! CRFS never loses track of pool buffers when the backend misbehaves.
//! The mode is shared across every file handle and switchable at
//! runtime with [`FaultyBackend::set_mode`], so a test can write clean
//! data and then corrupt only the read-back phase.
//!
//! ## Mode-switch semantics
//!
//! Every operation captures the mode **once, on entry** — a
//! [`set_mode`](FaultyBackend::set_mode) call therefore applies only to
//! operations issued after it returns. An asynchronous write already in
//! flight (e.g. an `RpcStore` deadline-heap acknowledgement registered
//! before the swap) completes under the mode it was issued with; the
//! swap can never retroactively fail or un-fail it.
//!
//! ## Crash modes
//!
//! [`TornWriteAt`](FailureMode::TornWriteAt) and
//! [`PowerCutAfterBytes`](FailureMode::PowerCutAfterBytes) model a
//! power cut mid-write: the victim write lands only a prefix of its
//! payload in the wrapped backend, the caller gets an error (or a
//! failed completion on the async path — the ack never arrived), and
//! the backend is **dead** from then on: every subsequent operation on
//! any handle fails until [`revive`](FaultyBackend::revive), which
//! models the post-reboot remount over the surviving bytes.

use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use super::{Backend, BackendFile, OpenOptions};

/// When the wrapped backend should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Never fail (control).
    None,
    /// Fail every `write_at` after the first `n` have succeeded.
    FailWritesAfter(u64),
    /// Fail every `sync`.
    FailSync,
    /// Fail every `open`.
    FailOpen,
    /// Silently flip one bit in the payload of every `n`-th `read_at`
    /// (`1` corrupts every read). The read *succeeds* — this models bit
    /// rot / a misbehaving store, the failure class only end-to-end
    /// integrity checking can catch.
    CorruptReads(u64),
    /// Accept every asynchronous `begin_write_at` and deliver its
    /// completion *inline*, failing each completion after the first `n`
    /// writes have succeeded. Submission never errors — the failure
    /// arrives through the [`CompletionSink`](super::CompletionSink), modeling a device that
    /// acks the submit and reports the error only at completion time.
    /// Exercises the completion half of async-capable engines
    /// (inline-completion handshake, error plumbing from sink to
    /// ledger). Synchronous `write_at` is unaffected.
    FailCompletionsAfter(u64),
    /// Fail every read after the first `n` (counted across `read_at`
    /// and `begin_read_at`): `read_at` returns the error, and
    /// `begin_read_at` accepts the read and delivers its result as an
    /// *inline* completion — a store that acks the submit and reports
    /// the failure only at completion time.
    FailReadsAfter(u64),
    /// Tear the `op`-th write (0-based, counted across `write_at` and
    /// `begin_write_at` alike): only the first `byte` bytes of its
    /// payload reach the wrapped backend, the op itself fails (sync
    /// path) or completes with an error through the sink (async path),
    /// and the backend is dead afterwards — every later op on any
    /// handle fails until [`FaultyBackend::revive`]. `byte` may land
    /// anywhere, including mid-frame-header or mid-checksum.
    TornWriteAt {
        /// Index of the write to tear.
        op: u64,
        /// Payload bytes that survive (clamped to the write's length).
        byte: u64,
    },
    /// Power cut after a cumulative write-byte budget: writes succeed
    /// until `n` total payload bytes (counted while this mode is
    /// active) have landed; the write that crosses the budget keeps
    /// only the in-budget prefix and fails, and the backend is dead
    /// afterwards (as with [`FailureMode::TornWriteAt`]).
    PowerCutAfterBytes(u64),
    /// Power cut mid-unlink sweep: the first `n` `unlink` calls
    /// (counted while this mode is active) pass through, the `n`-th
    /// fails without removing the file, and the backend is dead
    /// afterwards (as with [`FailureMode::TornWriteAt`]). Models a
    /// crash partway through a garbage-collection reclaim pass.
    FailUnlinksAfter(u64),
}

/// Injection state shared by the backend and every file handle.
struct Shared {
    mode: Mutex<FailureMode>,
    writes_seen: AtomicU64,
    reads_seen: AtomicU64,
    reads_corrupted: AtomicU64,
    /// Cumulative payload bytes counted against `PowerCutAfterBytes`.
    crash_bytes: AtomicU64,
    /// Unlinks counted against `FailUnlinksAfter`.
    unlinks_seen: AtomicU64,
    /// Set by a torn write / power cut: the backend died.
    dead: AtomicBool,
}

/// A failure-injecting [`Backend`] decorator.
pub struct FaultyBackend<B> {
    inner: B,
    shared: Arc<Shared>,
}

impl<B: Backend> FaultyBackend<B> {
    /// Wraps `inner` with the given failure mode.
    pub fn new(inner: B, mode: FailureMode) -> FaultyBackend<B> {
        FaultyBackend {
            inner,
            shared: Arc::new(Shared {
                mode: Mutex::new(mode),
                writes_seen: AtomicU64::new(0),
                reads_seen: AtomicU64::new(0),
                reads_corrupted: AtomicU64::new(0),
                crash_bytes: AtomicU64::new(0),
                unlinks_seen: AtomicU64::new(0),
                dead: AtomicBool::new(false),
            }),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Switches the failure mode; affects all existing handles.
    ///
    /// The switch is **issue-time only**: every op reads the mode once
    /// when it starts, so ops already past that point — including async
    /// writes whose acknowledgement is still pending in a completion
    /// timer — finish under the old mode. Only ops issued after
    /// `set_mode` returns observe the new one.
    pub fn set_mode(&self, mode: FailureMode) {
        *self.shared.mode.lock() = mode;
    }

    /// True once a [`FailureMode::TornWriteAt`] /
    /// [`FailureMode::PowerCutAfterBytes`] crash has fired: the backend
    /// is failing every op.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Relaxed)
    }

    /// "Reboots" a crashed backend: clears the dead flag and the crash
    /// byte budget and resets the mode to [`FailureMode::None`], so a
    /// recovery path can reopen and inspect exactly the bytes that
    /// survived the cut.
    pub fn revive(&self) {
        *self.shared.mode.lock() = FailureMode::None;
        self.shared.crash_bytes.store(0, Relaxed);
        self.shared.unlinks_seen.store(0, Relaxed);
        self.shared.dead.store(false, Relaxed);
    }

    /// Total `write_at` attempts observed (including failed ones).
    pub fn writes_seen(&self) -> u64 {
        self.shared.writes_seen.load(Relaxed)
    }

    /// Total reads observed (`read_at` calls and accepted
    /// `begin_read_at` calls).
    pub fn reads_seen(&self) -> u64 {
        self.shared.reads_seen.load(Relaxed)
    }

    /// Reads whose payload was bit-flipped by `CorruptReads`.
    pub fn reads_corrupted(&self) -> u64 {
        self.shared.reads_corrupted.load(Relaxed)
    }

    fn injected() -> io::Error {
        io::Error::other("injected backend failure")
    }
}

/// The error every op returns once a crash mode has fired.
fn dead_error() -> io::Error {
    io::Error::other("injected power cut: backend is dead")
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn name(&self) -> &str {
        "faulty"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        if *self.shared.mode.lock() == FailureMode::FailOpen {
            return Err(Self::injected());
        }
        let file = self.inner.open(path, opts)?;
        Ok(Box::new(FaultyFile {
            inner: file,
            shared: Arc::clone(&self.shared),
        }))
    }

    crate::forward_backend_ops!(inner: mkdir, rmdir, rename, exists, file_len,
        list_dir, drain_barrier, attach_stats);

    fn unlink(&self, path: &str) -> io::Result<()> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        if let FailureMode::FailUnlinksAfter(n) = *self.shared.mode.lock() {
            let seen = self.shared.unlinks_seen.fetch_add(1, Relaxed);
            if seen >= n {
                // The n-th unlink is the power cut: the file survives
                // and every later op fails until `revive`.
                self.shared.dead.store(true, Relaxed);
                return Err(dead_error());
            }
        }
        self.inner.unlink(path)
    }
}

struct FaultyFile {
    inner: Box<dyn BackendFile>,
    shared: Arc<Shared>,
}

/// What a write op should do, decided once at issue time.
enum WritePlan {
    /// Write the full payload to the wrapped backend.
    Full,
    /// The mode failed the op outright (no bytes written).
    Fail(io::Error),
    /// Crash: land only the first `keep` payload bytes, then fail the
    /// op and mark the backend dead.
    Torn { keep: usize },
}

impl FaultyFile {
    /// Captures the mode and decides this write's fate. All crash
    /// bookkeeping (op counting, byte budget, the dead flag) happens
    /// here, shared by the sync and async entry points.
    fn plan_write(&self, len: usize) -> WritePlan {
        if self.shared.dead.load(Relaxed) {
            return WritePlan::Fail(dead_error());
        }
        let seen = self.shared.writes_seen.fetch_add(1, Relaxed);
        // Issue-time capture: the mode a set_mode racing this op
        // installs must not affect it past this point.
        let mode = *self.shared.mode.lock();
        match mode {
            FailureMode::FailWritesAfter(n) if seen >= n => {
                WritePlan::Fail(FaultyBackend::<super::MemBackend>::injected())
            }
            FailureMode::TornWriteAt { op, byte } if seen >= op => {
                self.shared.dead.store(true, Relaxed);
                if seen == op {
                    WritePlan::Torn {
                        keep: (byte as usize).min(len),
                    }
                } else {
                    // A concurrent write raced past the victim before
                    // the dead flag landed: it dies too, bytes unwritten.
                    WritePlan::Fail(dead_error())
                }
            }
            FailureMode::PowerCutAfterBytes(budget) => {
                let start = self.shared.crash_bytes.fetch_add(len as u64, Relaxed);
                if start + len as u64 <= budget {
                    WritePlan::Full
                } else {
                    self.shared.dead.store(true, Relaxed);
                    WritePlan::Torn {
                        keep: budget.saturating_sub(start).min(len as u64) as usize,
                    }
                }
            }
            _ => WritePlan::Full,
        }
    }

    /// Counts a read and fails it when `mode` is `FailReadsAfter` and
    /// its budget is spent; otherwise returns the read's 1-based number.
    fn count_read(&self, mode: FailureMode) -> io::Result<u64> {
        let seen = self.shared.reads_seen.fetch_add(1, Relaxed) + 1;
        match mode {
            FailureMode::FailReadsAfter(n) if seen > n => {
                Err(FaultyBackend::<super::MemBackend>::injected())
            }
            _ => Ok(seen),
        }
    }

    /// `CorruptReads`: flips one bit in the middle of every `rate`-th
    /// read's bytes. The read still succeeds.
    fn corrupt(&self, mode: FailureMode, seen: u64, bytes: &mut [u8]) {
        if let FailureMode::CorruptReads(rate) = mode {
            if rate > 0 && seen.is_multiple_of(rate) && !bytes.is_empty() {
                bytes[bytes.len() / 2] ^= 0x01;
                self.shared.reads_corrupted.fetch_add(1, Relaxed);
            }
        }
    }

    /// Executes a write plan against the wrapped backend.
    fn run_plan(&self, plan: WritePlan, offset: u64, data: &[u8]) -> io::Result<()> {
        match plan {
            WritePlan::Full => self.inner.write_at(offset, data),
            WritePlan::Fail(e) => Err(e),
            WritePlan::Torn { keep } => {
                // The surviving prefix lands; the op itself fails — the
                // power died before the ack.
                if keep > 0 {
                    self.inner.write_at(offset, &data[..keep])?;
                }
                Err(dead_error())
            }
        }
    }
}

impl BackendFile for FaultyFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let plan = self.plan_write(data.len());
        self.run_plan(plan, offset, data)
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn super::CompletionSink>,
    ) -> io::Result<bool> {
        if self.shared.dead.load(Relaxed) {
            // A dead backend refuses the submission itself.
            return Err(dead_error());
        }
        // Issue-time capture, as everywhere.
        let mode = *self.shared.mode.lock();
        match mode {
            FailureMode::FailCompletionsAfter(n) => {
                let seen = self.shared.writes_seen.fetch_add(1, Relaxed);
                let res = if seen >= n {
                    Err(FaultyBackend::<super::MemBackend>::injected())
                } else {
                    self.inner.write_at(offset, data)
                };
                // Inline completion: legal per the contract, and
                // deterministic — the engine's completed-early
                // handshake runs on every write.
                sink.complete(token, res);
                Ok(true)
            }
            FailureMode::TornWriteAt { .. } | FailureMode::PowerCutAfterBytes(_) => {
                // Crash modes take the async path too: the submission
                // is accepted, the prefix lands, and the missing ack
                // arrives as a failed completion through the sink —
                // the CompletionSink half of the kill-at-any-byte
                // semantics.
                let plan = self.plan_write(data.len());
                sink.complete(token, self.run_plan(plan, offset, data));
                Ok(true)
            }
            FailureMode::FailWritesAfter(_) => {
                // This mode's injection point is the synchronous
                // `write_at`; keep the shim so the countdown fires on
                // the engine's fallback path.
                Ok(false)
            }
            _ => {
                // Pass-through modes (None, CorruptReads, FailSync,
                // FailOpen, FailUnlinksAfter) don't touch the write
                // path, so the inner backend's asynchronous-completion
                // capability is forwarded instead of silently degrading
                // the wrapped stack to the sync shim. The write is
                // counted only when accepted — a `false` falls back to
                // `write_at`, which counts it in `plan_write`.
                let accepted = self.inner.begin_write_at(token, offset, data, sink)?;
                if accepted {
                    self.shared.writes_seen.fetch_add(1, Relaxed);
                }
                Ok(accepted)
            }
        }
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        let mode = *self.shared.mode.lock();
        let seen = self.count_read(mode)?;
        let n = self.inner.read_at(offset, buf)?;
        self.corrupt(mode, seen, &mut buf[..n]);
        Ok(n)
    }

    fn begin_read_at(
        &self,
        token: u64,
        offset: u64,
        buf: &mut [u8],
        sink: &Arc<dyn super::CompletionSink>,
    ) -> io::Result<bool> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        let mode = *self.shared.mode.lock();
        if let FailureMode::FailReadsAfter(_) = mode {
            let res = self
                .count_read(mode)
                .and_then(|_| super::read_exact_at(&*self.inner, offset, buf));
            sink.complete(token, res);
            return Ok(true);
        }
        // Other modes forward the inner backend's asynchronous path. Its
        // bytes have landed when it returns, and the completion cannot
        // be acted on before this call returns (the caller still holds
        // `buf`), so corruption applies here as on the sync path.
        if !self.inner.begin_read_at(token, offset, buf, sink)? {
            return Ok(false);
        }
        let seen = self.shared.reads_seen.fetch_add(1, Relaxed) + 1;
        self.corrupt(mode, seen, buf);
        Ok(true)
    }

    fn sync(&self) -> io::Result<()> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        if *self.shared.mode.lock() == FailureMode::FailSync {
            return Err(FaultyBackend::<super::MemBackend>::injected());
        }
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        if self.shared.dead.load(Relaxed) {
            return Err(dead_error());
        }
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn fail_after_n_writes() {
        let be = FaultyBackend::new(MemBackend::new(), FailureMode::FailWritesAfter(2));
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"a").unwrap();
        f.write_at(1, b"b").unwrap();
        assert!(f.write_at(2, b"c").is_err());
        assert_eq!(be.writes_seen(), 3);
    }

    #[test]
    fn fail_sync_and_open() {
        let be = FaultyBackend::new(MemBackend::new(), FailureMode::FailSync);
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        assert!(f.sync().is_err());

        let be = FaultyBackend::new(MemBackend::new(), FailureMode::FailOpen);
        assert!(be.open("/f", OpenOptions::create_truncate()).is_err());
    }

    #[test]
    fn completion_failures_arrive_through_the_sink() {
        use crate::backend::CompletionSink;
        use std::sync::Mutex as StdMutex;

        struct Recorder(StdMutex<Vec<(u64, io::Result<()>)>>);
        impl CompletionSink for Recorder {
            fn complete(&self, token: u64, result: io::Result<()>) {
                self.0.lock().unwrap().push((token, result));
            }
        }

        let sink = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let dyn_sink: Arc<dyn CompletionSink> = Arc::clone(&sink) as Arc<dyn CompletionSink>;
        let be = FaultyBackend::new(MemBackend::new(), FailureMode::FailCompletionsAfter(1));
        let f = be.open("/g", OpenOptions::create_truncate()).unwrap();
        // Both writes are accepted at submission; the first completes
        // Ok inline, the second fails at completion time.
        assert!(f.begin_write_at(1, 0, b"ok", &dyn_sink).unwrap());
        assert!(f.begin_write_at(2, 2, b"xx", &dyn_sink).unwrap());
        {
            let got = sink.0.lock().unwrap();
            assert_eq!(got.len(), 2);
            assert_eq!(got[0].0, 1);
            assert!(got[0].1.is_ok());
            assert_eq!(got[1].0, 2);
            assert!(got[1].1.is_err());
        }
        // The failed completion wrote nothing.
        assert_eq!(be.inner().contents("/g").unwrap(), b"ok");
        // Synchronous writes are unaffected by this mode.
        f.write_at(2, b"yy").unwrap();
        assert_eq!(be.inner().contents("/g").unwrap(), b"okyy");
    }

    #[test]
    fn corrupt_reads_flips_bits_at_the_configured_rate() {
        let be = FaultyBackend::new(MemBackend::new(), FailureMode::None);
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &[0u8; 64]).unwrap();

        // Mode switch affects the existing handle.
        be.set_mode(FailureMode::CorruptReads(2));
        let mut buf = [0u8; 64];
        // 1st read: not corrupted (every 2nd), 2nd read: corrupted.
        f.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "read 1 clean");
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1, "one flipped");
        assert_eq!(be.reads_corrupted(), 1);
        assert_eq!(be.reads_seen(), 2);

        be.set_mode(FailureMode::None);
        f.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "clean again after reset");
    }

    #[test]
    fn torn_write_keeps_prefix_and_kills_the_backend() {
        let be = FaultyBackend::new(
            MemBackend::new(),
            FailureMode::TornWriteAt { op: 1, byte: 3 },
        );
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"alpha").unwrap(); // op 0: clean
        let err = f.write_at(5, b"bravo").unwrap_err(); // op 1: torn at byte 3
        assert!(err.to_string().contains("dead"), "{err}");
        assert!(be.is_dead());
        // Every subsequent op fails: the backend died mid-write.
        assert!(f.write_at(10, b"x").is_err());
        assert!(f.read_at(0, &mut [0u8; 4]).is_err());
        assert!(f.sync().is_err());
        assert!(f.len().is_err());
        assert!(be.open("/t", OpenOptions::read_only()).is_err());
        // Reboot: exactly the acked write plus the torn prefix survive.
        be.revive();
        assert_eq!(be.inner().contents("/t").unwrap(), b"alphabra");
        let g = be.open("/t", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(g.read_at(0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"alphabra");
    }

    #[test]
    fn torn_write_at_byte_zero_lands_nothing() {
        let be = FaultyBackend::new(
            MemBackend::new(),
            FailureMode::TornWriteAt { op: 0, byte: 0 },
        );
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        assert!(f.write_at(0, b"gone").is_err());
        be.revive();
        assert_eq!(be.inner().contents("/t").unwrap(), b"");
    }

    #[test]
    fn power_cut_tears_the_write_that_crosses_the_budget() {
        let be = FaultyBackend::new(MemBackend::new(), FailureMode::PowerCutAfterBytes(7));
        let f = be.open("/p", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"abcd").unwrap(); // 4 bytes: within budget
        let err = f.write_at(4, b"efgh").unwrap_err(); // crosses at byte 7
        assert!(err.to_string().contains("dead"), "{err}");
        assert!(be.is_dead());
        assert!(f.write_at(8, b"x").is_err());
        be.revive();
        assert_eq!(be.inner().contents("/p").unwrap(), b"abcdefg");
    }

    #[test]
    fn crash_modes_take_the_async_completion_path() {
        use crate::backend::CompletionSink;
        use std::sync::Mutex as StdMutex;

        struct Recorder(StdMutex<Vec<(u64, io::Result<()>)>>);
        impl CompletionSink for Recorder {
            fn complete(&self, token: u64, result: io::Result<()>) {
                self.0.lock().unwrap().push((token, result));
            }
        }

        let sink = Arc::new(Recorder(StdMutex::new(Vec::new())));
        let dyn_sink: Arc<dyn CompletionSink> = Arc::clone(&sink) as Arc<dyn CompletionSink>;
        let be = FaultyBackend::new(
            MemBackend::new(),
            FailureMode::TornWriteAt { op: 1, byte: 2 },
        );
        let f = be.open("/a", OpenOptions::create_truncate()).unwrap();
        // Both submissions are accepted; the second completes with an
        // error through the sink after landing its 2-byte prefix.
        assert!(f.begin_write_at(1, 0, b"okok", &dyn_sink).unwrap());
        assert!(f.begin_write_at(2, 4, b"dead", &dyn_sink).unwrap());
        {
            let got = sink.0.lock().unwrap();
            assert_eq!(got.len(), 2);
            assert!(got[0].1.is_ok());
            assert!(got[1].1.is_err());
        }
        // Dead: later submissions are refused outright.
        assert!(f.begin_write_at(3, 8, b"x", &dyn_sink).is_err());
        be.revive();
        assert_eq!(be.inner().contents("/a").unwrap(), b"okokde");
    }

    #[test]
    fn mode_is_captured_at_issue_time_even_across_a_mid_op_swap() {
        use std::sync::Mutex as StdMutex;

        // An inner backend that runs a hook in the middle of write_at —
        // the deterministic stand-in for a set_mode racing an op that
        // has already been issued (e.g. an RpcStore deadline-heap ack).
        type Hook = Arc<StdMutex<Option<Box<dyn Fn() + Send>>>>;
        struct HookBackend {
            inner: MemBackend,
            hook: Hook,
        }
        struct HookFile {
            inner: Box<dyn BackendFile>,
            hook: Hook,
        }
        impl Backend for HookBackend {
            fn name(&self) -> &str {
                "hook"
            }
            fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
                Ok(Box::new(HookFile {
                    inner: self.inner.open(path, opts)?,
                    hook: Arc::clone(&self.hook),
                }))
            }
            crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
                file_len, list_dir);
        }
        impl BackendFile for HookFile {
            fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
                if let Some(h) = self.hook.lock().unwrap().as_ref() {
                    h();
                }
                self.inner.write_at(offset, data)
            }
            crate::forward_file_ops!(inner: read_at, sync, len, set_len);
        }

        let hook: Hook = Arc::new(StdMutex::new(None));
        let be = Arc::new(FaultyBackend::new(
            HookBackend {
                inner: MemBackend::new(),
                hook: Arc::clone(&hook),
            },
            FailureMode::None,
        ));
        // Mid-op, flip the mode to fail-everything.
        let swap_target = Arc::clone(&be);
        *hook.lock().unwrap() = Some(Box::new(move || {
            swap_target.set_mode(FailureMode::FailWritesAfter(0));
        }));

        let f = be.open("/m", OpenOptions::create_truncate()).unwrap();
        // The op that was issued under None succeeds even though the
        // mode swapped underneath it...
        f.write_at(0, b"issued-before-swap").unwrap();
        // ...and only the *next* op sees the new mode.
        *hook.lock().unwrap() = None;
        assert!(f.write_at(0, b"after").is_err());
        assert_eq!(
            be.inner().inner.contents("/m").unwrap(),
            b"issued-before-swap"
        );
    }
}
