//! The shared chunk-accounting ledger.
//!
//! The paper (§IV-B/C) tracks two counters per open file — the "write
//! chunk count" (chunks sealed and enqueued) and the "complete chunk
//! count" (chunks the IO engine finished) — and blocks `close()`/`fsync()`
//! until they match, remembering the first asynchronous write error.
//!
//! [`ChunkAccounting`] is that state machine as a pure, synchronization-
//! free value, which the discrete-event simulator (`cluster-sim`) wraps
//! in a `RefCell` + `WaitGroup`. The threaded filesystem keeps the same
//! two counters as atomics on [`FileEntry`](crate::file::FileEntry), with
//! this module's [`StoredError`] as the sticky error.

use std::io;

/// `io::Error` is not `Clone`; persist kind + message so the error can be
/// re-surfaced at every later synchronization point.
#[derive(Debug, Clone)]
pub struct StoredError {
    kind: io::ErrorKind,
    msg: String,
}

impl StoredError {
    /// Captures an `io::Error` for later re-surfacing.
    pub fn capture(e: &io::Error) -> StoredError {
        StoredError {
            kind: e.kind(),
            msg: e.to_string(),
        }
    }

    /// Materializes the stored error as a fresh `io::Error`.
    pub fn to_io(&self) -> io::Error {
        io::Error::new(self.kind, self.msg.clone())
    }
}

/// Pure sealed/completed/sticky-error ledger for one file.
#[derive(Debug, Default)]
pub struct ChunkAccounting {
    sealed: u64,
    completed: u64,
    error: Option<StoredError>,
}

impl ChunkAccounting {
    /// A fresh ledger with no chunks outstanding.
    pub fn new() -> ChunkAccounting {
        ChunkAccounting::default()
    }

    /// Registers a chunk as enqueued (bumps the write chunk count).
    pub fn note_sealed(&mut self) {
        self.sealed += 1;
    }

    /// Registers a chunk as finished by the IO engine, recording the
    /// first error if the backend write failed.
    pub fn note_completed(&mut self, result: io::Result<()>) {
        self.completed += 1;
        debug_assert!(self.completed <= self.sealed, "completed more than sealed");
        if let Err(e) = result {
            if self.error.is_none() {
                self.error = Some(StoredError::capture(&e));
            }
        }
    }

    /// Chunks enqueued so far (the paper's "write chunk count").
    pub fn sealed(&self) -> u64 {
        self.sealed
    }

    /// Chunks finished so far (the paper's "complete chunk count").
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Chunks currently in flight (sealed but not completed).
    pub fn outstanding(&self) -> u64 {
        self.sealed - self.completed
    }

    /// Whether the close/fsync barrier may pass.
    pub fn is_quiescent(&self) -> bool {
        self.completed == self.sealed
    }

    /// The sticky first asynchronous error, if any occurred.
    pub fn error(&self) -> Option<io::Error> {
        self.error.as_ref().map(StoredError::to_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_counts() {
        let mut a = ChunkAccounting::new();
        assert!(a.is_quiescent());
        a.note_sealed();
        a.note_sealed();
        assert_eq!(a.outstanding(), 2);
        assert!(!a.is_quiescent());
        a.note_completed(Ok(()));
        a.note_completed(Ok(()));
        assert!(a.is_quiescent());
        assert_eq!(a.sealed(), 2);
        assert_eq!(a.completed(), 2);
        assert!(a.error().is_none());
    }

    #[test]
    fn first_error_is_sticky() {
        let mut a = ChunkAccounting::new();
        a.note_sealed();
        a.note_sealed();
        a.note_completed(Err(io::Error::other("first")));
        a.note_completed(Err(io::Error::other("second")));
        assert!(a.error().unwrap().to_string().contains("first"));
        // Still there on the next query.
        assert!(a.error().unwrap().to_string().contains("first"));
    }
}
