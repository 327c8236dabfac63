//! The mount-scoped content-addressed dedup index.
//!
//! Checkpoint streams are self-similar across epochs (stdchk's central
//! observation): most chunks of epoch *k+1* are byte-identical to
//! chunks of epoch *k*. The index maps a chunk's 128-bit content hash
//! (plus its exact length) to the location where those bytes were
//! stored — path and stored offset of the DATA frame. A later chunk
//! with the same content emits a tiny *reference record* instead of its
//! payload.
//!
//! **Epoch-aware eviction**: the mount carries an epoch counter
//! ([`crate::Crfs::advance_epoch`] bumps it between checkpoint rounds).
//! Every index entry remembers the epoch it was last *useful* in
//! (inserted or hit); entries idle for more than `keep_epochs` epochs
//! are evicted, so the index tracks the live working set across rounds
//! instead of growing with checkpoint history.
//!
//! **Safety**: a hash match alone never substitutes bytes — the
//! reference record carries the original chunk's integrity checksum,
//! and the read path verifies the resolved bytes against it, so even a
//! 128-bit collision surfaces as [`CrfsError::IntegrityError`]
//! (detected), not silent corruption. Entries pointing into a file that
//! is unlinked, truncated, or re-created are invalidated so *new*
//! references are never planted on dead data.
//!
//! **Deletion discipline**: references always point at the *first*
//! stored occurrence of a chunk's bytes, so deduplicated files form a
//! dependency chain newest → oldest. Already-persisted reference
//! records embed the origin path; deleting or re-creating an origin
//! file makes every chunk referencing it unreadable (detected as
//! `IntegrityError`, never wrong bytes — but the payload exists
//! nowhere else). Retire checkpoints newest-first or as whole epoch
//! trees, the standard checkpoint GC pattern; to prune arbitrary
//! individual files, run with dedup off.
//!
//! [`CrfsError::IntegrityError`]: crate::CrfsError::IntegrityError

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Where a previously stored chunk's DATA frame lives — everything a
/// reference record needs to resolve the bytes without re-reading the
/// origin's frame header.
#[derive(Debug, Clone)]
pub struct DedupHit {
    /// Path of the file holding the original frame.
    pub path: Arc<str>,
    /// Stored offset of the original frame header within that file.
    pub stored_off: u64,
    /// Stored payload length of the original frame.
    pub stored_len: u32,
    /// Stored codec id of the original frame's payload.
    pub codec: u8,
}

struct DedupEntry {
    path: Arc<str>,
    stored_off: u64,
    stored_len: u32,
    codec: u8,
    /// Epoch this entry was last inserted or hit in.
    last_epoch: u64,
}

/// Idle checkpoint epochs a mount's dedup-index entry survives before
/// eviction (see [`crate::Crfs::advance_epoch`]): the previous round's
/// chunks must still be there when the next round writes them again.
pub const DEDUP_KEEP_EPOCHS: u64 = 2;

/// Content hash → stored location, with epoch-aware eviction.
pub struct DedupIndex {
    /// Keyed by (content hash, exact length): a length mismatch can
    /// never dedup, whatever the hash says.
    map: Mutex<HashMap<(u128, u32), DedupEntry>>,
    epoch: AtomicU64,
    keep_epochs: u64,
    hits: AtomicU64,
    inserts: AtomicU64,
}

impl DedupIndex {
    /// Creates an empty index that keeps entries for `keep_epochs`
    /// idle epochs before evicting them.
    pub fn new(keep_epochs: u64) -> DedupIndex {
        DedupIndex {
            map: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            keep_epochs: keep_epochs.max(1),
            hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Index entries currently held.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit / insert counts.
    pub fn counts(&self) -> (u64, u64) {
        (self.hits.load(Relaxed), self.inserts.load(Relaxed))
    }

    /// Looks up content; a hit refreshes the entry's epoch (it is part
    /// of the live working set).
    pub fn lookup(&self, hash: u128, len: u32) -> Option<DedupHit> {
        let now = self.epoch.load(Relaxed);
        let mut map = self.map.lock();
        let e = map.get_mut(&(hash, len))?;
        e.last_epoch = now;
        self.hits.fetch_add(1, Relaxed);
        Some(DedupHit {
            path: Arc::clone(&e.path),
            stored_off: e.stored_off,
            stored_len: e.stored_len,
            codec: e.codec,
        })
    }

    /// Registers freshly stored content. First writer wins: a racing
    /// duplicate store (two workers compressing identical chunks
    /// concurrently) keeps the existing entry so references stay
    /// consistent.
    pub fn insert(
        &self,
        hash: u128,
        len: u32,
        path: Arc<str>,
        stored_off: u64,
        stored_len: u32,
        codec: u8,
    ) {
        let now = self.epoch.load(Relaxed);
        let mut map = self.map.lock();
        map.entry((hash, len)).or_insert_with(|| {
            self.inserts.fetch_add(1, Relaxed);
            DedupEntry {
                path,
                stored_off,
                stored_len,
                codec,
                last_epoch: now,
            }
        });
    }

    /// Advances the mount epoch and evicts entries idle for more than
    /// `keep_epochs` epochs. Returns the number evicted.
    pub fn advance_epoch(&self) -> usize {
        let now = self.epoch.fetch_add(1, Relaxed) + 1;
        let keep = self.keep_epochs;
        let mut map = self.map.lock();
        let before = map.len();
        map.retain(|_, e| now - e.last_epoch <= keep);
        before - map.len()
    }

    /// Drops the entry for one content key — the snapshot GC calls this
    /// for every chunk it reclaims, so no later lookup resolves to
    /// freed bytes.
    pub fn remove(&self, hash: u128, len: u32) {
        self.map.lock().remove(&(hash, len));
    }

    /// Drops every entry pointing into `path` — called when the file is
    /// unlinked, truncated, renamed away, or re-created, so no *new*
    /// reference can be planted on bytes that no longer exist.
    pub fn invalidate_path(&self, path: &str) {
        let prefix = format!("{path}/");
        self.map
            .lock()
            .retain(|_, e| &*e.path != path && !e.path.starts_with(&prefix));
    }
}

impl std::fmt::Debug for DedupIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupIndex")
            .field("entries", &self.len())
            .field("epoch", &self.epoch())
            .field("keep_epochs", &self.keep_epochs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_and_misses() {
        let idx = DedupIndex::new(2);
        assert!(idx.lookup(1, 100).is_none());
        idx.insert(1, 100, "/a".into(), 40, 64, 0);
        let hit = idx.lookup(1, 100).expect("hit");
        assert_eq!(&*hit.path, "/a");
        assert_eq!(hit.stored_off, 40);
        // Same hash, different length: never a hit.
        assert!(idx.lookup(1, 101).is_none());
        assert_eq!(idx.counts(), (1, 1));
    }

    #[test]
    fn first_insert_wins() {
        let idx = DedupIndex::new(2);
        idx.insert(7, 10, "/first".into(), 0, 64, 0);
        idx.insert(7, 10, "/second".into(), 999, 64, 0);
        assert_eq!(&*idx.lookup(7, 10).unwrap().path, "/first");
    }

    #[test]
    fn epoch_eviction_keeps_live_working_set() {
        let idx = DedupIndex::new(1);
        idx.insert(1, 8, "/old".into(), 0, 64, 0);
        idx.insert(2, 8, "/live".into(), 40, 64, 0);
        // Epoch 1: only /live's content recurs (a lookup refreshes it).
        let evicted = idx.advance_epoch();
        assert_eq!(evicted, 0, "one idle epoch is within keep_epochs");
        assert!(idx.lookup(2, 8).is_some());
        // Epoch 2: /old has now been idle for 2 > keep_epochs=1.
        let evicted = idx.advance_epoch();
        assert_eq!(idx.epoch(), 2);
        assert_eq!(evicted, 1, "the idle entry goes");
        assert!(idx.lookup(1, 8).is_none());
        assert!(idx.lookup(2, 8).is_some(), "refreshed entry survived");
    }

    #[test]
    fn invalidate_path_drops_only_that_file() {
        let idx = DedupIndex::new(4);
        idx.insert(1, 8, "/gone".into(), 0, 64, 0);
        idx.insert(2, 8, "/kept".into(), 0, 64, 0);
        idx.invalidate_path("/gone");
        assert!(idx.lookup(1, 8).is_none());
        assert!(idx.lookup(2, 8).is_some());
    }
}
