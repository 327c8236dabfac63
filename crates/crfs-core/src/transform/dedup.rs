//! The mount-scoped content-addressed dedup index.
//!
//! Checkpoint streams are self-similar across epochs (stdchk's central
//! observation): most chunks of epoch *k+1* are byte-identical to
//! chunks of epoch *k*. The index holds the keys — 128-bit content hash
//! plus exact length — of the content-store chunks this mount may
//! reference, each with how its single DATA frame is stored. The key
//! is the chunk's whole address: a later chunk with the same content
//! emits a tiny *reference record* naming it instead of its payload.
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
//! (detected), not silent corruption.
//!
//! **Origins**: the index is owned by the mount's
//! [`SnapshotStore`](crate::snapshot::SnapshotStore), and every entry
//! names a chunk file of its content-addressed store (the `CAS_DIR` of
//! [`crate::snapshot`]). Those files are immutable, shared by every
//! file that references them, and deleted only by the store's GC,
//! which drops their entries here as it goes — so no user-level
//! create, truncate, rename or unlink can leave an entry naming bytes
//! that no longer exist.
//!
//! [`CrfsError::IntegrityError`]: crate::CrfsError::IntegrityError

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// How a previously stored chunk's DATA frame is stored — with its key,
/// everything a reference record needs to resolve the bytes without
/// re-reading the chunk's frame header.
#[derive(Debug, Clone)]
pub struct DedupHit {
    /// Stored payload length of the chunk's frame.
    pub stored_len: u32,
    /// Stored codec id of the chunk's payload.
    pub codec: u8,
}

struct DedupEntry {
    stored_len: u32,
    codec: u8,
    /// Epoch this entry was last inserted or hit in.
    last_epoch: u64,
}

/// Idle checkpoint epochs a mount's dedup-index entry survives before
/// eviction (see [`crate::Crfs::advance_epoch`]): the previous round's
/// chunks must still be there when the next round writes them again.
pub const DEDUP_KEEP_EPOCHS: u64 = 2;

/// Content key → how the chunk is stored, with epoch-aware eviction.
pub struct DedupIndex {
    /// Keyed by (content hash, exact length): a length mismatch can
    /// never dedup, whatever the hash says.
    map: Mutex<HashMap<(u128, u32), DedupEntry>>,
    epoch: AtomicU64,
    keep_epochs: u64,
}

impl DedupIndex {
    /// Creates an empty index that keeps entries for `keep_epochs`
    /// idle epochs before evicting them.
    pub fn new(keep_epochs: u64) -> DedupIndex {
        DedupIndex {
            map: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            keep_epochs: keep_epochs.max(1),
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Looks up content; a hit refreshes the entry's epoch (it is part
    /// of the live working set).
    pub fn lookup(&self, hash: u128, len: u32) -> Option<DedupHit> {
        let now = self.epoch.load(Relaxed);
        let mut map = self.map.lock();
        let e = map.get_mut(&(hash, len))?;
        e.last_epoch = now;
        Some(DedupHit {
            stored_len: e.stored_len,
            codec: e.codec,
        })
    }

    /// Registers freshly stored content. First writer wins: a racing
    /// duplicate store (two workers compressing identical chunks
    /// concurrently) keeps the existing entry so references stay
    /// consistent.
    pub fn add(&self, hash: u128, len: u32, stored_len: u32, codec: u8) {
        let now = self.epoch.load(Relaxed);
        let mut map = self.map.lock();
        map.entry((hash, len)).or_insert(DedupEntry {
            stored_len,
            codec,
            last_epoch: now,
        });
    }

    /// [`add`](Self::add) in the form that also took a file and a
    /// stored offset, which the key now implies; both are ignored. The
    /// repository benchmark's probe still calls it.
    pub fn insert(&self, hash: u128, len: u32, _: Arc<str>, _: u64, stored_len: u32, codec: u8) {
        self.add(hash, len, stored_len, codec);
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
}

impl std::fmt::Debug for DedupIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupIndex")
            .field("entries", &self.map.lock().len())
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
        idx.add(1, 100, 64, 2);
        let hit = idx.lookup(1, 100).expect("hit");
        assert_eq!((hit.stored_len, hit.codec), (64, 2));
        // Same hash, different length: never a hit.
        assert!(idx.lookup(1, 101).is_none());
    }

    #[test]
    fn first_insert_wins() {
        let idx = DedupIndex::new(2);
        idx.add(7, 10, 64, 0);
        idx.insert(7, 10, "/ignored".into(), 999, 32, 1);
        assert_eq!(idx.lookup(7, 10).unwrap().stored_len, 64);
    }

    #[test]
    fn epoch_eviction_keeps_live_working_set() {
        let idx = DedupIndex::new(1);
        idx.add(1, 8, 64, 0);
        idx.add(2, 8, 64, 0);
        // Epoch 1: only key 2's content recurs (a lookup refreshes it).
        let evicted = idx.advance_epoch();
        assert_eq!(evicted, 0, "one idle epoch is within keep_epochs");
        assert!(idx.lookup(2, 8).is_some());
        // Epoch 2: key 1 has now been idle for 2 > keep_epochs=1.
        let evicted = idx.advance_epoch();
        assert_eq!(idx.epoch(), 2);
        assert_eq!(evicted, 1, "the idle entry goes");
        assert!(idx.lookup(1, 8).is_none());
        assert!(idx.lookup(2, 8).is_some(), "refreshed entry survived");
    }
}
