//! Seeded workload generator: one checkpoint image per rank.
//!
//! The *write-size sequence* is BLCR's: `CheckpointWriter::write_image`
//! runs once, untimed, over a `ProcessImage::synthetic` layout into a
//! sink that records only the length of every write. The *content* is
//! the harness's own, so that it can be regenerated for verification
//! and so that its compressibility and epoch-to-epoch similarity are
//! known: the byte stream is cut into 1 MiB extents by file offset, each
//! extent carries a version, and a version bump rewrites the whole
//! extent. Clean extents are byte-identical across epochs and — because
//! they are cut by file offset — aligned to 1 MiB chunks.
//!
//! Everything the program under test sees is derived from
//! `(seed, rank)`; it never sees the seed itself.

use crfs_blcr::{CheckpointSink, CheckpointWriter, ProcessImage, WriteStats};

/// Content granularity: one version per extent.
pub const EXTENT: usize = 1 << 20;
/// Content is generated per 64-byte block.
const BLOCK: usize = 64;
/// Keeps the dirty-choice hashes apart from the content hashes.
const DIRTY_DOMAIN: u64 = 0xd1e7_d1e7_d1e7_d1e7;

fn mix(mut z: u64) -> u64 {
    // splitmix64 finalizer.
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    mix(mix(mix(mix(a) ^ b) ^ c) ^ d)
}

/// Records the length of every sink write and discards the bytes.
#[derive(Default)]
struct SizeRecorder {
    sizes: Vec<usize>,
}

impl CheckpointSink for SizeRecorder {
    fn put(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.sizes.push(buf.len());
        Ok(())
    }
}

/// Fills `out` (at most one extent) with the content of extent `idx` of
/// `rank` at `version`: per 64-byte block, three of four blocks repeat a
/// 32-byte tile and the fourth is pseudo-random. That is about 3x
/// LZ-compressible while the random quarter keeps a codec from winning
/// by doing nothing.
pub fn fill_extent(seed: u64, rank: u32, idx: usize, version: u32, out: &mut [u8]) {
    debug_assert!(out.len() <= EXTENT);
    let key = mix4(seed, u64::from(rank), idx as u64, u64::from(version));
    let mut tile = [0u8; BLOCK];
    for (i, word) in tile[..32].chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix(key ^ (i as u64 + 1)).to_le_bytes());
    }
    let (lo, hi) = tile.split_at_mut(32);
    hi.copy_from_slice(lo);
    let mut state = key;
    for (b, block) in out.chunks_mut(BLOCK).enumerate() {
        if b % 4 == 3 {
            for word in block.chunks_mut(8) {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let bytes = mix(state).to_le_bytes();
                word.copy_from_slice(&bytes[..word.len()]);
            }
        } else {
            block.copy_from_slice(&tile[..block.len()]);
        }
    }
}

/// One rank's checkpoint image across epochs.
pub struct Image {
    seed: u64,
    rank: u32,
    dirty: f64,
    /// The BLCR write-size sequence; sums to `data.len()`.
    pub sizes: Vec<usize>,
    /// BLCR's own accounting of that sequence.
    pub blcr: WriteStats,
    /// Epoch whose content `data` holds.
    epoch: u64,
    versions: Vec<u32>,
    /// The byte stream of `epoch`, replayed by the timed loop.
    pub data: Vec<u8>,
}

impl Image {
    /// Builds the epoch-0 image of `rank`: about `target_bytes` long,
    /// with `dirty` of its extents rewritten in every later epoch.
    pub fn new(seed: u64, rank: u32, target_bytes: u64, dirty: f64) -> Image {
        let layout = ProcessImage::synthetic(rank + 1, target_bytes, mix(seed ^ u64::from(rank)));
        let mut rec = SizeRecorder::default();
        let blcr = CheckpointWriter::new()
            .write_image(&mut rec, &layout)
            .expect("a recording sink cannot fail");
        drop(layout);
        let len: usize = rec.sizes.iter().sum();
        let mut img = Image {
            seed,
            rank,
            dirty,
            sizes: rec.sizes,
            blcr,
            epoch: 0,
            versions: vec![0; len.div_ceil(EXTENT)],
            data: vec![0u8; len],
        };
        for idx in 0..img.versions.len() {
            img.refill(idx);
        }
        img
    }

    /// Stream length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Number of extents (the last may be short).
    pub fn extents(&self) -> usize {
        self.versions.len()
    }

    /// Epoch whose content the stream currently holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn refill(&mut self, idx: usize) {
        let start = idx * EXTENT;
        let end = (start + EXTENT).min(self.data.len());
        fill_extent(
            self.seed,
            self.rank,
            idx,
            self.versions[idx],
            &mut self.data[start..end],
        );
    }

    /// The extents rewritten in `epoch` (>= 1): exactly
    /// `round(dirty * extents)` of them, those whose hash of
    /// `(seed, rank, extent, epoch)` ranks lowest. An exact count keeps
    /// the dedup hit share and the stored bytes of an epoch the same
    /// from seed to seed.
    pub fn dirty_extents(&self, epoch: u64) -> Vec<usize> {
        let n = self.extents();
        let k = (self.dirty * n as f64).round() as usize;
        let mut ranked: Vec<(u64, usize)> = (0..n)
            .map(|idx| {
                (
                    mix4(
                        self.seed ^ DIRTY_DOMAIN,
                        u64::from(self.rank),
                        idx as u64,
                        epoch,
                    ),
                    idx,
                )
            })
            .collect();
        ranked.sort_unstable();
        let mut picked: Vec<usize> = ranked[..k.min(n)].iter().map(|&(_, idx)| idx).collect();
        picked.sort_unstable();
        picked
    }

    /// Moves the stream to the next epoch, regenerating dirty extents in
    /// place. Untimed: callers keep it outside every measured span.
    pub fn advance(&mut self) {
        self.seek(self.epoch + 1);
    }

    /// Moves the stream to `epoch`, forwards or backwards, regenerating
    /// only the extents whose version differs there.
    pub fn seek(&mut self, epoch: u64) {
        let target = self.versions_at(epoch);
        self.epoch = epoch;
        for (idx, version) in target.into_iter().enumerate() {
            if self.versions[idx] != version {
                self.versions[idx] = version;
                self.refill(idx);
            }
        }
    }

    /// Extent versions as of `epoch`.
    pub fn versions_at(&self, epoch: u64) -> Vec<u32> {
        let mut v = vec![0u32; self.extents()];
        for e in 1..=epoch {
            for idx in self.dirty_extents(e) {
                v[idx] += 1;
            }
        }
        v
    }

    /// Classifies every extent of `got` against the regenerated content
    /// of `epoch`. `got` may be shorter than the image (a crash-epoch
    /// survivor); only whole-or-final extents present in it are judged.
    pub fn check(&self, epoch: u64, got: &[u8]) -> Check {
        let versions = self.versions_at(epoch);
        let mut want = vec![0u8; EXTENT];
        let mut out = Check::default();
        for (idx, have) in got.chunks(EXTENT).enumerate() {
            let start = idx * EXTENT;
            let full = (start + EXTENT).min(self.len()) - start;
            fill_extent(self.seed, self.rank, idx, versions[idx], &mut want[..full]);
            if have == &want[..have.len()] {
                out.exact += 1;
            } else if have.iter().all(|&b| b == 0) {
                out.holes += 1;
            } else {
                out.wrong += 1;
            }
        }
        out
    }

    /// Whether `got` is byte-for-byte the whole image of `epoch`. The
    /// epoch the stream already holds compares directly; any other is
    /// regenerated extent by extent.
    pub fn matches(&self, epoch: u64, got: &[u8]) -> bool {
        if got.len() != self.len() {
            return false;
        }
        if epoch == self.epoch {
            return got == self.data;
        }
        let c = self.check(epoch, got);
        c.wrong == 0 && c.holes == 0
    }
}

/// Per-extent verdicts of [`Image::check`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Extents equal to the regenerated content.
    pub exact: usize,
    /// All-zero extents: a frame lost before a survivor, which the read
    /// path zero-fills (allowed only inside a crashed epoch).
    pub holes: usize,
    /// Extents that are neither: wrong bytes were served.
    pub wrong: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn same_seed_gives_identical_stream_and_write_sequence() {
        let a = Image::new(7, 0, 8 * MIB, 0.25);
        let b = Image::new(7, 0, 8 * MIB, 0.25);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.data, b.data);
        let c = Image::new(8, 0, 8 * MIB, 0.25);
        assert_ne!(a.data, c.data, "the seed drives content");
        let d = Image::new(7, 1, 8 * MIB, 0.25);
        assert_ne!(a.data, d.data, "ranks differ");
    }

    #[test]
    fn write_sequence_covers_the_stream_and_matches_blcr_bands() {
        let img = Image::new(3, 0, 16 * MIB, 0.25);
        assert_eq!(img.sizes.iter().sum::<usize>(), img.len());
        // Recount the bands from the recorded sizes with WriteStats' own
        // definitions and compare with what the writer reported.
        let tiny = img.sizes.iter().filter(|&&s| s <= 64).count() as u64;
        let medium = img
            .sizes
            .iter()
            .filter(|&&s| s > 4 * 1024 && s <= 16 * 1024)
            .count() as u64;
        let huge: Vec<usize> = img.sizes.iter().copied().filter(|&s| s > 1 << 20).collect();
        assert_eq!(img.blcr.writes, img.sizes.len() as u64);
        assert_eq!(img.blcr.bytes, img.len() as u64);
        assert_eq!(img.blcr.tiny_writes, tiny);
        assert_eq!(img.blcr.medium_writes, medium);
        assert_eq!(img.blcr.huge_writes, huge.len() as u64);
        assert_eq!(img.blcr.huge_bytes, huge.iter().sum::<usize>() as u64);
        assert!(
            tiny > 0 && medium > 0 && !huge.is_empty(),
            "all three bands"
        );
    }

    #[test]
    fn dirty_share_is_on_target_and_clean_extents_do_not_change() {
        let mut img = Image::new(11, 1, 64 * MIB, 0.25);
        let n = img.extents();
        for epoch in 1..=4u64 {
            let before = img.data.clone();
            let dirty = img.dirty_extents(epoch);
            let share = dirty.len() as f64 / n as f64;
            assert!((share - 0.25).abs() <= 0.02, "epoch {epoch}: {share}");
            img.advance();
            assert_eq!(img.epoch(), epoch);
            for idx in 0..n {
                let r = idx * EXTENT..((idx + 1) * EXTENT).min(img.len());
                let same = before[r.clone()] == img.data[r];
                assert_eq!(same, !dirty.contains(&idx), "epoch {epoch} extent {idx}");
            }
        }
        // Different epochs dirty different extents.
        assert_ne!(img.dirty_extents(1), img.dirty_extents(2));
    }

    #[test]
    fn check_regenerates_any_epoch_and_flags_wrong_bytes() {
        let mut img = Image::new(5, 0, 8 * MIB, 0.5);
        let epoch0 = img.data.clone();
        img.advance();
        img.advance();
        let epoch2 = img.data.clone();
        assert!(img.matches(2, &epoch2));
        assert!(img.matches(0, &epoch0));
        assert!(!img.matches(1, &epoch0));
        // Seeking back regenerates exactly the old stream, and forth again.
        img.seek(0);
        assert_eq!(img.data, epoch0);
        assert!(img.matches(2, &epoch2) && !img.matches(0, &epoch2));
        img.seek(2);
        assert_eq!(img.data, epoch2);
        let mut bad = img.data.clone();
        bad[EXTENT + 5] ^= 1;
        let c = img.check(2, &bad);
        assert_eq!((c.wrong, c.holes), (1, 0));
        // A zeroed extent is a hole, a short prefix is judged as far as it goes.
        bad[EXTENT..2 * EXTENT].fill(0);
        let c = img.check(2, &bad[..3 * EXTENT]);
        assert_eq!((c.exact, c.holes, c.wrong), (2, 1, 0));
        assert!(!img.matches(2, &bad[..3 * EXTENT]));
    }

    #[test]
    fn content_is_about_three_times_lz_compressible() {
        use crfs_core::transform::codec::encode_payload;
        use crfs_core::CodecKind;
        let mut extent = vec![0u8; EXTENT];
        fill_extent(1, 0, 0, 0, &mut extent);
        let mut out = Vec::new();
        encode_payload(CodecKind::Lz, &extent, &mut out);
        let ratio = EXTENT as f64 / out.len() as f64;
        assert!((2.5..4.5).contains(&ratio), "ratio {ratio}");
    }
}
