//! Single-thread probes of layer primitives, run once at the end of the
//! traced pass on the workload's own extents and write sizes. They
//! price a primitive in isolation so that a change in an end-to-end
//! number can be laid beside the primitive it should come from.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crfs_core::backend::{LocalFileBackend, OpenOptions};
use crfs_core::chunking::{apply_plan, plan_write};
use crfs_core::pool::BufferPool;
use crfs_core::transform::codec::{decode_payload, encode_payload};
use crfs_core::transform::frame::{content_hash128, fnv1a64, FRAME_HEADER_LEN};
use crfs_core::transform::DedupIndex;
use crfs_core::{Backend, CodecKind, CrfsConfig};

use crate::gen::{Image, EXTENT};
use crate::workload::RANKS;

/// Extents each throughput probe covers.
const PROBE_EXTENTS: usize = 16;
/// Writes of the local-backend probes.
const LOCAL_WRITES: usize = 48;

/// Probe results; all zero in the untraced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    /// `plan_write` + `apply_plan` per replayed write.
    pub plan_ns: f64,
    /// One `BufferPool` acquire + release.
    pub acquire_release_ns: f64,
    /// `encode_payload(Lz)` over workload extents.
    pub lz_encode_mibs: f64,
    /// `decode_payload` of those.
    pub lz_decode_mibs: f64,
    /// `content_hash128`.
    pub hash_mibs: f64,
    /// `fnv1a64`.
    pub checksum_mibs: f64,
    /// One `DedupIndex` lookup (hit) plus one insert.
    pub dedup_lookup_ns: f64,
    /// 1 MiB aligned writes to a `LocalFileBackend`.
    pub write_aligned_mibs: f64,
    /// 1 MiB + 40 B writes at unaligned offsets (the frame shape).
    pub write_framed_mibs: f64,
    /// 1 MiB reads of what the aligned probe wrote.
    pub read_mibs: f64,
}

fn mibs(bytes: usize, t0: Instant) -> f64 {
    bytes as f64 / (1 << 20) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Runs every probe. `scratch` is a directory the probes may write in.
pub fn run(img: &Image, config: &CrfsConfig, scratch: &Path) -> Probes {
    let extents: Vec<&[u8]> = img.data.chunks(EXTENT).take(PROBE_EXTENTS).collect();
    let bytes: usize = extents.iter().map(|e| e.len()).sum();
    let mut p = Probes::default();

    let t0 = Instant::now();
    let mut state = None;
    let mut off = 0u64;
    for &n in &img.sizes {
        let plan = plan_write(state, off, n, config.chunk_size);
        state = apply_plan(state, &plan, config.chunk_size);
        off += n as u64;
        black_box(&plan);
    }
    p.plan_ns = t0.elapsed().as_nanos() as f64 / img.sizes.len().max(1) as f64;

    let pool = BufferPool::with_shards(
        config.chunk_size,
        config.pool_chunks(),
        config.resolved_pool_shards(),
    );
    let rounds = 20_000;
    let t0 = Instant::now();
    for _ in 0..rounds {
        let (buf, _) = pool.acquire().expect("an open pool with free chunks");
        pool.release(black_box(buf));
    }
    p.acquire_release_ns = t0.elapsed().as_nanos() as f64 / f64::from(rounds);

    let mut encoded: Vec<(u8, Vec<u8>)> = Vec::new();
    let t0 = Instant::now();
    for e in &extents {
        let mut out = Vec::with_capacity(e.len());
        let codec = encode_payload(CodecKind::Lz, e, &mut out);
        encoded.push((codec, out));
    }
    p.lz_encode_mibs = mibs(bytes, t0);
    let t0 = Instant::now();
    for ((codec, stored), e) in encoded.iter().zip(&extents) {
        let mut out = Vec::with_capacity(e.len());
        decode_payload(*codec, stored, e.len(), &mut out).expect("decoding what was just encoded");
        assert!(out == **e, "codec round trip changed the bytes");
    }
    p.lz_decode_mibs = mibs(bytes, t0);

    let t0 = Instant::now();
    let hashes: Vec<u128> = extents
        .iter()
        .map(|e| content_hash128(black_box(e)))
        .collect();
    p.hash_mibs = mibs(bytes, t0);
    let t0 = Instant::now();
    for e in &extents {
        black_box(fnv1a64(black_box(e)));
    }
    p.checksum_mibs = mibs(bytes, t0);

    let index = DedupIndex::new(2);
    let path: Arc<str> = "/probe".into();
    let rounds = 20_000u32;
    let t0 = Instant::now();
    for i in 0..rounds {
        let h = hashes[i as usize % hashes.len()] ^ u128::from(i / hashes.len() as u32);
        if index.lookup(h, EXTENT as u32).is_none() {
            index.insert(h, EXTENT as u32, Arc::clone(&path), u64::from(i), 1, 0);
        }
        black_box(index.lookup(h, EXTENT as u32));
    }
    p.dedup_lookup_ns = t0.elapsed().as_nanos() as f64 / f64::from(rounds);

    let be = LocalFileBackend::new(scratch.join("probe")).expect("scratch directory is writable");
    let chunk = extents[0];
    let f = be
        .open("/aligned", OpenOptions::create_truncate())
        .expect("create in scratch");
    let t0 = Instant::now();
    for i in 0..LOCAL_WRITES {
        f.write_at((i * EXTENT) as u64, chunk).expect("probe write");
    }
    p.write_aligned_mibs = mibs(LOCAL_WRITES * chunk.len(), t0);
    let mut buf = vec![0u8; EXTENT];
    let t0 = Instant::now();
    for i in 0..LOCAL_WRITES {
        let n = f
            .read_at((i * EXTENT) as u64, &mut buf)
            .expect("probe read");
        assert_eq!(n, chunk.len());
    }
    p.read_mibs = mibs(LOCAL_WRITES * chunk.len(), t0);
    drop(f);
    let mut framed = vec![0u8; FRAME_HEADER_LEN as usize];
    framed.extend_from_slice(chunk);
    let f = be
        .open("/framed", OpenOptions::create_truncate())
        .expect("create in scratch");
    let t0 = Instant::now();
    for i in 0..LOCAL_WRITES {
        f.write_at((i * framed.len()) as u64, &framed)
            .expect("probe write");
    }
    p.write_framed_mibs = mibs(LOCAL_WRITES * framed.len(), t0);
    p
}

/// Reads every rank's checkpoint file straight off a
/// `LocalFileBackend` rooted at `dir`, one thread per rank, with the
/// same request size the mounted restart uses. Returns the wall.
pub fn direct_read(dir: &Path, read: usize, bufs: &mut [Vec<u8>]) -> f64 {
    let be = LocalFileBackend::new(dir).expect("store directory exists");
    debug_assert_eq!(bufs.len(), RANKS);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (rank, buf) in bufs.iter_mut().enumerate() {
            let be = &be;
            s.spawn(move || {
                let f = be
                    .open(&crate::cycle::ckpt_path(rank), OpenOptions::read_only())
                    .expect("checkpoint file exists");
                for off in (0..buf.len()).step_by(read) {
                    let end = (off + read).min(buf.len());
                    let n = f
                        .read_at(off as u64, &mut buf[off..end])
                        .expect("direct read");
                    assert_eq!(n, end - off, "short direct read");
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}
