//! Harness-owned `Backend` decorator for the traced pass: one span and
//! one count per `open / write_at / begin_write_at / read_at / sync`
//! that crosses a tier boundary. It wraps the outermost backend of a
//! tier, so on a modelled device its spans include the modelled time.
//! The untraced pass never constructs one.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crfs_core::backend::OpenOptions;
use crfs_core::{Backend, BackendFile, CompletionSink};

use crate::trace::{Req, Tracer, NO_RANK};

/// Which tier a tap sits on; picks the span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Fast tier of a tiered stack.
    Fast,
    /// Durable tier of a tiered stack, or the durable root read alone.
    Durable,
    /// The only tier of a single-tier stack.
    Local,
}

struct Names {
    open: &'static str,
    write_at: &'static str,
    begin_write_at: &'static str,
    read_at: &'static str,
    sync: &'static str,
}

impl Tier {
    fn names(self) -> &'static Names {
        match self {
            Tier::Fast => &Names {
                open: "fast.open",
                write_at: "fast.write_at",
                begin_write_at: "fast.begin_write_at",
                read_at: "fast.read_at",
                sync: "fast.sync",
            },
            Tier::Durable => &Names {
                open: "durable.open",
                write_at: "durable.write_at",
                begin_write_at: "durable.begin_write_at",
                read_at: "durable.read_at",
                sync: "durable.sync",
            },
            Tier::Local => &Names {
                open: "local.open",
                write_at: "local.write_at",
                begin_write_at: "local.begin_write_at",
                read_at: "local.read_at",
                sync: "local.sync",
            },
        }
    }
}

/// Whether a span name is one a tap records (`fast.*`, `durable.*`,
/// `local.*`) rather than one of the harness's own.
pub fn is_tap_span(name: &str) -> bool {
    ["fast.", "durable.", "local."]
        .iter()
        .any(|tier| name.starts_with(tier))
}

/// Counts taken at the tier boundary. All `Relaxed`: each is a
/// statistic that publishes nothing else.
#[derive(Default)]
pub struct TapCounts {
    /// Writes (`write_at` plus accepted `begin_write_at`).
    pub write_ops: AtomicU64,
    /// Bytes those writes carried.
    pub write_bytes: AtomicU64,
    /// Writes that began where the tier's previous write ended, on the
    /// same open file.
    pub seq_writes: AtomicU64,
    /// `read_at` calls.
    pub read_ops: AtomicU64,
    /// Bytes they returned.
    pub read_bytes: AtomicU64,
}

struct Shared {
    tier: Tier,
    tracer: Arc<Tracer>,
    counts: TapCounts,
    /// `(file id, end offset)` of the tier's previous write.
    last_write: Mutex<(u64, u64)>,
    next_file: AtomicU64,
}

/// One tier's tap point: the counters and span names every stack built
/// over that tier shares, so a "rebooted" stack keeps counting where the
/// previous one stopped.
pub struct TapPoint {
    shared: Arc<Shared>,
}

impl TapPoint {
    /// A tap point for `tier`, recording into `tracer`.
    pub fn new(tier: Tier, tracer: Arc<Tracer>) -> TapPoint {
        TapPoint {
            shared: Arc::new(Shared {
                tier,
                tracer,
                counts: TapCounts::default(),
                last_write: Mutex::new((u64::MAX, 0)),
                next_file: AtomicU64::new(0),
            }),
        }
    }

    /// Wraps `inner` so its traffic is counted here.
    pub fn wrap(&self, inner: Arc<dyn Backend>) -> Arc<dyn Backend> {
        Arc::new(Tap {
            inner,
            shared: Arc::clone(&self.shared),
        })
    }

    /// The counts so far.
    pub fn counts(&self) -> &TapCounts {
        &self.shared.counts
    }
}

/// The decorator itself.
struct Tap {
    inner: Arc<dyn Backend>,
    shared: Arc<Shared>,
}

/// Rank a checkpoint path belongs to (`.../rank<N>...`), else `NO_RANK`.
fn rank_of(path: &str) -> u16 {
    path.rfind("rank")
        .and_then(|i| {
            let digits: String = path[i + 4..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .unwrap_or(NO_RANK)
}

impl Backend for Tap {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let req = Req {
            step: 0,
            rank: rank_of(path),
        };
        let start = self.shared.tracer.now_ns();
        let file = self.inner.open(path, opts);
        let end = self.shared.tracer.now_ns();
        self.shared
            .tracer
            .record(self.shared.tier.names().open, 0, req, start, end);
        Ok(Box::new(TapFile {
            inner: file?,
            shared: Arc::clone(&self.shared),
            id: self.shared.next_file.fetch_add(1, Relaxed),
            req,
        }))
    }

    crfs_core::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
        file_len, list_dir, drain_barrier, attach_stats);
}

struct TapFile {
    inner: Box<dyn BackendFile>,
    shared: Arc<Shared>,
    id: u64,
    req: Req,
}

impl TapFile {
    fn note_write(&self, name: &'static str, offset: u64, len: usize, start: u64) {
        let end = self.shared.tracer.now_ns();
        self.shared.tracer.record(name, 0, self.req, start, end);
        let c = &self.shared.counts;
        c.write_ops.fetch_add(1, Relaxed);
        c.write_bytes.fetch_add(len as u64, Relaxed);
        let mut last = self
            .shared
            .last_write
            .lock()
            .expect("tap poisoned: a writing thread panicked");
        if *last == (self.id, offset) {
            c.seq_writes.fetch_add(1, Relaxed);
        }
        *last = (self.id, offset + len as u64);
    }
}

impl BackendFile for TapFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let start = self.shared.tracer.now_ns();
        let res = self.inner.write_at(offset, data);
        self.note_write(self.shared.tier.names().write_at, offset, data.len(), start);
        res
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        let start = self.shared.tracer.now_ns();
        let accepted = self.inner.begin_write_at(token, offset, data, sink)?;
        // A declined op comes back through `write_at`; count it there.
        if accepted {
            self.note_write(
                self.shared.tier.names().begin_write_at,
                offset,
                data.len(),
                start,
            );
        }
        Ok(accepted)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let start = self.shared.tracer.now_ns();
        let res = self.inner.read_at(offset, buf);
        let end = self.shared.tracer.now_ns();
        self.shared
            .tracer
            .record(self.shared.tier.names().read_at, 0, self.req, start, end);
        self.shared.counts.read_ops.fetch_add(1, Relaxed);
        if let Ok(n) = res {
            self.shared.counts.read_bytes.fetch_add(n as u64, Relaxed);
        }
        res
    }

    fn sync(&self) -> io::Result<()> {
        let start = self.shared.tracer.now_ns();
        let res = self.inner.sync();
        let end = self.shared.tracer.now_ns();
        self.shared
            .tracer
            .record(self.shared.tier.names().sync, 0, self.req, start, end);
        res
    }

    crfs_core::forward_file_ops!(inner: len, set_len, is_empty);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crfs_core::backend::MemBackend;

    #[test]
    fn tap_counts_ops_bytes_and_sequential_writes() {
        let tracer = Arc::new(Tracer::default());
        let point = TapPoint::new(Tier::Durable, Arc::clone(&tracer));
        let tap = point.wrap(Arc::new(MemBackend::new()));
        tap.mkdir("/ckpt").unwrap();
        let f = tap
            .open("/ckpt/rank1.img", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, &[1; 100]).unwrap();
        f.write_at(100, &[2; 50]).unwrap(); // sequential
        f.write_at(10, &[3; 5]).unwrap(); // not
        f.sync().unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 64);
        let c = point.counts();
        assert_eq!(c.write_ops.load(Relaxed), 3);
        assert_eq!(c.write_bytes.load(Relaxed), 155);
        assert_eq!(c.seq_writes.load(Relaxed), 1);
        assert_eq!(c.read_ops.load(Relaxed), 1);
        assert_eq!(c.read_bytes.load(Relaxed), 64);
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "durable.open",
                "durable.write_at",
                "durable.write_at",
                "durable.write_at",
                "durable.sync",
                "durable.read_at"
            ]
        );
        assert!(spans.iter().all(|s| s.req.rank == 1 && s.parent == 0));
        assert_eq!(rank_of("/.crfs-snap/cas/ab"), NO_RANK);
    }
}
