//! The flight recorder: a bounded, lock-free, overwriting trace ring of
//! typed chunk-lifecycle events.
//!
//! Where the histograms answer *how long* each pipeline stage takes in
//! aggregate, the recorder answers *what happened, in order*, right
//! before something went wrong: every chunk seal, submit, issue,
//! completion and refusal (plus integrity failures, crash-recovery
//! trims, snapshot seals and GC activity) lands in a fixed-capacity
//! ring stamped with a monotonic logical clock. The ring adapts the
//! sequence-stamped-slot idea of the Vyukov MPMC queues in
//! [`engine::ring`](crate::engine::ring) and [`pool`](crate::pool) to a
//! *trace* discipline: producers never block and never fail — a full
//! ring overwrites the oldest events, keeping the most recent window,
//! which is exactly what a postmortem wants.
//!
//! Publication protocol per slot: the writer invalidates (`seq = 0`),
//! stores the payload words, then publishes the slot's sequence with
//! release ordering. A reader validates the sequence before and after
//! reading the payload and drops slots that changed underneath it — so
//! a live dump can only lose in-flight events, never emit torn ones
//! undetected. (If the ring wraps the full capacity *while* one writer
//! is mid-record, a garbled event could survive validation; the ring is
//! a best-effort trace, not a ledger, and 4096 slots make that window
//! vanishingly small.)
//!
//! Dumps are JSONL — one self-describing object per event, ordered by
//! logical clock — triggered by `IntegrityError`, unmount, or on demand
//! ([`crate::Crfs::flight_record_jsonl`]), and decoded by `crfs-stat`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::transform::frame::fnv1a64;

/// What a flight-record event describes. The `u8` discriminant is the
/// slot encoding; [`EventKind::name`] is the JSONL encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A chunk was sealed on the write path (`a` = offset, `b` = len).
    Sealed = 1,
    /// A sealed chunk was accepted by the IO engine (`a` = offset,
    /// `b` = len).
    Submitted = 2,
    /// The engine issued the chunk's backend write (`a` = offset,
    /// `b` = len).
    Issued = 3,
    /// The chunk's backend write completed and the chunk retired
    /// (`a` = offset, `b` = len).
    Completed = 4,
    /// The engine refused the chunk (submit racing shutdown; `a` =
    /// offset, `b` = len).
    Refused = 5,
    /// A backend write completed with an error — fault injection or a
    /// real backend failure (`a` = offset, `b` = len).
    WriteFailed = 6,
    /// A read failed end-to-end integrity verification (`a` = logical
    /// offset, `b` = 0). Triggers an automatic dump when a dump path is
    /// configured.
    IntegrityError = 7,
    /// Crash recovery tripped: the open scan (or fsck) discarded a torn
    /// tail past the last clean frame (`a` = clean prefix end, `b` =
    /// bytes discarded).
    CrashTrip = 8,
    /// Snapshot GC marked the live set (`a` = chunks marked, `b` = 0).
    GcMark = 9,
    /// Snapshot GC freed one CAS chunk (`a` = content hash low bits,
    /// `b` = stored bytes reclaimed).
    GcFree = 10,
    /// An epoch manifest was sealed (`a` = epoch, `b` = files).
    ManifestSealed = 11,
    /// The tiered backend drained one fast-tier write to the durable
    /// tier (`a` = offset, `b` = len). A failed drain copy records a
    /// [`WriteFailed`](EventKind::WriteFailed) instead.
    DrainCopy = 12,
    /// The tiered backend promoted a whole file from the durable tier
    /// back into the fast tier for a non-truncating write open
    /// (`a` = bytes copied, `b` = 0).
    TierPromote = 13,
}

impl EventKind {
    /// JSONL event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Sealed => "sealed",
            EventKind::Submitted => "submitted",
            EventKind::Issued => "issued",
            EventKind::Completed => "completed",
            EventKind::Refused => "refused",
            EventKind::WriteFailed => "write_failed",
            EventKind::IntegrityError => "integrity_error",
            EventKind::CrashTrip => "crash_trip",
            EventKind::GcMark => "gc_mark",
            EventKind::GcFree => "gc_free",
            EventKind::ManifestSealed => "manifest_sealed",
            EventKind::DrainCopy => "drain_copy",
            EventKind::TierPromote => "tier_promote",
        }
    }

    /// JSONL key names for the `a`/`b` payload words.
    fn field_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Sealed
            | EventKind::Submitted
            | EventKind::Issued
            | EventKind::Completed
            | EventKind::Refused
            | EventKind::WriteFailed
            | EventKind::DrainCopy => ("offset", "len"),
            EventKind::IntegrityError => ("offset", "aux"),
            EventKind::CrashTrip => ("clean_end", "discarded"),
            EventKind::GcMark => ("marked", "aux"),
            EventKind::GcFree => ("hash", "bytes"),
            EventKind::ManifestSealed => ("epoch", "files"),
            EventKind::TierPromote => ("bytes", "aux"),
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Sealed,
            2 => EventKind::Submitted,
            3 => EventKind::Issued,
            4 => EventKind::Completed,
            5 => EventKind::Refused,
            6 => EventKind::WriteFailed,
            7 => EventKind::IntegrityError,
            8 => EventKind::CrashTrip,
            9 => EventKind::GcMark,
            10 => EventKind::GcFree,
            11 => EventKind::ManifestSealed,
            12 => EventKind::DrainCopy,
            13 => EventKind::TierPromote,
            _ => return None,
        })
    }
}

/// One decoded flight-record event (the dump/report form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical clock value — a mount-wide total order over events.
    pub seq: u64,
    /// Nanoseconds since the recorder (the mount) was created.
    pub t_ns: u64,
    /// Event type.
    pub kind: EventKind,
    /// Path of the file involved, when the event is file-scoped.
    pub file: Option<String>,
    /// First payload word (meaning depends on `kind`; see the variant
    /// docs).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl FlightEvent {
    /// One self-describing JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let (ka, kb) = self.kind.field_names();
        let mut line = format!(
            "{{\"seq\":{},\"t_us\":{:.1},\"event\":\"{}\"",
            self.seq,
            self.t_ns as f64 / 1_000.0,
            self.kind.name()
        );
        if let Some(f) = &self.file {
            // Backend paths are plain ASCII-ish; escape the two
            // characters that could break the line.
            let esc = f.replace('\\', "\\\\").replace('"', "\\\"");
            line.push_str(&format!(",\"file\":\"{esc}\""));
        }
        line.push_str(&format!(",\"{ka}\":{},\"{kb}\":{}}}", self.a, self.b));
        line
    }
}

/// Slot payload words are individual atomics so racing writers produce
/// a *detectable* garble, never undefined behaviour.
struct EventSlot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    tag: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl EventSlot {
    fn empty() -> EventSlot {
        EventSlot {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Default ring capacity: enough to span several full pipeline drains
/// at typical chunk counts while costing ~200 KiB per mount.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Bounded lock-free overwriting event ring + file-name intern table.
pub struct FlightRecorder {
    slots: Box<[EventSlot]>,
    mask: u64,
    /// The logical clock: the next event's sequence number (starts
    /// at 1; 0 marks an empty or in-flight slot).
    head: AtomicU64,
    enabled: AtomicBool,
    t0: Instant,
    /// fnv1a64(path) → path, interned on first sighting; lets slots
    /// carry a fixed-width file tag while dumps still name files.
    names: RwLock<HashMap<u64, String>>,
    /// Where automatic dumps (IntegrityError, unmount) land; `None`
    /// (the default) disables automatic dumps.
    dump_path: Mutex<Option<String>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (rounded up
    /// to a power of two, minimum 64).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(64).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| EventSlot::empty()).collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            t0: Instant::now(),
            names: RwLock::new(HashMap::new()),
            dump_path: Mutex::new(None),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (the logical clock;
    /// ≥ the ring's retained window).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Enables or disables recording. Disabled recording is a single
    /// relaxed load and branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets (or clears) the automatic dump destination.
    pub fn set_dump_path(&self, path: Option<String>) {
        *self.dump_path.lock() = path;
    }

    /// Records one event. Never blocks; overwrites the oldest event
    /// when the ring is full. A no-op when disabled.
    #[inline]
    pub fn record(&self, kind: EventKind, file: Option<&str>, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        let tag = match file {
            Some(path) => self.intern(path),
            None => 0,
        };
        self.record_tag(kind, tag, a, b);
    }

    /// [`record`](Self::record) for per-file-entry hot paths: the
    /// interned tag is cached in `cache` (0 = not interned yet, which
    /// `fnv1a64` never produces for a real path), so every event after
    /// a file's first skips the hash and the name-table lock.
    pub fn record_cached(&self, kind: EventKind, path: &str, cache: &AtomicU64, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        let mut tag = cache.load(Ordering::Relaxed);
        if tag == 0 {
            tag = self.intern(path);
            cache.store(tag, Ordering::Relaxed);
        }
        self.record_tag(kind, tag, a, b);
    }

    fn record_tag(&self, kind: EventKind, tag: u64, a: u64, b: u64) {
        let t_ns = self.t0.elapsed().as_nanos() as u64;
        let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind as u8 as u64, Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    fn intern(&self, path: &str) -> u64 {
        let tag = fnv1a64(path.as_bytes());
        if self.names.read().contains_key(&tag) {
            return tag;
        }
        self.names
            .write()
            .entry(tag)
            .or_insert_with(|| path.to_string());
        tag
    }

    /// Decodes the retained window: every validly published slot, in
    /// logical-clock order. Lossy under concurrent recording (in-flight
    /// slots are skipped), exact at quiescence.
    pub fn events(&self) -> Vec<FlightEvent> {
        let names = self.names.read();
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let tag = slot.tag.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // overwritten mid-read: drop the torn slot
            }
            let Some(kind) = EventKind::from_u8(kind as u8) else {
                continue;
            };
            out.push(FlightEvent {
                seq: s1,
                t_ns,
                kind,
                file: names.get(&tag).cloned(),
                a,
                b,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The retained window as JSONL (one event per line, logical-clock
    /// order, trailing newline when non-empty).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL dump to the configured dump path, if one is
    /// set. Best-effort: dump failures are swallowed — the recorder is
    /// diagnostics and must never fail the pipeline it observes.
    pub fn dump_to_configured_path(&self) {
        let path = self.dump_path.lock().clone();
        if let Some(path) = path {
            let _ = std::fs::write(&path, self.dump_jsonl());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_decode_in_logical_order_with_names() {
        let r = FlightRecorder::with_capacity(64);
        r.record(EventKind::Sealed, Some("/ckpt/a.img"), 0, 65536);
        r.record(EventKind::Submitted, Some("/ckpt/a.img"), 0, 65536);
        r.record(EventKind::Completed, Some("/ckpt/a.img"), 0, 65536);
        r.record(EventKind::ManifestSealed, None, 3, 12);
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(events[0].kind, EventKind::Sealed);
        assert_eq!(events[0].file.as_deref(), Some("/ckpt/a.img"));
        assert_eq!(events[3].file, None);
        assert_eq!(events[3].a, 3);
    }

    #[test]
    fn full_ring_keeps_the_most_recent_window() {
        let r = FlightRecorder::with_capacity(64);
        for i in 0..200u64 {
            r.record(EventKind::Sealed, None, i, 0);
        }
        let events = r.events();
        assert_eq!(events.len(), 64);
        assert_eq!(events.first().unwrap().seq, 200 - 64 + 1);
        assert_eq!(events.last().unwrap().seq, 200);
        assert_eq!(events.last().unwrap().a, 199);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::with_capacity(64);
        r.set_enabled(false);
        r.record(EventKind::Sealed, Some("/x"), 1, 2);
        assert_eq!(r.recorded(), 0);
        assert!(r.events().is_empty());
        assert!(r.dump_jsonl().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_typed_fields() {
        let r = FlightRecorder::with_capacity(64);
        r.record(EventKind::Issued, Some("/a \"b\""), 4096, 1024);
        r.record(EventKind::GcFree, None, 0xdead, 512);
        let dump = r.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"issued\""), "{}", lines[0]);
        assert!(lines[0].contains("\"offset\":4096"), "{}", lines[0]);
        assert!(
            lines[0].contains("\\\"b\\\""),
            "escaped quote: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"event\":\"gc_free\""), "{}", lines[1]);
        assert!(lines[1].contains("\"bytes\":512"), "{}", lines[1]);
    }

    #[test]
    fn concurrent_recording_never_produces_torn_events() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::with_capacity(256));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        // Each thread's events carry a = b so torn
                        // payloads are detectable below.
                        r.record(EventKind::Sealed, None, t * 10_000 + i, t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 16_000);
        let events = r.events();
        assert_eq!(events.len(), 256, "quiescent dump fills the window");
        for e in &events {
            assert_eq!(e.a, e.b, "torn event escaped validation: {e:?}");
        }
    }
}
