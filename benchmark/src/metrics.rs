//! The metric registry and how every metric is derived from a pass.
//!
//! End-to-end metrics are what a user of the system sees and always come
//! from an untraced pass. Per-layer metrics come from the traced pass:
//! harness spans, tap counters, `Crfs::stats` deltas between phase
//! boundaries, tier counters and probes. `../BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

use crfs_core::obs::HistogramSnapshot;
use crfs_core::StatsSnapshot;

use crate::cycle::{Pass, Traced};
use crate::host;
use crate::summary::{median, percentile};
use crate::trace::{self, Span};
use crate::workload::{Kind, RANKS};

/// Which way a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Its name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is good.
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics of `BENCHMARK.json`.
pub const END_TO_END: [Def; 7] = [
    e2e("ckpt_ack_mibs", "MiB/s", Better::Higher, 0.20),
    e2e("ckpt_durable_mibs", "MiB/s", Better::Higher, 0.20),
    e2e("restart_mibs", "MiB/s", Better::Higher, 0.20),
    e2e("recover_s", "s", Better::Lower, 0.20),
    e2e("ckpt_cpu_s_per_gib", "s/GiB", Better::Lower, 0.25),
    e2e("stored_per_logical", "ratio", Better::Lower, 0.02),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// `ops_failed_share` is the eighth end-to-end number: printed and
/// stored with every result, and compared ("any increase is a
/// regression"), but kept out of `BENCHMARK.json`'s list because its
/// expected value is 0; there `failed / attempted` carries it.
pub const OPS_FAILED_SHARE: Def = e2e("ops_failed_share", "ratio", Better::Lower, 0.0);

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

/// The per-layer metrics of `BENCHMARK.json`, grouped by module.
pub const PER_LAYER: [Def; 82] = [
    layer("vfs.write_p50_us", "us", L),
    layer("vfs.write_p99_us", "us", L),
    layer("vfs.write_max_ms", "ms", L),
    layer("vfs.close_p50_ms", "ms", L),
    layer("vfs.requests_per_write", "ratio", L),
    layer("fs.mount_ms", "ms", L),
    layer("fs.unmount_ms", "ms", L),
    layer("fs.open_restart_ms", "ms", L),
    layer("fs.shard_lock_waits", "count", L),
    layer("chunking.chunks_sealed", "count", L),
    layer("chunking.partial_seals", "count", L),
    layer("chunking.writes_per_chunk", "ratio", H),
    layer("chunking.plan_ns", "ns", L),
    layer("pool.waits", "count", L),
    layer("pool.wait_share", "ratio", L),
    layer("pool.wait_p50_ms", "ms", L),
    layer("pool.wait_p99_ms", "ms", L),
    layer("pool.acquire_release_ns", "ns", L),
    layer("engine.backend_writes", "count", L),
    layer("engine.avg_batch_len", "ratio", H),
    layer("engine.inflight_hwm", "count", H),
    layer("engine.seal_to_submit_p50_us", "us", L),
    layer("engine.seal_to_submit_p90_us", "us", L),
    layer("engine.write_busy_share", "ratio", L),
    layer("engine.barrier_wait_share", "ratio", L),
    layer("transform.encode_share", "ratio", L),
    layer("transform.encode_p50_us", "us", L),
    layer("transform.decode_share", "ratio", L),
    layer("transform.dedup_hit_share", "ratio", H),
    layer("transform.compress_ratio", "ratio", H),
    layer("transform.lz_encode_mibs", "MiB/s", H),
    layer("transform.lz_decode_mibs", "MiB/s", H),
    layer("transform.hash_mibs", "MiB/s", H),
    layer("transform.checksum_mibs", "MiB/s", H),
    layer("transform.dedup_lookup_ns", "ns", L),
    layer("snapshot.seal_p50_ms", "ms", L),
    layer("snapshot.gc_pause_ms", "ms", L),
    layer("snapshot.gc_reclaimed_chunks", "count", H),
    layer("snapshot.cas_files", "count", L),
    layer("snapshot.epoch_stored_share", "ratio", L),
    layer("tiered.drain_efficiency", "ratio", H),
    layer("tiered.ack_gap_share", "ratio", H),
    layer("tiered.write_through_share", "ratio", L),
    layer("tiered.drain_ops", "count", L),
    layer("tiered.drain_copy_p50_ms", "ms", L),
    layer("tiered.drain_copy_p99_ms", "ms", L),
    layer("tiered.drain_wait_ms", "ms", L),
    layer("tiered.durable_ops", "count", L),
    layer("tiered.durable_seq_share", "ratio", H),
    layer("tiered.durable_bytes_per_logical", "ratio", L),
    layer("tiered.fast_reread_bytes_per_logical", "ratio", L),
    layer("local.write_ops", "count", L),
    layer("local.write_bytes_per_logical", "ratio", L),
    layer("local.busy_share", "ratio", L),
    layer("local.read_ops", "count", L),
    layer("local.write_aligned_mibs", "MiB/s", H),
    layer("local.write_framed_mibs", "MiB/s", H),
    layer("local.read_mibs", "MiB/s", H),
    layer("local.direct_available", "count", H),
    layer("prefetch.hit_share", "ratio", H),
    layer("prefetch.wasted_share", "ratio", L),
    layer("prefetch.fill_p50_ms", "ms", L),
    layer("prefetch.read_hit_p50_us", "us", L),
    layer("prefetch.read_miss_p50_us", "us", L),
    layer("prefetch.via_crfs_over_direct", "ratio", L),
    layer("prefetch.strided_mibs", "MiB/s", H),
    layer("fsck.repair_s", "s", L),
    layer("fsck.rescan_s", "s", L),
    layer("fsck.checked_mibs", "MiB", L),
    layer("fsck.files", "count", L),
    layer("fsck.damage_found", "count", L),
    layer("fsck.redrained_files", "count", L),
    layer("fsck.pre_gc_orphaned_chunks", "count", L),
    layer("crash.ops_refused", "count", L),
    layer("crash.wrong_byte_restarts", "count", L),
    layer("proc.rss_growth_mib", "MiB", L),
    layer("proc.cpu_user_s", "s", L),
    layer("proc.cpu_sys_s", "s", L),
    layer("harness.trace_overhead_share", "ratio", L),
    layer("harness.budget_unaccounted_share", "ratio", L),
    layer("harness.spans", "count", L),
    layer("harness.epochs", "count", H),
];

/// A metric value by name.
pub type Values = Vec<(&'static str, f64)>;

const MIB: f64 = (1u64 << 20) as f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of a pass, `ops_failed_share` last.
pub fn end_to_end(p: &Pass) -> Values {
    let mib = p.logical_bytes as f64 / MIB;
    let rate = |walls: Vec<f64>| median(&walls.iter().map(|w| mib / w).collect::<Vec<_>>());
    let cpu: f64 = p.epochs.iter().map(|e| e.cpu_s()).sum();
    let gib = p.epochs.len() as f64 * mib / 1024.0;
    vec![
        (
            "ckpt_ack_mibs",
            rate(p.epochs.iter().map(|e| e.ack_s).collect()),
        ),
        (
            "ckpt_durable_mibs",
            rate(p.epochs.iter().map(|e| e.durable_s).collect()),
        ),
        ("restart_mibs", rate(p.restart_s.clone())),
        (
            "recover_s",
            median(&p.recovers.iter().map(|r| r.recover_s()).collect::<Vec<_>>()),
        ),
        ("ckpt_cpu_s_per_gib", ratio(cpu, gib)),
        (
            "stored_per_logical",
            ratio(
                p.stored_bytes as f64,
                (p.retained_epochs * p.logical_bytes) as f64,
            ),
        ),
        ("setup_s", median(&p.setup_s)),
        (
            "ops_failed_share",
            ratio(p.ops.failed as f64, p.ops.attempted as f64),
        ),
    ]
}

/// A latency distribution as `(bucket lower bound, count)` pairs, so
/// that snapshots of one histogram can be subtracted and snapshots of
/// several mounts added.
#[derive(Debug, Default, Clone)]
struct Dist {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
}

impl Dist {
    fn of(h: &HistogramSnapshot) -> Dist {
        Dist {
            buckets: h.buckets.iter().copied().collect(),
            count: h.count,
            sum: h.sum,
        }
    }

    /// Samples recorded after `before` was taken.
    fn since(mut self, before: &HistogramSnapshot) -> Dist {
        for &(low, n) in &before.buckets {
            if let Some(mine) = self.buckets.get_mut(&low) {
                *mine = mine.saturating_sub(n);
            }
        }
        self.count = self.count.saturating_sub(before.count);
        self.sum = self.sum.saturating_sub(before.sum);
        self
    }

    fn add(&mut self, other: &HistogramSnapshot) {
        for &(low, n) in &other.buckets {
            *self.buckets.entry(low).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Lower bound of the bucket holding the `q`-quantile sample, ns.
    fn quantile_ns(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.values().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (&low, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return low as f64;
            }
        }
        0.0
    }
}

/// Mean per-epoch wall split, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Budget {
    /// `(row label, ms per epoch, counted as unexplained)`.
    pub rows: Vec<(&'static str, f64, bool)>,
    /// Mean epoch wall, ms.
    pub wall_ms: f64,
    /// Share of the wall no harness span or product stage explains.
    pub unaccounted_share: f64,
}

/// Splits the timed epochs' wall along the writers' path. Harness spans
/// give the outline — each rank's self time between calls, `vfs.create`,
/// `vfs.write`, `vfs.close`, then `advance_epoch` — and the product's own
/// stage histograms explain the inside of those calls (pool wait, close
/// barrier, snapshot seal, drain wait). What no span or stage explains
/// is the unaccounted share: the rest of `close` and `advance_epoch`,
/// the time a finished rank idles while the other still writes, and
/// the epoch span's self time (thread spawn and join).
pub fn budget(t: &Traced) -> Budget {
    // Decorator spans hang off the phase too; the outline is the
    // harness's own spans.
    let harness: Vec<Span> = t
        .spans
        .iter()
        .filter(|s| !crate::tap::is_tap_span(s.name))
        .cloned()
        .collect();
    let own: std::collections::HashMap<u32, u64> =
        trace::self_times(&harness).into_iter().collect();
    let epochs: Vec<&Span> = harness.iter().filter(|s| s.name == "epoch").collect();
    let n = epochs.len().min(t.epoch_stats.len().saturating_sub(1));
    if n == 0 {
        return Budget::default();
    }
    let ms = |ns: f64| ns / 1e6 / n as f64;
    let per_rank = |ns: u64| ns as f64 / RANKS as f64;
    let (mut wall, mut phase_self, mut advance) = (0.0, 0.0, 0.0);
    let (mut ranks, mut writer_self, mut create, mut write, mut close) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for e in &epochs[..n] {
        wall += e.dur_ns() as f64;
        phase_self += own[&e.id] as f64;
        for s in harness.iter().filter(|s| s.parent == e.id) {
            match s.name {
                "fs.advance_epoch" => advance += s.dur_ns() as f64,
                "rank" => {
                    ranks += per_rank(s.dur_ns());
                    writer_self += per_rank(own[&s.id]);
                    for c in harness.iter().filter(|c| c.parent == s.id) {
                        match c.name {
                            "vfs.create" => create += per_rank(c.dur_ns()),
                            "vfs.write" => write += per_rank(c.dur_ns()),
                            "vfs.close" => close += per_rank(c.dur_ns()),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let (a, b) = (&t.epoch_stats[0].stages, &t.epoch_stats[n].stages);
    let stage =
        |after: &HistogramSnapshot, before: &HistogramSnapshot| (after.sum - before.sum) as f64;
    let pool = (stage(&b.pool_wait, &a.pool_wait) / RANKS as f64).min(write);
    let barrier = (stage(&b.barrier_wait, &a.barrier_wait) / RANKS as f64).min(close);
    let seal = stage(&b.snapshot_seal, &a.snapshot_seal).min(advance);
    let drain = stage(&b.drain_wait, &a.drain_wait).min(advance - seal);
    // The epoch span's children are the rank spans (overlapping) and
    // advance_epoch: what they cover beyond the mean rank is idling.
    let idle = (wall - phase_self - advance - ranks).max(0.0);
    let close_other = close - barrier;
    let advance_other = advance - seal - drain;
    let rows = vec![
        ("writer self (between calls)", ms(writer_self), false),
        ("vfs.create", ms(create), false),
        (
            "vfs.write self (copy, plan, submit)",
            ms(write - pool),
            false,
        ),
        ("pool wait (stage, inside vfs.write)", ms(pool), false),
        (
            "close barrier (stage, inside vfs.close)",
            ms(barrier),
            false,
        ),
        ("vfs.close beyond the barrier", ms(close_other), true),
        ("advance_epoch: snapshot seal (stage)", ms(seal), false),
        ("advance_epoch: drain wait (stage)", ms(drain), false),
        ("advance_epoch beyond both", ms(advance_other), true),
        ("a finished rank idling for the other", ms(idle), true),
        ("epoch self (spawn, join)", ms(phase_self), true),
    ];
    Budget {
        rows,
        wall_ms: ms(wall),
        unaccounted_share: ratio(close_other + advance_other + idle + phase_self, wall),
    }
}

/// The per-layer metrics of a traced pass. `untraced_epoch_s` is the
/// median epoch wall of the untraced pass of the same seed, for the
/// tracing overhead; `budget` is `budget(traced)`.
pub fn per_layer(
    p: &Pass,
    budget: &Budget,
    untraced_epoch_s: f64,
    data_parent: &std::path::Path,
) -> Values {
    let t = p
        .traced
        .as_ref()
        .expect("per-layer metrics need the traced pass");
    let e = p.epochs.len() as f64;
    let logical = p.logical_bytes as f64;
    let cores = host::nproc() as f64;
    let cfg = p.spec.config();
    let ack_wall: f64 = p.epochs.iter().map(|x| x.ack_s).sum();
    let wall: f64 = p.epochs.iter().map(|x| x.durable_s).sum();
    let wall_ns = wall * 1e9;
    let (s0, s1): (&StatsSnapshot, &StatsSnapshot) = (
        t.epoch_stats.first().expect("traced passes snapshot stats"),
        t.epoch_stats.last().expect("traced passes snapshot stats"),
    );
    let d = |f: fn(&StatsSnapshot) -> u64| (f(s1) - f(s0)) as f64;
    let win = |f: fn(&StatsSnapshot) -> &HistogramSnapshot| Dist::of(f(s1)).since(f(s0));
    let span_ms = |name: &str| median(&trace::durations(&t.spans, name)) / 1e6;

    // Harness spans of the timed epochs only.
    let epoch_ids: Vec<u32> = t
        .spans
        .iter()
        .filter(|s| s.name == "epoch")
        .map(|s| s.id)
        .collect();
    let rank_ids: Vec<u32> = t
        .spans
        .iter()
        .filter(|s| s.name == "rank" && epoch_ids.contains(&s.parent))
        .map(|s| s.id)
        .collect();
    let in_epochs = |name: &str| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == name && rank_ids.contains(&s.parent))
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let writes = in_epochs("vfs.write");
    let closes = in_epochs("vfs.close");

    let pool_wait = win(|s| &s.stages.pool_wait);
    let seal_to_submit = win(|s| &s.stages.seal_to_submit);
    let encode = win(|s| &s.stages.transform_encode);
    let write_sync = win(|s| &s.stages.write_sync);
    let write_async = win(|s| &s.stages.write_issue_to_complete);
    let barrier = win(|s| &s.stages.barrier_wait);
    let seal = win(|s| &s.stages.snapshot_seal);
    let drain_copy = win(|s| &s.stages.drain_copy);
    let drain_wait = win(|s| &s.stages.drain_wait);

    // Restart side: one mount per round, so distributions add up.
    let mut decode = Dist::default();
    let mut fill = Dist::default();
    let mut hit = Dist::default();
    let mut miss = Dist::default();
    let (mut hits, mut misses, mut issued, mut wasted) = (0.0, 0.0, 0.0, 0.0);
    for s in &t.restart_stats {
        decode.add(&s.stages.transform_decode);
        fill.add(&s.stages.prefetch_fill);
        hit.add(&s.stages.read_hit);
        miss.add(&s.stages.read_miss);
        hits += s.read_hits as f64;
        misses += s.read_misses as f64;
        issued += s.prefetch_issued as f64;
        wasted += s.prefetch_wasted as f64;
    }
    let restart_wall: f64 = p.restart_s.iter().sum();
    let rounds = p.restart_s.len() as f64;

    let tier = t.tier.map(|[a, b]| {
        (
            (b.drain_ops - a.drain_ops) as f64,
            (b.write_through_ops - a.write_through_ops) as f64,
        )
    });
    let [near_ckpt, durable_ckpt] = [0, 1].map(|i| t.taps_ckpt[1][i].since(&t.taps_ckpt[0][i]));
    let near_restart = t.taps_restart[1][0].since(&t.taps_restart[0][0]);
    let durable_restart = t.taps_restart[1][1].since(&t.taps_restart[0][1]);
    let tiered_stack = t.tier.is_some();
    // The tap nearest the engine: fast tier or the single tier.
    let near_busy = trace::union_ns(
        t.spans
            .iter()
            .filter(|s| {
                epoch_ids.contains(&s.parent)
                    && matches!(
                        s.name,
                        "fast.write_at"
                            | "fast.begin_write_at"
                            | "local.write_at"
                            | "local.begin_write_at"
                    )
            })
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    ) as f64;

    let mib = logical / MIB;
    let durable_mibs = median(
        &p.epochs
            .iter()
            .map(|x| mib / x.durable_s)
            .collect::<Vec<_>>(),
    );
    let traced_epoch_s = median(&p.epochs.iter().map(|x| x.durable_s).collect::<Vec<_>>());
    let recover = |f: fn(&crate::cycle::RecoverSample) -> f64| {
        median(&p.recovers.iter().map(f).collect::<Vec<_>>())
    };
    let warmup_snapshot_bytes = s0.snapshot_bytes as f64;
    let restart_reads = if p.spec.kind == Kind::ColdRestart {
        durable_restart.read_ops
    } else {
        near_restart.read_ops
    };

    vec![
        ("vfs.write_p50_us", percentile(&writes, 50.0) / 1e3),
        ("vfs.write_p99_us", percentile(&writes, 99.0) / 1e3),
        ("vfs.write_max_ms", percentile(&writes, 100.0) / 1e6),
        ("vfs.close_p50_ms", median(&closes) / 1e6),
        (
            "vfs.requests_per_write",
            ratio(d(|s| s.writes), e * p.writes_per_epoch as f64),
        ),
        ("fs.mount_ms", span_ms("fs.mount")),
        ("fs.unmount_ms", span_ms("fs.unmount")),
        (
            "fs.open_restart_ms",
            span_ms(if p.spec.snapshots() {
                "fs.open_restart"
            } else {
                "fs.open"
            }),
        ),
        ("fs.shard_lock_waits", d(|s| s.shard_lock_waits)),
        ("chunking.chunks_sealed", d(|s| s.chunks_sealed) / e),
        ("chunking.partial_seals", d(|s| s.partial_seals) / e),
        (
            "chunking.writes_per_chunk",
            ratio(d(|s| s.writes), d(|s| s.chunks_sealed)),
        ),
        ("chunking.plan_ns", t.probes.plan_ns),
        ("pool.waits", d(|s| s.pool_waits) / e),
        (
            "pool.wait_share",
            ratio(pool_wait.sum as f64, RANKS as f64 * ack_wall * 1e9),
        ),
        ("pool.wait_p50_ms", pool_wait.quantile_ns(0.50) / 1e6),
        ("pool.wait_p99_ms", pool_wait.quantile_ns(0.99) / 1e6),
        ("pool.acquire_release_ns", t.probes.acquire_release_ns),
        ("engine.backend_writes", d(|s| s.backend_writes) / e),
        (
            "engine.avg_batch_len",
            ratio(d(|s| s.chunks_sealed), d(|s| s.engine_submits)),
        ),
        ("engine.inflight_hwm", s1.inflight_hwm as f64),
        (
            "engine.seal_to_submit_p50_us",
            seal_to_submit.quantile_ns(0.50) / 1e3,
        ),
        (
            "engine.seal_to_submit_p90_us",
            seal_to_submit.quantile_ns(0.90) / 1e3,
        ),
        (
            "engine.write_busy_share",
            ratio(
                (write_sync.sum + write_async.sum) as f64,
                cfg.io_threads as f64 * wall_ns,
            ),
        ),
        (
            "engine.barrier_wait_share",
            ratio(barrier.sum as f64, RANKS as f64 * wall_ns),
        ),
        (
            "transform.encode_share",
            ratio(encode.sum as f64, cores * wall_ns),
        ),
        ("transform.encode_p50_us", encode.quantile_ns(0.50) / 1e3),
        (
            "transform.decode_share",
            ratio(decode.sum as f64, cores * restart_wall * 1e9),
        ),
        (
            "transform.dedup_hit_share",
            ratio(d(|s| s.dedup_hits), d(|s| s.chunks_sealed)),
        ),
        (
            "transform.compress_ratio",
            // Payloads of a snapshot mount land in the content store and
            // are counted there; the log keeps only reference records.
            ratio(
                d(|s| s.bytes_logical),
                d(|s| s.bytes_stored) + d(|s| s.snapshot_bytes),
            ),
        ),
        ("transform.lz_encode_mibs", t.probes.lz_encode_mibs),
        ("transform.lz_decode_mibs", t.probes.lz_decode_mibs),
        ("transform.hash_mibs", t.probes.hash_mibs),
        ("transform.checksum_mibs", t.probes.checksum_mibs),
        ("transform.dedup_lookup_ns", t.probes.dedup_lookup_ns),
        ("snapshot.seal_p50_ms", seal.quantile_ns(0.50) / 1e6),
        ("snapshot.gc_pause_ms", p.gc.pause.as_secs_f64() * 1e3),
        ("snapshot.gc_reclaimed_chunks", p.gc.reclaimed_chunks as f64),
        ("snapshot.cas_files", p.cas_files as f64),
        (
            "snapshot.epoch_stored_share",
            ratio(d(|s| s.snapshot_bytes) / e, warmup_snapshot_bytes),
        ),
        (
            "tiered.drain_efficiency",
            p.spec
                .device_mibs
                .filter(|_| tiered_stack)
                .map_or(0.0, |dev| durable_mibs / dev),
        ),
        (
            "tiered.ack_gap_share",
            if tiered_stack {
                1.0 - ratio(ack_wall, wall)
            } else {
                0.0
            },
        ),
        (
            "tiered.write_through_share",
            tier.map_or(0.0, |(drain, through)| ratio(through, drain + through)),
        ),
        ("tiered.drain_ops", tier.map_or(0.0, |(drain, _)| drain / e)),
        (
            "tiered.drain_copy_p50_ms",
            drain_copy.quantile_ns(0.50) / 1e6,
        ),
        (
            "tiered.drain_copy_p99_ms",
            drain_copy.quantile_ns(0.99) / 1e6,
        ),
        ("tiered.drain_wait_ms", drain_wait.sum as f64 / 1e6 / e),
        (
            "tiered.durable_ops",
            if tiered_stack {
                durable_ckpt.write_ops as f64 / e
            } else {
                0.0
            },
        ),
        (
            "tiered.durable_seq_share",
            ratio(
                durable_ckpt.seq_writes as f64,
                durable_ckpt.write_ops as f64,
            ),
        ),
        (
            "tiered.durable_bytes_per_logical",
            ratio(durable_ckpt.write_bytes as f64, e * logical),
        ),
        (
            "tiered.fast_reread_bytes_per_logical",
            if tiered_stack {
                ratio(near_ckpt.read_bytes as f64, e * logical)
            } else {
                0.0
            },
        ),
        ("local.write_ops", near_ckpt.write_ops as f64 / e),
        (
            "local.write_bytes_per_logical",
            ratio(near_ckpt.write_bytes as f64, e * logical),
        ),
        ("local.busy_share", ratio(near_busy, wall_ns)),
        ("local.read_ops", ratio(restart_reads as f64, rounds)),
        ("local.write_aligned_mibs", t.probes.write_aligned_mibs),
        ("local.write_framed_mibs", t.probes.write_framed_mibs),
        ("local.read_mibs", t.probes.read_mibs),
        (
            "local.direct_available",
            f64::from(u8::from(host::direct_available(data_parent))),
        ),
        ("prefetch.hit_share", ratio(hits, hits + misses)),
        ("prefetch.wasted_share", ratio(wasted, issued)),
        ("prefetch.fill_p50_ms", fill.quantile_ns(0.50) / 1e6),
        ("prefetch.read_hit_p50_us", hit.quantile_ns(0.50) / 1e3),
        ("prefetch.read_miss_p50_us", miss.quantile_ns(0.50) / 1e3),
        (
            "prefetch.via_crfs_over_direct",
            ratio(median(&p.restart_s), median(&t.direct_s)),
        ),
        (
            "prefetch.strided_mibs",
            t.strided_s.map_or(0.0, |s| mib / s),
        ),
        ("fsck.repair_s", recover(|r| r.repair_s)),
        ("fsck.rescan_s", recover(|r| r.rescan_s)),
        ("fsck.checked_mibs", recover(|r| r.store_bytes as f64) / MIB),
        ("fsck.files", recover(|r| r.files as f64)),
        ("fsck.damage_found", recover(|r| r.damage as f64)),
        ("fsck.redrained_files", recover(|r| r.redrained as f64)),
        ("fsck.pre_gc_orphaned_chunks", t.pre_gc_orphans as f64),
        ("crash.ops_refused", p.crash_ops_refused as f64),
        ("crash.wrong_byte_restarts", p.wrong_byte_restarts as f64),
        ("proc.rss_growth_mib", p.rss_hwm_mib - p.rss_after_gen_mib),
        ("proc.cpu_user_s", p.cpu_user_s),
        ("proc.cpu_sys_s", p.cpu_sys_s),
        (
            "harness.trace_overhead_share",
            ratio(traced_epoch_s, untraced_epoch_s) - 1.0,
        ),
        ("harness.budget_unaccounted_share", budget.unaccounted_share),
        ("harness.spans", t.spans.len() as f64),
        ("harness.epochs", e),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain([&OPS_FAILED_SHARE])
        {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"
            && d.unit == "s"
            && d.better == Better::Lower
            && END_TO_END.iter().all(|o| o.bound <= d.bound)));
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// registry's workloads and metrics, with the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = host::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let v = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            v[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                        m["better"].as_str().unwrap().to_string(),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect()
        };
        let want = |defs: &[Def], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.name().to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(&END_TO_END, true));
        assert_eq!(listed("per_layer"), want(&PER_LAYER, false));
        let names: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(v["paths"][0].as_str(), Some("benchmark"));
    }

    #[test]
    fn dist_windows_subtract_and_add() {
        let h = |buckets: &[(u64, u64)]| HistogramSnapshot {
            count: buckets.iter().map(|b| b.1).sum(),
            sum: buckets.iter().map(|b| b.0 * b.1).sum(),
            buckets: buckets.to_vec(),
            ..HistogramSnapshot::default()
        };
        let before = h(&[(10, 5)]);
        let after = h(&[(10, 6), (1000, 9)]);
        let w = Dist::of(&after).since(&before);
        assert_eq!(w.count, 10);
        assert_eq!(w.sum, 9010);
        assert_eq!(w.quantile_ns(0.10), 10.0);
        assert_eq!(w.quantile_ns(0.50), 1000.0);
        let mut both = Dist::default();
        both.add(&before);
        both.add(&after);
        assert_eq!(both.count, 20);
        assert_eq!(both.quantile_ns(0.50), 10.0);
        assert_eq!(Dist::default().quantile_ns(0.5), 0.0);
    }
}
