#!/bin/sh
# Fails when the workspace's Rust source outgrows its committed budget.
#
# Counts the lines of every *.rs file outside target/ directories and
# outside benchmark/ (the repository benchmark is a package of its own).
# The paper's claim is that the mechanism is lightweight (ROADMAP item
# 3): code that grows the count past the ceiling either replaces
# something, or raises the ceiling in the same change and says why.
# (43,000 -> 43,300 with issue 23: +259 lines, all of them tests — the
# alignment, lazy-mount, concurrent-writer, path-count, drain-reuse and
# copies-per-byte checks; product lines of crfs-core did not grow.
# 43,300 -> 43,800 with issue 24: +503 lines, all of them tests — the
# rewrite state machine, the differential against MemBackend and the
# raw / framed crash-cut sweeps; non-test lines of crfs-core/src went
# 14,440 -> 14,438, paid for by the second host-directory backend,
# its shared `HostDir` helper and `with_extent`.
# 43,800 -> 44,200 with issue 25: +366 lines, 274 of them tests — the
# read-count, window, big-raw-file, slow-store overlap, late-found
# directory and held-read checks with their test-local read probe;
# non-test lines of crfs-core/src went +92, the read window, the
# growing pool and its parking, net of the spin loop, the per-path
# `process` and the serial tier walk they replace.
# 44,200 -> 42,400 when CrfsSim was cut to the write path: the
# restart read window, transform/dedup, snapshot, power-cut and tiered
# drain mirrors went with their tests, `ReadCostParams`, `exp compress`'s
# virtual-time table and `simkit::sync::Barrier`.
# 42,400 -> 41,000 when `exp restart`, `chunksweep`, `snapshot` and
# `tiered` went (the benchmark's workloads answer them), with their
# `real.rs` cells, renderers and bench tests, `crfs-stat`'s tier section,
# `TierCounters::named/to_value` and `ThrottleParams::ssd`; the two
# bench crash sweeps became the tier-1 `tests/crash_cuts.rs`.
# 41,000 -> 41,500 with the asynchronous restart read: +555 lines, 214
# of them tests — the read twins of the engine's write-throttle tests,
# the FaultyBackend async-read checks, the failed tiered rename and the
# RpcStore async read; product lines +341: `begin_read_at` with its
# forwards (trait, macro, Faulty and its `FailReadsAfter`, Tiered,
# Throttled), RpcStore's async read, the locate / read / finish split
# of the frame fetch and the fill's two descriptor states, net of
# hand-written forwarding folded into the macros and the unused
# `RpcStoreParams::scaled` / `mem_rpc_store`.
# 41,500 stays with the tiered drain as one sans-IO `Drain`: 41,481 ->
# 41,479, which rounds up to the same hundred. Non-test lines of
# `backend/tiered.rs` went 1,252 -> 1,123: `TieredParams`,
# `CrfsConfig::tiered_params`, `TieredBackend::new` / `params` /
# `resident_bytes` / `fast` / `durable`, eviction and its open-writer
# registry, read-miss promotion, `TierWriteSink` with the async
# fast-tier forward, and the atomics and side mutexes the machine
# replaces; the thread-free device-order test and the seeded `Drain`
# walk take their place in the tests.)
# 41,500 -> 41,700 with the one-pass tiered fsck: 41,479 -> 41,690,
# +211 lines, 86 of them tests (each tier copy read once, one checker
# per core on a zero-latency store, the orphan pass before the tier
# compare, the probe's thread column). Product lines of `fsck.rs` +123,
# a third of them docs: the checker-owned window / frame / durable /
# copy buffers with the window's own `View`, the compare split into
# `tier_damage` / `tier_bytes_equal` / `settle_tier` so findings settle
# after the orphan pass, the fast-tier staging sweep as a plain listing,
# and the read-wait gate on the pool's growth, net of the second sweep
# over the fast tier they replace.
# 41,700 -> 41,500 with the lock-free ring retired: 41,690 -> 41,403.
# `ring.rs` went whole (254 lines: Vyukov's queue, `CachePadded`, its
# four tests and all four `unsafe` sites); the pool's sharded rings,
# cursors, gate and atomics became one mutex-guarded free list
# (`pool.rs` -73, one shard test gone), and the engine's three rings
# and four gates became a mutex-guarded slab and two index queues
# (`engine/ring.rs` +38: the new four-submitter test on a
# two-descriptor slab is +40).
# 41,500 -> 41,800 with demand-first restart reads and a window that
# follows the store: 41,403 -> 41,728, +325 lines, 236 of them tests —
# the demand, framed-wait, whole-chunk and window-depth checks over the
# engine's gated backend (`engine/ring.rs` +166), the parked-reader
# wake and window unit tests, the adopted-CAS-file sync check, the
# `crfs-stat` read identities. Product
# lines +89: `fs.rs` + `prefetch.rs` +54 (the window, the demand rule
# and the per-slot parking, net of the gate and its proof),
# `read_demand` / `read_window_max` in `stats.rs` +16,
# `resolved_read_window_max` and the config docs +12, the async-fill
# mark in `start_fill` +3, the adoption sync and its doc +4.
# 41,800 -> 42,500 with the seal as fsck's trust boundary: 41,728 ->
# 42,427, +699 lines, 570 of them tests — the content-store crash cuts
# and the sealed / unsealed bit-flip classes (`tests/crash_cuts.rs`
# +254), the trust, header-only-read, pool-wake and header-mismatch
# checks with the probe's in-flight count (`fsck.rs` tests +202), the
# `FsckSummary` shape check (+74), `crfs-fsck --deep` (+30) and the
# bounded thread census (+10). Product lines +129: `fsck.rs` +117 (the
# "Trust" docs, `Payloads`, `trusted_payloads` in JSON and Display,
# the manifests read before the sweep and reused by its checks, the
# vouched-for header and the header-only window, the pool's `Jobs`
# counts under the mutex its condvar waits on), net of the per-manifest
# key lists and the orphan pass's own manifest reads they replace;
# `crfs-fsck` +12 (`--deep`, usage, `trusted_payloads=`).
# 42,500 -> 42,492 when dedup came to mean the content store: 42,427 ->
# 42,492, +65 lines, product lines -88 and test lines +153. Product:
# `transform/mod.rs` -63 (one CAS arm in `encode_chunk`, no index
# registration in `commit`, `TransformCtx` with one optional store and
# no `invalidate_path`), `file.rs` -44 (the ledger is `ChunkAccounting`
# and a parked count under one mutex; the gate, the atomics, the
# "Parking" proof and two accessors only tests called went),
# `dedup.rs` -14, `fs.rs` -6 (five `invalidate_path` calls out, the
# content-store guard in), net of `snapshot/mod.rs` +11 (the store owns
# and seeds its index, content-store origins only), `config.rs` +7 (the
# `snapshots` mirror and its check) and `exp fsck`'s interleaved rounds
# in `bench/src/real.rs` +24. Tests: the degraded-chunk regression
# (`tests/failure_injection.rs` +79), the parked-barrier wake and the
# ledger reads (`file.rs` +47), the content-store guard (`fs.rs` +10),
# the config pair (+9) and the fsck fixtures rebuilt over the content
# store (+18), net of the two `invalidate_path` tests.
#
# Also counts `unsafe` blocks, impls and fns in the same tree minus
# crates/shims/ (stand-ins for crates.io, not the product). The budget
# is zero, and `crfs-core` says `#![forbid(unsafe_code)]`: a site
# anywhere else argues for a higher number here in the change that
# adds it.
set -eu

CEILING=42492
UNSAFE_CEILING=0

cd "$(dirname "$0")/.."
lines=$(find . -name '*.rs' -not -path '*/target/*' -not -path './benchmark/*' -print0 |
    xargs -0 cat | wc -l)
echo "Rust lines outside target/ and benchmark/: $lines (ceiling $CEILING)"
if [ "$lines" -gt "$CEILING" ]; then
    echo "over budget by $((lines - CEILING)) lines" >&2
    exit 1
fi

sites=$(find . -name '*.rs' -not -path '*/target/*' -not -path './benchmark/*' \
    -not -path './crates/shims/*' -print0 |
    xargs -0 grep -hoE 'unsafe[[:space:]]+(\{|impl|fn|trait)' | wc -l)
echo "unsafe sites outside target/, benchmark/ and crates/shims/: $sites (ceiling $UNSAFE_CEILING)"
if [ "$sites" -gt "$UNSAFE_CEILING" ]; then
    echo "over the unsafe budget by $((sites - UNSAFE_CEILING))" >&2
    exit 1
fi
