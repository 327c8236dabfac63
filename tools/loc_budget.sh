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
# virtual-time table and `simkit::sync::Barrier`.)
#
# Also counts `unsafe` blocks, impls and fns in the same tree minus
# crates/shims/ (stand-ins for crates.io, not the product). The budget
# is what `crfs-core/src/ring.rs` needs; a new site anywhere else
# either replaces one of those or argues for a higher number here.
set -eu

CEILING=42400
UNSAFE_CEILING=4

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
