#!/bin/sh
# Fails when the workspace's Rust source outgrows its committed budget.
#
# Counts the lines of every *.rs file outside target/ directories and
# outside benchmark/ (the repository benchmark is a package of its own).
# The paper's claim is that the mechanism is lightweight (ROADMAP item
# 3): code that grows the count past the ceiling either replaces
# something, or raises the ceiling in the same change and says why.
set -eu

CEILING=43000

cd "$(dirname "$0")/.."
lines=$(find . -name '*.rs' -not -path '*/target/*' -not -path './benchmark/*' -print0 |
    xargs -0 cat | wc -l)
echo "Rust lines outside target/ and benchmark/: $lines (ceiling $CEILING)"
if [ "$lines" -gt "$CEILING" ]; then
    echo "over budget by $((lines - CEILING)) lines" >&2
    exit 1
fi
