#!/usr/bin/env python3
"""Gate CI on a BENCH_*.json headline.

Usage:
    bench_gate.py FILE CHECK [CHECK ...]

FILE is a bench artifact (e.g. BENCH_compress.json) whose top-level
"headline" object holds the numbers the experiment is gated on. Each
CHECK is `key OP value` written without spaces, e.g.:

    bench_gate.py BENCH_engine.json 'scaling>=1.5' 'verify_ok==true'

Supported OPs: ==  !=  <=  >=  <  >. Values are parsed as JSON, so
booleans (`true`), integers, and floats all work. Keys may be dotted
paths into nested headline objects, e.g.
`write_issue_to_complete.p99<=50000000`. The full headline is printed
first (nested objects flattened to dotted keys) so the run log carries
the numbers even when every gate passes; the first failing check exits
1 with both sides of the comparison.
"""

import json
import operator
import sys

# Two-char ops first: "<=" must not lex as "<" + "=value".
OPS = [
    ("==", operator.eq),
    ("!=", operator.ne),
    ("<=", operator.le),
    (">=", operator.ge),
    ("<", operator.lt),
    (">", operator.gt),
]


def parse_check(check):
    for tok, fn in OPS:
        if tok in check:
            key, raw = check.split(tok, 1)
            try:
                want = json.loads(raw)
            except json.JSONDecodeError:
                sys.exit(f"bench_gate: bad value {raw!r} in check {check!r}")
            return key.strip(), tok, fn, want
    sys.exit(f"bench_gate: no operator in check {check!r} (use == != <= >= < >)")


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else json.dumps(v)


def lookup(head, key):
    """Resolve a dotted key path; returns (found, value)."""
    node = head
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def flat_items(head, prefix=""):
    for key, value in head.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from flat_items(value, f"{name}.")
        else:
            yield name, value


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__.strip())
    path, checks = argv[1], argv[2:]
    try:
        with open(path) as f:
            head = json.load(f)["headline"]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        sys.exit(f"bench_gate: cannot read headline from {path}: {e}")

    print(f"{path} headline:")
    for key, value in flat_items(head):
        print(f"  {key} = {fmt(value)}")

    failed = False
    for check in checks:
        key, tok, fn, want = parse_check(check)
        found, got = lookup(head, key)
        if not found:
            print(f"FAIL  {check}: no such headline key {key!r}")
            failed = True
            continue
        if fn(got, want):
            print(f"ok    {key} = {fmt(got)}  ({check})")
        else:
            print(f"FAIL  {key} = {fmt(got)}, want {tok} {fmt(want)}")
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
