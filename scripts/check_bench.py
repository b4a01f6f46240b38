#!/usr/bin/env python3
"""CI perf gate over the parallel-evaluation benchmark artifact.

Three checks:

1. Static (always): every per-worker speedup recorded in the committed
   artifact must clear MIN_SPEEDUP. A committed file showing a parallel
   width *slower* than sequential (speedup < 1.0x, minus measurement
   tolerance) is a regression that must not be merged.

2. Static (always): the committed tracing overhead — columnar traced
   vs. columnar untraced at 8 workers — must stay within
   MAX_TRACE_OVERHEAD on every gated query. Tracing is meant to be a
   recorder seam over the same execution, not a second engine; a
   committed artifact where tracing costs more than 15% means the
   zero-cost-when-off contract broke.

3. Dynamic (with --fresh): the freshly measured sequential baselines
   must not regress more than MAX_REGRESSION versus the committed
   sequential_ms. Several --fresh files may be given (e.g. two quick
   reruns); the per-query minimum is compared, which keeps scheduler
   noise on loaded CI runners from tripping the gate.

Usage:
    scripts/check_bench.py ARTIFACT [--fresh FRESH.json ...]

Exit code 0 = gate passes, 1 = gate fails, 2 = bad invocation/schema.
"""

import json
import sys

# A committed speedup below this fails the static gate. 0.95 rather
# than 1.0: sub-5% swings are timer noise, anything beyond that is a
# real "parallel is slower" artifact.
MIN_SPEEDUP = 0.95

# Speedups are only gated for queries whose sequential baseline is at
# least this many milliseconds: below it, fixed pool overhead and timer
# granularity dominate and the ratio is not a signal.
MIN_SEQUENTIAL_MS = 1.0

# A fresh sequential baseline more than 25% slower than the committed
# number fails the dynamic gate.
MAX_REGRESSION = 1.25

# Committed columnar-traced runs slower than this multiple of the
# untraced columnar runs fail the static gate. Only applied where the
# untraced baseline clears MIN_TRACE_BASELINE_MS — below that, timer
# granularity makes the ratio meaningless.
MAX_TRACE_OVERHEAD = 1.15
MIN_TRACE_BASELINE_MS = 1.0


def rows(doc):
    """Flattens an artifact into {(query, people): query-record}."""
    out = {}
    for run in doc["runs"]:
        for q in run["queries"]:
            out[(q["query"], run["people"])] = q
    return out


def gated(q):
    return q["sequential_ms"] >= MIN_SEQUENTIAL_MS


def static_gate(artifact):
    failures = []
    for (query, people), q in rows(artifact).items():
        if not gated(q):
            continue
        for w in q["workers"]:
            if w["speedup"] < MIN_SPEEDUP:
                failures.append(
                    f"  {query}@{people} w{w['workers']}: committed speedup "
                    f"{w['speedup']:.3f}x < {MIN_SPEEDUP}x"
                )
    return failures


def trace_gated(q):
    return q.get("columnar_untraced_ms", 0.0) >= MIN_TRACE_BASELINE_MS


def trace_gate(artifact):
    failures = []
    for (query, people), q in rows(artifact).items():
        if not trace_gated(q):
            continue
        overhead = q["trace_overhead"]
        if overhead > MAX_TRACE_OVERHEAD:
            failures.append(
                f"  {query}@{people}: committed trace overhead {overhead:.3f}x > "
                f"{MAX_TRACE_OVERHEAD}x (untraced {q['columnar_untraced_ms']:.3f}ms, "
                f"traced {q['columnar_traced_ms']:.3f}ms)"
            )
    return failures


def dynamic_gate(artifact, fresh_docs):
    committed = rows(artifact)
    # Per-query minimum across reruns: the best a run achieved is the
    # honest capability number; maxima embed scheduler hiccups.
    best = {}
    for doc in fresh_docs:
        for key, q in rows(doc).items():
            ms = q["sequential_ms"]
            if key not in best or ms < best[key]:
                best[key] = ms
    failures = []
    for key, q in committed.items():
        if key not in best:
            failures.append(f"  {key[0]}@{key[1]}: missing from fresh rerun")
            continue
        limit = q["sequential_ms"] * MAX_REGRESSION
        if best[key] > limit:
            failures.append(
                f"  {key[0]}@{key[1]}: fresh sequential {best[key]:.3f}ms > "
                f"{limit:.3f}ms (committed {q['sequential_ms']:.3f}ms x {MAX_REGRESSION})"
            )
    return failures


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 2
    artifact_path = argv[1]
    fresh_paths = []
    it = iter(argv[2:])
    for arg in it:
        if arg == "--fresh":
            try:
                fresh_paths.append(next(it))
            except StopIteration:
                print("--fresh needs a file argument")
                return 2
        else:
            print(f"unknown argument: {arg}")
            return 2

    try:
        artifact = json.load(open(artifact_path))
        fresh_docs = [json.load(open(p)) for p in fresh_paths]
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read artifact: {e}")
        return 2

    failures = static_gate(artifact) + trace_gate(artifact)
    if fresh_docs:
        failures += dynamic_gate(artifact, fresh_docs)

    if failures:
        print(f"bench gate FAILED ({artifact_path}):")
        print("\n".join(failures))
        return 1
    checked = sum(len(q["workers"]) for q in rows(artifact).values() if gated(q))
    traced = sum(1 for q in rows(artifact).values() if trace_gated(q))
    print(
        f"bench gate OK: {checked} committed speedups >= {MIN_SPEEDUP}x, "
        f"{traced} trace overheads <= {MAX_TRACE_OVERHEAD}x"
        + (
            f", sequential baselines within {MAX_REGRESSION}x of committed"
            if fresh_docs
            else " (static only; no --fresh rerun given)"
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
