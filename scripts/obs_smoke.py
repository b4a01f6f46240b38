#!/usr/bin/env python3
"""Observability smoke over a live owql-server (`scripts/ci.sh obs-smoke`).

Drives real HTTP against a running serve example:

1. issues N traced, uncached queries plus one query with
   `"slow_ms": 0` (threshold zero => every query is "slow"), the CI
   injection hook for the slow-query ring buffer;
2. scrapes `GET /metrics` (Prometheus text) and schema-checks it: the
   content type, `# TYPE`/`# HELP` pairs for the core families, and for
   every series of every histogram family (each labelled
   `owql_operator_latency_seconds{op=...}` included) cumulative bucket
   monotonicity ending in exactly one `+Inf` bucket equal to its
   `_count`, plus counter values consistent with the queries just sent;
3. scrapes `GET /metrics?format=json` — the same family list keyed by
   family name, plus `"slow_queries"` — and asserts every text family
   is a JSON key of the same type, every histogram sample's `+Inf`
   bucket equals its `count`, and the injected slow query was captured
   with its pattern text, plan, and per-operator totals.

Usage: scripts/obs_smoke.py HOST:PORT
"""

import http.client
import json
import sys

QUERY = "((?x, knows, ?y) AND (?y, knows, ?z))"
SLOW_QUERY = "((?a, knows, ?b) OPT (?b, age, ?v))"
N_QUERIES = 5

FAMILIES = {
    "owql_queries_total": "counter",
    "owql_query_latency_seconds": "histogram",
    "owql_operator_latency_seconds": "histogram",
    "owql_columnar_runs_total": "counter",
    "owql_slow_queries_total": "counter",
    "owql_server_accepted_total": "counter",
    "owql_server_responses_total": "counter",
    "owql_store_epoch": "gauge",
    "owql_store_triples": "gauge",
    "owql_store_index_bytes": "gauge",
}


def request(addr, method, target, body=""):
    conn = http.client.HTTPConnection(addr, timeout=30)
    conn.request(method, target, body=body or None)
    resp = conn.getresponse()
    payload = resp.read().decode()
    content_type = resp.getheader("Content-Type", "")
    conn.close()
    return resp.status, content_type, payload


def query(addr, pattern, **opts):
    """`POST /v1/query` with `pattern` under the given `opts`."""
    body = json.dumps({"pattern": pattern, "opts": opts})
    status, _, payload = request(addr, "POST", "/v1/query", body)
    return status, payload


def check(cond, message):
    if not cond:
        print(f"obs smoke FAILED: {message}")
        sys.exit(1)


def samples(text, name):
    """All `name{...} value` / `name value` sample values, in order."""
    out = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith(name) and line[len(name)] in ("{", " "):
            out.append((line.rsplit(" ", 1)[0], float(line.rsplit(" ", 1)[1])))
    return out


def labels(key, name):
    """The label set of sample `key` of metric `name`, without braces."""
    rest = key[len(name):]
    return rest[1:-1] if rest.startswith("{") else ""


def check_histogram(text, name):
    """Every series of histogram `name`: cumulative `le` buckets must be
    monotone and end in exactly one `+Inf` bucket that equals the
    series' `_count` sample. Returns the summed count."""
    series = {}
    for key, value in samples(text, name + "_bucket"):
        rest, le = labels(key, name + "_bucket").rsplit('le="', 1)
        series.setdefault(rest.rstrip(","), []).append((le[:-1], value))
    counts = {labels(k, name + "_count"): v for k, v in samples(text, name + "_count")}
    check(
        set(series) == set(counts),
        f"{name}: bucket series {sorted(series)} != _count series {sorted(counts)}",
    )
    for label, buckets in series.items():
        values = [v for _, v in buckets]
        check(
            all(a <= b for a, b in zip(values, values[1:])),
            f"{name}{{{label}}} buckets are not cumulative-monotone: {values}",
        )
        infs = [le for le, _ in buckets if le == "+Inf"]
        check(
            len(infs) == 1 and buckets[-1][0] == "+Inf",
            f"{name}{{{label}}} must end in exactly one +Inf bucket",
        )
        check(
            values[-1] == counts[label],
            f"{name}{{{label}}} +Inf bucket {values[-1]} != _count {counts[label]}",
        )
    return sum(counts.values())


def main(addr):
    status, _, body = request(addr, "GET", "/v1/healthz")
    check(status == 200, f"/v1/healthz returned {status}")

    for _ in range(N_QUERIES):
        status, body = query(addr, QUERY, cache=False, trace=True)
        check(status == 200, f"query returned {status}: {body}")
    # Injection: slow_ms=0 makes the threshold zero, so this one query
    # is guaranteed to land in the slow-query ring buffer.
    status, body = query(addr, SLOW_QUERY, cache=False, slow_ms=0)
    check(status == 200, f"slow_ms=0 query returned {status}: {body}")

    # --- Prometheus text exposition ------------------------------------
    status, content_type, text = request(addr, "GET", "/metrics")
    check(status == 200, f"/metrics returned {status}")
    check(
        content_type == "text/plain; version=0.0.4",
        f"wrong /metrics content type: {content_type!r}",
    )
    for family, kind in FAMILIES.items():
        check(f"# TYPE {family} {kind}" in text, f"missing # TYPE for {family}")
        check(f"# HELP {family} " in text, f"missing # HELP for {family}")

    queries_total = samples(text, "owql_queries_total")[0][1]
    check(
        queries_total >= N_QUERIES + 1,
        f"owql_queries_total {queries_total} < {N_QUERIES + 1} queries sent",
    )
    types = dict(
        line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE ")
    )
    for family, kind in types.items():
        if kind == "histogram":
            check_histogram(text, family)
    latency_count = check_histogram(text, "owql_query_latency_seconds")
    check(
        latency_count == queries_total,
        f"latency _count {latency_count} != owql_queries_total {queries_total}",
    )
    check(
        samples(text, "owql_slow_queries_total")[0][1] >= 1,
        "slow_ms=0 injection did not increment owql_slow_queries_total",
    )
    ops = samples(text, "owql_operator_latency_seconds_count")
    check(
        any(v > 0 for _, v in ops),
        "traced queries fed no operator latency histogram",
    )

    # --- JSON exposition ----------------------------------------------
    status, content_type, text = request(addr, "GET", "/metrics?format=json")
    check(status == 200, f"/metrics?format=json returned {status}")
    check(
        content_type == "application/json",
        f"wrong JSON content type: {content_type!r}",
    )
    doc = json.loads(text)
    for family, kind in types.items():
        check(family in doc, f"JSON /metrics has no {family} family")
        check(
            doc[family]["type"] == kind,
            f"JSON {family} type {doc[family]['type']!r} != text type {kind!r}",
        )
        if kind != "histogram":
            continue
        for sample in doc[family]["samples"]:
            inf = sample["buckets"][-1]
            check(
                inf["le"] is None and inf["cumulative"] == sample["count"],
                f"JSON {family} {sample['labels']}: +Inf bucket {inf} != count {sample['count']}",
            )
    latency = doc["owql_query_latency_seconds"]["samples"][0]
    check(
        latency["count"] >= latency_count,
        f"JSON latency count {latency['count']} < text count {latency_count}",
    )
    slow = doc.get("slow_queries", [])
    check(slow, "slow-query ring buffer is empty after slow_ms=0 injection")
    captured = slow[-1]
    check(
        "OPT" in captured["query"],
        f"captured slow query is not the injected one: {captured['query']!r}",
    )
    check(captured["plan"], "captured slow query has no plan")
    print(
        f"obs smoke: {int(queries_total)} queries observed, "
        f"{len(slow)} slow-quer{'y' if len(slow) == 1 else 'ies'} captured, "
        "both /metrics formats schema-clean"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    main(sys.argv[1])
