#!/usr/bin/env python3
"""Observability smoke over a live owql-server (`scripts/ci.sh obs-smoke`).

Drives real HTTP against a running serve example:

1. issues N traced, uncached queries plus one query with
   `"slow_ms": 0` (threshold zero => every query is "slow"), the CI
   injection hook for the slow-query ring buffer;
2. scrapes `GET /metrics` (Prometheus text) and schema-checks it: the
   content type, `# TYPE`/`# HELP` pairs for the core families,
   cumulative bucket monotonicity ending at `_count`, exactly one
   `+Inf` bucket per histogram, and counter values consistent with the
   queries just sent;
3. scrapes `GET /metrics?format=json` and asserts the hub section
   carries histograms and that the injected slow query was captured
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


def check_histogram(text, name):
    """Cumulative `le` buckets must be monotone, end in one `+Inf`, and
    agree with the `_count` sample."""
    buckets = samples(text, name + "_bucket")
    check(buckets, f"{name} has no buckets")
    values = [v for _, v in buckets]
    check(
        all(a <= b for a, b in zip(values, values[1:])),
        f"{name} buckets are not cumulative-monotone: {values}",
    )
    inf = [(k, v) for k, v in buckets if 'le="+Inf"' in k]
    check(len(inf) == 1, f"{name} must expose exactly one +Inf bucket")
    count = samples(text, name + "_count")
    check(count, f"{name} has no _count sample")
    check(
        inf[0][1] == count[0][1],
        f"{name} +Inf bucket {inf[0][1]} != _count {count[0][1]}",
    )
    return count[0][1]


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
    latency_count = check_histogram(text, "owql_query_latency_seconds")
    check(
        latency_count == queries_total,
        f"latency _count {latency_count} != owql_queries_total {queries_total}",
    )
    check_histogram(text, "owql_wal_fsync_seconds")
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
    hub = doc.get("hub")
    check(hub is not None, "JSON /metrics has no hub section")
    check(
        "histogram_buckets" in json.dumps(hub["query_latency"]),
        "hub query_latency carries no histogram_buckets",
    )
    slow = hub.get("slow_queries", [])
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
