#!/usr/bin/env python3
"""/v1 API smoke over a live owql-server (`scripts/ci.sh server-smoke`).

Drives real HTTP against a running serve example and schema-checks the
versioned surface end to end:

1. `GET /v1/healthz` (liveness) and `GET /v1/healthz?ready=1`
   (readiness) answer with status/ready/epoch;
2. `POST /v1/query` with a JSON envelope returns the success envelope
   (`epoch`, `cache_hit`, `count`, `mappings`) and honours body-borne
   opts (`trace: true` yields a profile);
3. error paths all share the unified envelope: a pattern parse failure
   carries `code: "parse_error"` plus a `span` with offset/line/column,
   malformed JSON is `bad_request`, a wrong method is
   `method_not_allowed`, an unknown path is `not_found`;
4. `POST /v1/explain` and `POST /v1/lint` answer with a plan and
   diagnostics respectively;
5. the retired pre-`/v1` paths answer `404 not_found` in the envelope
   like any unknown path, with no `Deprecation`/`Link` header.

Usage: scripts/v1_smoke.py HOST:PORT
"""

import http.client
import json
import sys

PATTERN = "((?x, knows, ?y) AND (?y, knows, ?z))"
BROKEN = "((?x, knows"
NOT_WELL_DESIGNED = "((?X, a, Chile) AND ((?Y, a, Chile) OPT (?Y, b, ?X)))"


def request(addr, method, target, body=""):
    conn = http.client.HTTPConnection(addr, timeout=30)
    conn.request(method, target, body=body or None)
    resp = conn.getresponse()
    payload = resp.read().decode()
    headers = {k.lower(): v for k, v in resp.getheaders()}
    conn.close()
    return resp.status, headers, payload


def check(cond, message):
    if not cond:
        print(f"v1 smoke FAILED: {message}")
        sys.exit(1)


def check_error_envelope(payload, code, context):
    doc = json.loads(payload)
    err = doc.get("error")
    check(isinstance(err, dict), f"{context}: no error envelope in {payload!r}")
    check(
        err.get("code") == code,
        f"{context}: code {err.get('code')!r} != {code!r}",
    )
    check(err.get("message"), f"{context}: empty error message")
    return err


def main(addr):
    # --- health --------------------------------------------------------
    status, _, payload = request(addr, "GET", "/v1/healthz")
    check(status == 200, f"/v1/healthz returned {status}")
    doc = json.loads(payload)
    check(doc.get("status") == "ok", f"/v1/healthz status: {payload!r}")
    check("epoch" in doc, f"/v1/healthz carries no epoch: {payload!r}")
    check(doc.get("ready") is True, f"/v1/healthz not ready: {payload!r}")

    status, _, payload = request(addr, "GET", "/v1/healthz?ready=1")
    check(status == 200, f"/v1/healthz?ready=1 returned {status}: {payload!r}")

    # --- query success envelope ---------------------------------------
    body = json.dumps({"pattern": PATTERN})
    status, _, payload = request(addr, "POST", "/v1/query", body)
    check(status == 200, f"/v1/query returned {status}: {payload!r}")
    doc = json.loads(payload)
    for key in ("epoch", "cache_hit", "count", "mappings"):
        check(key in doc, f"/v1/query success envelope misses {key!r}: {payload!r}")
    check(
        doc["count"] == len(doc["mappings"]),
        f"count {doc['count']} != len(mappings) {len(doc['mappings'])}",
    )

    # Opts ride in the body; trace=true yields a profile section.
    body = json.dumps({"pattern": PATTERN, "opts": {"trace": True, "cache": False}})
    status, _, payload = request(addr, "POST", "/v1/query", body)
    check(status == 200, f"traced /v1/query returned {status}: {payload!r}")
    check("profile" in json.loads(payload), f"trace=true yielded no profile: {payload!r}")

    # --- unified error envelope ---------------------------------------
    body = json.dumps({"pattern": BROKEN})
    status, _, payload = request(addr, "POST", "/v1/query", body)
    check(status == 400, f"broken pattern returned {status}")
    err = check_error_envelope(payload, "parse_error", "broken pattern")
    span = err.get("span")
    check(isinstance(span, dict), f"parse_error carries no span: {payload!r}")
    for key in ("offset", "line", "column"):
        check(key in span, f"parse_error span misses {key!r}: {payload!r}")

    status, _, payload = request(addr, "POST", "/v1/query", "not json")
    check(status == 400, f"malformed JSON returned {status}")
    check_error_envelope(payload, "bad_request", "malformed JSON")

    status, _, payload = request(addr, "GET", "/v1/query")
    check(status == 405, f"GET /v1/query returned {status}")
    check_error_envelope(payload, "method_not_allowed", "GET /v1/query")

    status, _, payload = request(addr, "GET", "/v1/nope")
    check(status == 404, f"GET /v1/nope returned {status}")
    check_error_envelope(payload, "not_found", "GET /v1/nope")

    # --- explain / lint ------------------------------------------------
    body = json.dumps({"pattern": PATTERN})
    status, _, payload = request(addr, "POST", "/v1/explain", body)
    check(status == 200, f"/v1/explain returned {status}: {payload!r}")
    doc = json.loads(payload)
    check("plan" in doc, f"/v1/explain carries no plan: {payload!r}")

    body = json.dumps({"pattern": NOT_WELL_DESIGNED})
    status, _, payload = request(addr, "POST", "/v1/lint", body)
    check(status == 200, f"/v1/lint returned {status}: {payload!r}")
    check(
        "WD001" in payload,
        f"/v1/lint missed the well-designedness violation: {payload!r}",
    )

    # --- retired paths are plain 404s ----------------------------------
    retired = 0
    for method, target, body in [
        ("GET", "/healthz", ""),
        ("POST", "/query", PATTERN),
        ("POST", "/explain", PATTERN),
        ("POST", "/lint", PATTERN),
    ]:
        status, headers, payload = request(addr, method, target, body)
        check(status == 404, f"retired {method} {target} returned {status}: {payload!r}")
        check_error_envelope(payload, "not_found", f"retired {method} {target}")
        check(
            "deprecation" not in headers and "link" not in headers,
            f"retired {method} {target} still carries a Deprecation/Link header: {headers}",
        )
        retired += 1

    status, _, payload = request(addr, "POST", "/metrics")
    check(status == 405, f"POST /metrics returned {status}")
    check_error_envelope(payload, "method_not_allowed", "POST /metrics")

    print(
        f"v1 smoke: success + error envelopes schema-clean, "
        f"{retired} retired paths answer 404 not_found"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    main(sys.argv[1])
