#!/usr/bin/env bash
# Single source of truth for CI. Every job in .github/workflows/ci.yml
# is a thin `scripts/ci.sh <stage>` invocation, so the hosted pipeline
# and this local mirror cannot drift: a green `scripts/ci.sh` means a
# green PR.
#
#   scripts/ci.sh                  # every stage, in CI order
#   scripts/ci.sh --fast           # cheap stages only (skip bench/server/persist smokes)
#   scripts/ci.sh <stage> [...]    # just the named stage(s)
#
# Stages:
#   check         fmt + clippy + release build + tests
#   determinism   width-1 vs width-8 full-suite output diff
#   differential  evaluator suites against the reference evaluator
#   lint-smoke    analyzer over the clean + golden pattern corpora
#   bench-smoke   owql_bench run --quick --trace (all five workloads, answers checked) + profile schema
#   server-smoke  HTTP boot, live /v1 smoke, owql_bench log_mix gate, removed-API sweep
#   obs-smoke     live server scrape: Prometheus + JSON /metrics, slow-query injection
#   persist-smoke durable example, kill -9 recovery and failed-append tests, proptest_persist
#   doc           rustdoc with -D warnings
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

step() { printf '\n==> %s\n' "$*"; }

stage_check() {
  step "fmt"
  cargo fmt --all --check

  step "clippy (all targets, -D warnings)"
  cargo clippy --workspace --all-targets -- -D warnings

  step "build (release)"
  cargo build --workspace --release

  step "test"
  cargo test --workspace -q
}

stage_determinism() {
  step "determinism: width 1 vs width 8"
  norm() { grep -E '^(test result|running)' "$1" | sed -E 's/; finished in [0-9.]+s//' | sort; }
  OWQL_THREADS=1 cargo test --workspace -q 2>&1 | tee /tmp/owql_ci_t1.log >/dev/null
  OWQL_THREADS=8 cargo test --workspace -q 2>&1 | tee /tmp/owql_ci_t8.log >/dev/null
  norm /tmp/owql_ci_t1.log > /tmp/owql_ci_t1.norm
  norm /tmp/owql_ci_t8.log > /tmp/owql_ci_t8.norm
  diff -u /tmp/owql_ci_t1.norm /tmp/owql_ci_t8.norm
  echo "width-1 and width-8 test outputs identical"
}

stage_differential() {
  step "differential: the one evaluator vs the reference evaluator"
  # There is one production evaluator and one oracle; these suites hold
  # every store/parallel/pruned configuration of the former to the
  # latter's answers, and integration_properties holds the engine, NS
  # maximality and the union normal form to them on random graphs. One
  # level down, owql-algebra's proptest_id_mapping holds the columnar
  # pair kernel (join, difference, left outer join) to the term-level
  # MappingSet operations the oracle is built from.
  cargo test -q -p owql \
    --test integration_columnar --test integration_store --test integration_parallel \
    --test integration_prune --test integration_properties
  cargo test -q -p owql-algebra
  cargo test -q -p owql-rdf --test proptest_dict
  echo "differential OK"
}

stage_lint_smoke() {
  step "lint-smoke (analyzer over the pattern corpus)"
  cargo build --release -p owql-lint
  target/release/owql-lint --deny warn examples/patterns/*.owql
  set +e
  target/release/owql-lint --deny warn crates/lint/tests/golden/*.owql > /tmp/owql_lint_golden.log
  local rc=$?
  set -e
  [[ "$rc" -eq 1 ]] || { echo "expected --deny warn exit 1 on golden corpus, got $rc"; exit 1; }
  # The semantic dataflow rules must fire on their golden shapes.
  for rule in FL003 UN002 BD001; do
    grep -q "$rule" /tmp/owql_lint_golden.log \
      || { echo "missing $rule diagnostic over the golden corpus"; exit 1; }
  done

  step "source hygiene (no unsafe outside server/src/sys.rs, no unimplemented!/todo!, no retired switch, adapter, inline path, instrument, metrics mirror, plan replay, mirror classifier or second OPT normal form, no second triple index, no second parallelism tier, no unchecked term-id cast, one JSON escaper, no unwrap/expect on the route/render path)"
  if grep -rnE '\bunsafe\s*(\{|fn|impl|trait)' crates/ --include='*.rs' \
      | grep -v 'crates/server/src/sys.rs'; then
    echo "unsafe code outside the audited syscall shim"; exit 1
  fi
  if grep -rnE '\b(unimplemented|todo)!\s*\(' crates/ --include='*.rs' \
      | grep -vE ':[0-9]+:\s*//'; then
    echo "unimplemented!/todo! left in library code"; exit 1
  fi
  # The evaluator switch and its bookkeeping are gone for good. (The
  # names are split so this gate does not match itself.)
  if grep -rnE 'OWQL_COLUMN''AR|with_column''ar|Column''arPath' \
      crates/ tests/ examples/ scripts/; then
    echo "the retired columnar on/off switch reappeared"; exit 1
  fi
  # So are the pre-/v1 adapters with their option parser and the
  # server's inline execution shape. Tests and v1_smoke.py still name
  # the Deprecation header, to assert its absence.
  if grep -rnE 'answer_qu''ery|parse_op''ts|drain_jobs_inl''ine|inline_po''ol' \
      crates/ tests/ examples/ scripts/ \
      || grep -rn 'Deprec''ation' crates/; then
    echo "a retired server adapter or the inline execution shape reappeared"; exit 1
  fi
  # So are the instruments owql_bench superseded (drivers, criterion
  # stub, their artifacts and gate) and the third evaluator.
  if grep -rnE 'criter''ion::|criterion_gr''oup|check_be''nch|parallel_be''nch|store_ch''urn|store_rec''overy|BENCH_''(parallel|persist|store)|structural_e''val' \
      crates/ tests/ examples/ scripts/ .github/; then
    echo "a retired instrument or the structural evaluator reappeared"; exit 1
  fi
  # One telemetry spine: every counter has one home and every format one
  # writer, so the store/persist mirrors, the pool's own counters, the
  # recorder's prune copy and the extra JSON escapers stay gone.
  if grep -rnE 'Store''Obs|Persist''Obs|observe_pers''ist|Exec''Stats|record_pr''unes|push_json_esc''aped|json_st''ring' \
      crates/ tests/ examples/ scripts/; then
    echo "a retired metrics mirror, duplicate counter or JSON escaper reappeared"; exit 1
  fi
  # One planner: join order and estimates come from the columnar
  # walker's plan phase alone, so the term-level replay and the
  # term-level cardinality it read stay gone.
  if grep -rnE 'dels_match''ing|plan::pl''an\(' crates/ tests/ examples/ scripts/ \
      || grep -nE 'fn cardin''ality' crates/rdf/src/index.rs; then
    echo "the term-level plan replay or its cardinality statistic reappeared"; exit 1
  fi
  # One triple index: the term dictionary and the id runs are the whole
  # index, so the term-level index with its six maps, the lookup trait
  # over it, the per-query deletion re-encode and the segment's lookup
  # twin stay gone.
  if grep -rnE 'Graph''Index|Triple''Lookup|del_r''ows|to_graph_in''dex|by_(s''p|p''o|s''o)\b|fn match''ing\b' \
      crates/ tests/ examples/; then
    echo "a second triple index or a term-level pattern lookup reappeared"; exit 1
  fi
  # One copy of the paper's pattern theory: one fragment classifier
  # (owql_lint::classify) and one OPT normal form
  # (owql_algebra::pattern_tree), so the theory crate's mirror
  # classifier, the optimizer's lift loop and the syntactic
  # certainly-bound set stay gone.
  if grep -rnE 'QueryLang''uage|opt_nf_p''ass|certainly_bound_v''ars|fragments::class''ify|rewrite::pattern_t''ree' \
      crates/ tests/ examples/ scripts/; then
    echo "a second fragment classifier, OPT normal form or certainty set reappeared"; exit 1
  fi
  # One parallelism mechanism: the pool fans out UNION disjuncts and
  # the rows of wide spine steps, so the in-process partition tier —
  # its scan source, runtime, counters, families and thread-per-disjunct
  # fan-out — stays gone.
  if grep -rnE 'Shard''Set|Shard''Runtime|Shard''Metrics|run_shar''ded|enable_shar''ding|shard_r''ows|scoped_m''ap|owql_sh''ard' \
      crates/ tests/ examples/; then
    echo "a second parallelism tier reappeared"; exit 1
  fi
  # Half-width ids: narrowing into the id space goes through
  # `TermId::try_from` or the dictionary's capacity check, never a
  # cast that could wrap a term into the unbound id 0.
  if grep -rnE 'as Term''Id\b' crates/ --include='*.rs'; then
    echo "an unchecked cast into the term-id space reappeared"; exit 1
  fi
  if [[ "$(grep -rnF '\\u{:04''x}' crates/ --include='*.rs' | wc -l)" -ne 1 ]]; then
    echo "expected exactly one JSON string escape loop under crates/"; exit 1
  fi
  # Request-path hygiene, first step: routing and rendering answer
  # errors, they do not panic on them (their unit tests may).
  for f in crates/server/src/route.rs crates/server/src/render.rs; do
    if sed '/^mod tests {/,$d' "$f" | grep -nE 'unwrap\(\)|expect\('; then
      echo "unwrap()/expect( on the request path in $f"; exit 1
    fi
  done
  echo "lint smoke OK"
}

stage_bench_smoke() {
  step "bench-smoke (owql_bench run --quick --trace: every workload, answers checked, layer table)"
  # `run` exits non-zero on any failed operation or correctness check;
  # that exit status is the gate. Quick runs are never compared.
  mkdir -p target/ci-bench
  cargo run --release --offline --manifest-path owql_bench/Cargo.toml -- \
    run --quick --trace > target/ci-bench/run.json

  step "profile-smoke (profiled query + schema check)"
  cargo run --release --example profile_query -- target/ci-bench/PROFILE_query.json
  for key in '"profile"' '"operators"' '"ns"' '"pruned_fraction"' '"pool"' \
             '"spans"' '"store"' '"cache_hit_rate"' '"persist"' \
             '"columnar"' '"estimated_rows"' '"prunes"'; do
    grep -q "$key" target/ci-bench/PROFILE_query.json \
      || { echo "missing $key in PROFILE_query.json"; exit 1; }
  done
  echo "profile schema OK"
}

stage_server_smoke() {
  step "server-smoke (oneshot boot + /v1 smoke + log_mix gate + removed-API sweep)"
  OWQL_SERVE_ONESHOT=1 cargo run --release --example serve

  step "v1-smoke (live /v1 surface + retired paths answer 404)"
  local addr="127.0.0.1:7912"
  OWQL_SERVE_ADDR="$addr" target/release/examples/serve > /tmp/owql_v1_serve.log &
  local serve_pid=$!
  # shellcheck disable=SC2064 — expand serve_pid now, not at trap time.
  trap "kill $serve_pid 2>/dev/null || true" RETURN
  for _ in $(seq 1 100); do
    grep -q 'listening on' /tmp/owql_v1_serve.log && break
    sleep 0.1
  done
  grep -q 'listening on' /tmp/owql_v1_serve.log || { echo "serve never came up"; exit 1; }
  python3 scripts/v1_smoke.py "$addr"
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true

  step "log_mix gate (owql_bench over real TCP: answers correct, nothing failed)"
  mkdir -p target/ci-bench
  cargo run --release --offline --manifest-path owql_bench/Cargo.toml -- \
    --workload log_mix --seed 1 --seconds 3 --trace 0 > target/ci-bench/log_mix.json
  for key in '"correct": true' '"failed": 0'; do
    grep -q "$key" target/ci-bench/log_mix.json \
      || { echo "log_mix: missing $key in $(cat target/ci-bench/log_mix.json)"; exit 1; }
  done

  if grep -rnE '\.(evaluate|evaluate_parallel|evaluate_traced|evaluate_parallel_traced|profile_parallel)\(' \
      examples/ tests/ crates/bench/ crates/server/; then
    echo "removed evaluate-variant call site found"; exit 1
  fi
  echo "server smoke OK"
}

stage_obs_smoke() {
  step "obs-smoke (live /metrics scrape + slow-query injection)"
  cargo build --release --example serve
  local addr="127.0.0.1:7911"
  OWQL_SERVE_ADDR="$addr" target/release/examples/serve > /tmp/owql_obs_serve.log &
  local serve_pid=$!
  # shellcheck disable=SC2064 — expand serve_pid now, not at trap time.
  trap "kill $serve_pid 2>/dev/null || true" RETURN
  for _ in $(seq 1 100); do
    grep -q 'listening on' /tmp/owql_obs_serve.log && break
    sleep 0.1
  done
  grep -q 'listening on' /tmp/owql_obs_serve.log || { echo "serve never came up"; exit 1; }
  python3 scripts/obs_smoke.py "$addr"
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  echo "obs smoke OK"
}

stage_persist_smoke() {
  step "persist-smoke (durable example, kill -9 recovery, failed append, WAL/segment proptests)"
  cargo run --release --example durable_store
  # The two kill -9 tests SIGKILL a real writer process (this test
  # binary, re-run as its ignored `crash_writer` test) and check
  # recovery; the failed-append test re-runs it as
  # `failed_append_writer` under a file-size limit, so one commit's
  # WAL append fails part-way, and checks the next commit survives.
  cargo test --release -q -p owql --test integration_persist -- \
    killed_writer_recovers_to_last_committed_epoch repeated_crashes_accumulate_monotonically \
    failed_append_leaves_the_log_as_it_found_it
  cargo test --release -q -p owql-persist --test proptest_persist
  echo "persist smoke OK"
}

stage_doc() {
  step "doc (-D warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

run_stage() {
  case "$1" in
    check)         stage_check ;;
    determinism)   stage_determinism ;;
    differential)  stage_differential ;;
    lint-smoke)    stage_lint_smoke ;;
    bench-smoke)   stage_bench_smoke ;;
    server-smoke)  stage_server_smoke ;;
    obs-smoke)     stage_obs_smoke ;;
    persist-smoke) stage_persist_smoke ;;
    doc)           stage_doc ;;
    *) echo "unknown stage: $1 (see scripts/ci.sh header for the list)"; exit 2 ;;
  esac
}

ALL_STAGES=(check determinism differential lint-smoke bench-smoke server-smoke obs-smoke persist-smoke doc)
FAST_STAGES=(check determinism differential lint-smoke doc)

if [[ $# -eq 0 ]]; then
  stages=("${ALL_STAGES[@]}")
elif [[ "$1" == "--fast" ]]; then
  stages=("${FAST_STAGES[@]}")
else
  stages=("$@")
fi

for s in "${stages[@]}"; do
  run_stage "$s"
done

step "all green (${stages[*]})"
