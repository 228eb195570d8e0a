#!/usr/bin/env bash
# Continuous-integration entry point. Everything runs OFFLINE: the
# default workspace depends only on sibling path crates (enforced by
# pcqe-lint rule PCQE-H001 and tests/hermetic_guard.rs), so a
# network-less runner with an empty cargo registry builds and tests the
# whole repository.
#
# Usage: ./ci.sh [--no-clippy] [--stage <name>]...
#
# With no --stage arguments every stage runs in registry order; each
# --stage selects one stage by name (repeatable, run in the order
# given), which is how .github/workflows/ci.yml fans the pipeline out
# across parallel jobs. `./ci.sh --list` prints the registry. A
# wall-time summary table is printed at the end of every run — including
# failed ones, so slow or broken stages are visible at a glance.
set -euo pipefail
cd "$(dirname "$0")"

# ---------------------------------------------------------------------------
# Stage registry. Names are the --stage vocabulary; keep ci.yml in sync.

STAGES=(
  fmt
  clippy
  lint
  lint-artifact
  lint-sarif
  gate-lint
  build
  test
  smoke-metrics
  smoke-explain
  trace-smoke
  gate-trace
  bench-build
  bench-e2e
  bench-physical
  bench-cache
  gate-cache
  bench-vectorized
  gate-vectorized
)

stage_fmt() { # formatting (cargo fmt --check)
  cargo fmt --all --check
}

stage_clippy() { # lints (cargo clippy -D warnings)
  if [ "$NO_CLIPPY" -eq 1 ]; then
    echo "clippy skipped (--no-clippy)"
    return 0
  fi
  cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_lint() { # static invariants (cargo run -p pcqe-lint)
  # One analyzer, four layers, twenty-three rules.
  # Token layer: PCQE-D001/D002/D003/D004 (determinism), PCQE-C002
  # (capability coverage against lint-capabilities.toml; PCQE-C001 is
  # the legacy built-in table for trees without a manifest), PCQE-P001
  # (panic-safety), PCQE-T001 (wall clock), PCQE-H001 (hermetic
  # manifests — subsumes the former awk guard). Graph layer: PCQE-P002
  # (panic-reachability from guarded public API) and PCQE-G001 (rows
  # released only below the policy gate). Concurrency layer: PCQE-C003
  # (lock-order cycles), PCQE-C004 (lock held across a result-affecting
  # call), PCQE-C005 (shared-state escape into the result set),
  # PCQE-C006 (relaxed-atomic reads feeding released rows). Dataflow
  # layer: PCQE-F001 (suppressed tuples into error sinks), PCQE-F002
  # (β/θ thresholds outside the audit/Decision channels), PCQE-F003
  # (pre-gate confidence into trace/metrics), with PCQE-F004/F005
  # keeping lint-flows.toml itself honest. Hygiene: PCQE-A001 (stale
  # allowlist entries), PCQE-A002 (unreasoned or id-less entries),
  # PCQE-A003 (stale capability grants). Exceptions live in
  # lint-allow.toml with reasons, capability grants in
  # lint-capabilities.toml, flow sources/sinks/sanctions in
  # lint-flows.toml; see DESIGN.md § "Static invariants".
  cargo run -q -p pcqe-lint --offline
}

stage_lint_artifact() { # static invariants artifact (results/lint.json)
  # The same analysis as a machine-readable CI artifact, then validated
  # with the in-repo JSON parser — exporter and parser agree end to end
  # without external tooling, mirroring the metrics smoke check below.
  mkdir -p results
  cargo run -q -p pcqe-lint --offline -- --format json > results/lint.json
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- --schema lint results/lint.json
}

stage_lint_sarif() { # static invariants as SARIF (results/lint.sarif)
  # The same analysis in the 2.1.0 interchange format — code editors and
  # review tooling ingest it directly, and the witness flow paths from
  # the dataflow layer ride along as SARIF code flows. Validated
  # hermetically, then gated per-rule against the checked-in baseline
  # exactly like the JSON report.
  mkdir -p results
  cargo run -q -p pcqe-lint --offline -- --format sarif > results/lint.sarif
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- --schema sarif results/lint.sarif
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --schema sarif --gate results/baseline_lint.sarif results/lint.sarif
}

stage_gate_lint() { # lint-regression gate (results/lint.json vs checked-in baseline)
  # Every count in the baseline is a ceiling the fresh report must stay
  # under: total errors and suppressions, plus the per-rule counts from
  # the report's `rules` section. New violations and new suppressions
  # both fail CI even when the totals happen to stay flat.
  if [ ! -f results/lint.json ]; then
    echo "gate-lint: results/lint.json missing; run the lint-artifact stage first" >&2
    return 1
  fi
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --schema lint --gate results/baseline_lint.json results/lint.json
}

stage_build() { # release build (offline)
  cargo build --release --offline
}

stage_test() { # tests (offline, whole workspace)
  cargo test -q --offline --workspace
}

stage_smoke_metrics() { # observability smoke export (quickstart -> results/metrics.json)
  # The quickstart example ends by exporting its metrics snapshot; the
  # in-repo JSON parser then validates the document, proving the
  # exporter and parser agree end to end without any external tooling.
  cargo run -q --offline --example quickstart > /dev/null
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- results/metrics.json
}

stage_smoke_explain() { # EXPLAIN smoke (.plan on the § 3.1 running example)
  # Pipe the paper's running-example schema and query through the shell
  # and assert the physical planner's choices show up in the
  # side-by-side plan: the residual filter is pushed into the Proposal
  # scan and the small build side makes the join a nested loop. The
  # shell's stderr is captured and surfaced on failure — a panic in the
  # heredoc must be reported as itself, not as a grep miss.
  local plan_out stderr_file status=0
  stderr_file="$(mktemp)"
  plan_out="$(cargo run -q --offline --example shell 2>"$stderr_file" <<'EOF'
CREATE TABLE Proposal (company TEXT, proposal TEXT, funding REAL);
CREATE TABLE CompanyInfo (company TEXT, income REAL);
INSERT INTO Proposal VALUES ('ABC', 'p7', 500000.0) WITH CONFIDENCE 0.8;
INSERT INTO CompanyInfo VALUES ('ABC', 900000.0) WITH CONFIDENCE 0.9;
.plan SELECT DISTINCT CompanyInfo.company, income FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company WHERE funding < 1000000.0
.quit
EOF
)" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "EXPLAIN smoke: shell exited with status $status; stderr follows" >&2
    cat "$stderr_file" >&2
    rm -f "$stderr_file"
    return 1
  fi
  rm -f "$stderr_file"
  echo "$plan_out" | grep -q "NestedLoopJoin" || {
    echo "EXPLAIN smoke: expected NestedLoopJoin in .plan output" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "$plan_out" | grep -q "TableScan Proposal \[filter:" || {
    echo "EXPLAIN smoke: expected pushed filter on the Proposal scan" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "EXPLAIN smoke OK (nested-loop join, pushed residual filter)"
}

stage_trace_smoke() { # causal-trace smoke (.trace on the § 3.1 example -> results/trace_chrome.json)
  # Pipe the paper's running example through the shell, trace the query
  # and validate the exported Chrome trace-event document with the
  # in-repo parser. The interactive prompt interleaves with piped
  # output, so the prompt prefixes are stripped and the JSON document is
  # cut out of the session transcript before validation.
  local out stderr_file status=0
  mkdir -p results
  stderr_file="$(mktemp)"
  out="$(cargo run -q --offline --example shell 2>"$stderr_file" <<'EOF'
CREATE TABLE Proposal (company TEXT, proposal TEXT, funding REAL);
CREATE TABLE CompanyInfo (company TEXT, income REAL);
INSERT INTO Proposal VALUES ('SkyCam', 'drone v1', 800000.0) WITH CONFIDENCE 0.3;
INSERT INTO Proposal VALUES ('SkyCam', 'drone v2', 900000.0) WITH CONFIDENCE 0.4;
INSERT INTO CompanyInfo VALUES ('SkyCam', 500000.0) WITH CONFIDENCE 0.1;
.policy Manager investment 0.06
.user mark Manager
.purpose investment
.trace SELECT DISTINCT CompanyInfo.company, income FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company WHERE funding < 1000000.0 json
.quit
EOF
)" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "trace smoke: shell exited with status $status; stderr follows" >&2
    cat "$stderr_file" >&2
    rm -f "$stderr_file"
    return 1
  fi
  rm -f "$stderr_file"
  echo "$out" | sed -e 's/^\(pcqe> \)*//' \
    | awk '/^\{$/{f=1} f{print} /^\}$/{f=0}' > results/trace_chrome.json
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --schema trace results/trace_chrome.json
  echo "$out" | grep -q '"name": "decision"' || {
    echo "trace smoke: expected a per-tuple decision event in the trace" >&2
    return 1
  }
  echo "trace smoke OK (Chrome trace validated, decision event present)"
}

stage_gate_trace() { # trace-regression gate (trace_chrome.json vs checked-in baseline)
  # Every distinct event name in the baseline is a floor on the fresh
  # trace's per-name event count: a refactor that silently drops a
  # lifecycle span, a cache event or a per-tuple decision fails CI.
  if [ ! -f results/trace_chrome.json ]; then
    echo "gate-trace: results/trace_chrome.json missing; run the trace-smoke stage first" >&2
    return 1
  fi
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --schema trace --gate results/baseline_trace.json results/trace_chrome.json
}

stage_bench_build() { # bench workspace builds (offline, detached)
  ( cd crates/bench && cargo build --offline && cargo test -q --offline )
}

stage_bench_e2e() { # end-to-end benchmark package builds and tests (offline, detached)
  # crates/bench/e2e is its own workspace, so no other stage compiles it.
  # Its tests include tests/pipeline.rs, which checks the engine against
  # the benchmark's stage-by-stage replay on every workload — an engine
  # API the replay calls cannot change without failing here.
  cargo test --release --offline --manifest-path crates/bench/e2e/Cargo.toml
}

stage_bench_physical() { # physical planning bench export (results/physical_planning.json)
  # The bench asserts hash/nested-loop and index/table-scan bit-identity
  # on the vectorized executor, that the β-gated engine releases exactly
  # what the logical oracle releases, and that the low-β workload
  # actually skips exact expansions, then exports its measurements; the
  # in-repo parser validates the document.
  mkdir -p results
  ( cd crates/bench \
    && cargo bench -q --offline --bench physical_planning -- \
      ../../results/physical_planning.json )
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    results/physical_planning.json
}

stage_bench_cache() { # circuit-cache bench export (results/confidence_cache.json)
  # The bench asserts cached/uncached bit-identity over the repeated
  # re-scoring workload, nonzero memo hits and invalidations, the ≥5x
  # speedup contract, and that the engine's what-if previews equal the
  # logical oracle's, then exports its measurements.
  mkdir -p results
  ( cd crates/bench \
    && cargo bench -q --offline --bench confidence_cache -- \
      ../../results/confidence_cache.json )
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    results/confidence_cache.json
}

stage_gate_cache() { # bench-regression gate (confidence_cache vs checked-in baseline)
  # Every counter and gauge named in the baseline is a floor the fresh
  # export must clear: cache hit counts, invalidations and the cache-on
  # speedup may only regress by failing CI.
  if [ ! -f results/confidence_cache.json ]; then
    echo "gate-cache: results/confidence_cache.json missing; run the bench-cache stage first" >&2
    return 1
  fi
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --gate results/baseline_confidence_cache.json results/confidence_cache.json
}

stage_bench_vectorized() { # vectorized-execution bench export (results/vectorized_exec.json)
  # The bench asserts vectorized/logical-oracle bit-identity on every
  # workload at 1, 2 and 4 worker threads and the ≥2x scan-workload
  # speedup contract, then exports the full thread-count curve.
  mkdir -p results
  ( cd crates/bench \
    && cargo bench -q --offline --bench vectorized_exec -- \
      ../../results/vectorized_exec.json )
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    results/vectorized_exec.json
}

stage_gate_vectorized() { # bench-regression gate (vectorized_exec vs checked-in baseline)
  # The baseline pins the deterministic workload row counts and a 2.0
  # floor on the scan-workload vectorized-vs-logical speedup (measured at
  # the same thread count, so the bar holds on single-core runners).
  if [ ! -f results/vectorized_exec.json ]; then
    echo "gate-vectorized: results/vectorized_exec.json missing; run the bench-vectorized stage first" >&2
    return 1
  fi
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --gate results/baseline_vectorized.json results/vectorized_exec.json
}

# ---------------------------------------------------------------------------
# Driver: argument parsing, per-stage timing, summary table.

NO_CLIPPY=0
SELECTED=()
while [ $# -gt 0 ]; do
  case "$1" in
    --no-clippy) NO_CLIPPY=1 ;;
    --stage)
      shift
      [ $# -gt 0 ] || { echo "--stage needs a name (see ./ci.sh --list)" >&2; exit 2; }
      SELECTED+=("$1")
      ;;
    --list)
      printf '%s\n' "${STAGES[@]}"
      exit 0
      ;;
    -h|--help)
      echo "usage: ./ci.sh [--no-clippy] [--stage <name>]... [--list]"
      exit 0
      ;;
    *) echo "unknown argument: $1 (try --help)" >&2; exit 2 ;;
  esac
  shift
done

known_stage() {
  local name
  for name in "${STAGES[@]}"; do
    [ "$name" = "$1" ] && return 0
  done
  return 1
}

for name in ${SELECTED[@]+"${SELECTED[@]}"}; do
  if ! known_stage "$name"; then
    echo "unknown stage: $name (available: ${STAGES[*]})" >&2
    exit 2
  fi
done
if [ "${#SELECTED[@]}" -eq 0 ]; then
  SELECTED=("${STAGES[@]}")
fi

SUMMARY_NAMES=()
SUMMARY_NANOS=()
SUMMARY_STATUS=()
CURRENT_STAGE=""
CURRENT_T0=0
PIPELINE_T0=$(date +%s%N)

print_summary() {
  local code=$?
  # A stage that was entered but never recorded is the one that failed.
  if [ -n "$CURRENT_STAGE" ]; then
    SUMMARY_NAMES+=("$CURRENT_STAGE")
    SUMMARY_NANOS+=($(($(date +%s%N) - CURRENT_T0)))
    SUMMARY_STATUS+=("FAILED")
  fi
  if [ "${#SUMMARY_NAMES[@]}" -eq 0 ]; then
    return "$code"
  fi
  printf '\n%-18s %-8s %10s\n' "stage" "status" "time"
  printf '%-18s %-8s %10s\n' "-----" "------" "----"
  local i total=0
  for i in "${!SUMMARY_NAMES[@]}"; do
    total=$((total + SUMMARY_NANOS[i]))
    printf '%-18s %-8s %9s.%02ds\n' "${SUMMARY_NAMES[$i]}" "${SUMMARY_STATUS[$i]}" \
      "$((SUMMARY_NANOS[i] / 1000000000))" "$((SUMMARY_NANOS[i] % 1000000000 / 10000000))"
  done
  printf '%-18s %-8s %9s.%02ds\n' "total" "" \
    "$((total / 1000000000))" "$((total % 1000000000 / 10000000))"
  return "$code"
}
trap print_summary EXIT

for name in "${SELECTED[@]}"; do
  printf '\n==> stage: %s\n' "$name"
  CURRENT_STAGE="$name"
  CURRENT_T0=$(date +%s%N)
  "stage_${name//-/_}"
  SUMMARY_NAMES+=("$name")
  SUMMARY_NANOS+=($(($(date +%s%N) - CURRENT_T0)))
  SUMMARY_STATUS+=("ok")
  CURRENT_STAGE=""
done

printf '\n==> ci.sh: all selected stages passed (%d of %d in the registry)\n' \
  "${#SELECTED[@]}" "${#STAGES[@]}"
