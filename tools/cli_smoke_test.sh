#!/usr/bin/env bash
# End-to-end smoke test for song_cli: gen -> build -> stats -> gt -> search,
# plus a short serving-tier leg (song_server + song_loadgen) when those
# binaries are passed as $2/$3.
set -euo pipefail
CLI="$1"
SERVER="${2:-}"
LOADGEN="${3:-}"
DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

"$CLI" gen --preset sift --scale 0.05 --out "$DIR/data.sngd" --queries "$DIR/q.sngd"
"$CLI" build --data "$DIR/data.sngd" --out "$DIR/graph.sngg" --degree 16
"$CLI" stats --graph "$DIR/graph.sngg" | grep -q "reachable from 0: "
"$CLI" gt --data "$DIR/data.sngd" --queries "$DIR/q.sngd" --k 10 --out "$DIR/gt.sngd"
OUT=$("$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 --gt "$DIR/gt.sngd")
echo "$OUT"
echo "$OUT" | grep -q "recall@10"
RECALL=$(echo "$OUT" | sed -n 's/recall@10: //p')
# Recall must be decent on this easy preset.
python3 - "$RECALL" <<'PY'
import sys
assert float(sys.argv[1]) >= 0.8, f"recall too low: {sys.argv[1]}"
PY

# Telemetry: metrics + Chrome trace exports must be well-formed and keep
# the per-query stage spans consistent with the cost model (within 1%).
TOOLS_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 \
      --metrics "$DIR/metrics.prom" --metrics-json "$DIR/metrics.json" \
      --trace "$DIR/out.trace.json" --trace-sample 2
python3 -m json.tool "$DIR/metrics.json" > /dev/null
python3 -m json.tool "$DIR/out.trace.json" > /dev/null
python3 "$TOOLS_DIR/validate_telemetry.py" \
      --trace "$DIR/out.trace.json" \
      --metrics-json "$DIR/metrics.json" \
      --metrics "$DIR/metrics.prom"

# --- Robustness smoke cases (docs/robustness.md) ---------------------------

# expect_fail <expected-exit> <grep-pattern> -- <cli args...>
# Runs the CLI expecting a nonzero exit and a diagnostic on stderr.
expect_fail() {
  local want_exit="$1" pattern="$2"; shift 3
  local stderr_file="$DIR/stderr.txt" code=0
  "$CLI" "$@" >/dev/null 2>"$stderr_file" || code=$?
  if [ "$code" -ne "$want_exit" ]; then
    echo "FAIL: expected exit $want_exit, got $code for: $*" >&2
    cat "$stderr_file" >&2
    exit 1
  fi
  if ! grep -q "$pattern" "$stderr_file"; then
    echo "FAIL: stderr missing \"$pattern\" for: $*" >&2
    cat "$stderr_file" >&2
    exit 1
  fi
}

# Missing input file: diagnostic + exit 1, never a crash.
expect_fail 1 "" -- stats --graph "$DIR/no_such_file.sngg"

# Corrupt (truncated) graph: DataLoss diagnostic + exit 1.
head -c 24 "$DIR/graph.sngg" > "$DIR/trunc.sngg"
expect_fail 1 "DataLoss" -- stats --graph "$DIR/trunc.sngg"

# Corrupt dataset fed to search: DataLoss diagnostic + exit 1.
head -c 10 "$DIR/data.sngd" > "$DIR/trunc.sngd"
expect_fail 1 "DataLoss" -- search --data "$DIR/trunc.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd"

# Unknown flag and malformed numeric flag: usage errors, exit 2.
expect_fail 2 "unknown flag" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --no-such-flag 1
expect_fail 2 "non-negative integer" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --k banana
expect_fail 2 "requires --fault-spec" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --fault-seed 7
# BFS is the one relabeling; any other strategy name is a usage error.
expect_fail 2 "unknown reorder strategy" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --reorder degree

# Malformed fault spec: diagnostic + exit 2.
expect_fail 2 "invalid --fault-spec" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --fault-spec "oops=2"

# Deadline and cost budgets: run must succeed and report degraded counts.
OUT=$("$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 --deadline-us 1000000)
echo "$OUT" | grep -q "degraded queries: "
OUT=$("$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 --cost-budget 1)
echo "$OUT" | grep -q "degraded queries: "

# --- Online mutation smoke cases (docs/testing.md) -------------------------

# Churn the index, serve from the final snapshot, and keep recall against
# the exact live-set scan decent; metrics must record the mutations.
OUT=$("$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 \
      --mutate-spec rounds=3,inserts=15,deletes=5,seed=11 \
      --metrics-json "$DIR/mutate_metrics.json")
echo "$OUT"
echo "$OUT" | grep -q "mutated index: 45 inserts, 15 deletes"
# The search QPS line excludes the recall oracle, which reports its own time.
echo "$OUT" | grep -q "^search wall: .* QPS)$"
echo "$OUT" | grep -q "^oracle scan: "
RECALL=$(echo "$OUT" | sed -n 's/recall@10 vs live set: //p')
python3 - "$RECALL" <<'PY'
import sys
assert float(sys.argv[1]) >= 0.8, f"churned recall too low: {sys.argv[1]}"
PY
python3 - "$DIR/mutate_metrics.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
flat = m.get("counters", m)
def find(name):
    if isinstance(flat, dict) and name in flat: return flat[name]
    for section in m.values():
        if isinstance(section, dict) and name in section: return section[name]
    raise AssertionError(f"{name} missing from metrics JSON")
assert find("song.index.inserts") == 45
assert find("song.index.deletes") == 15
PY

# Malformed spec / illegal flag combinations: usage errors, exit 2.
expect_fail 2 "rounds >= 1" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --mutate-spec inserts=5
expect_fail 2 "malformed --mutate-spec" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --mutate-spec rounds=banana
expect_fail 2 "incompatible with --gt" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --mutate-spec rounds=1,inserts=5 --gt "$DIR/gt.sngd"
expect_fail 2 "incompatible with --reorder" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --mutate-spec rounds=1,inserts=5 --reorder bfs

# Fault injection: an always-on transfer fault must fail the search with a
# retryable diagnostic; a zero-rate spec must not change anything.
expect_fail 1 "transfer.htod" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --fault-spec "transfer.htod=1" --fault-seed 7
"$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --fault-spec "transfer.htod=0" \
      | grep -q "faults injected: 0"

# --- Quantized traversal smoke cases (docs/performance.md) -----------------

# Train + save a codebook, search with ADC + rerank: recall must stay close
# to exact on this easy preset, and the song.search.quant.* metrics must be
# emitted alongside a telemetry-valid metrics file.
OUT=$("$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 --gt "$DIR/gt.sngd" \
      --pq m=16,rerank=96,save="$DIR/code.sngq" \
      --metrics-json "$DIR/pq_metrics.json")
echo "$OUT"
echo "$OUT" | grep -q "pq: m=16"
echo "$OUT" | grep -q "wrote PQ codebook to "
RECALL=$(echo "$OUT" | sed -n 's/recall@10: //p')
python3 - "$RECALL" <<'PY'
import sys
assert float(sys.argv[1]) >= 0.8, f"pq recall too low: {sys.argv[1]}"
PY
python3 -m json.tool "$DIR/pq_metrics.json" > /dev/null
python3 "$TOOLS_DIR/validate_telemetry.py" --metrics-json "$DIR/pq_metrics.json"
python3 - "$DIR/pq_metrics.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
def find(name):
    for section in m.values():
        if isinstance(section, dict) and name in section: return section[name]
    raise AssertionError(f"{name} missing from metrics JSON")
assert find("song.search.quant.adc_tables") > 0
assert find("song.search.quant.rerank_candidates") > 0
assert find("song.search.quant.rerank_bytes_loaded") > 0
PY

# Reload the saved codebook: same m, and the auto rerank pool (rerank
# omitted) must serve without retraining.
OUT=$("$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 --gt "$DIR/gt.sngd" \
      --pq load="$DIR/code.sngq")
echo "$OUT" | grep -q "pq: m=16"

# Corrupt (truncated) codebook: DataLoss diagnostic + exit 1, never a crash.
head -c 20 "$DIR/code.sngq" > "$DIR/trunc.sngq"
expect_fail 1 "DataLoss" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --pq load="$DIR/trunc.sngq"

# Malformed --pq specs and illegal combinations: usage errors, exit 2.
expect_fail 2 "requires m=" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --pq rerank=50
expect_fail 2 "malformed --pq" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" --pq m=banana
expect_fail 2 "incompatible with --pq" -- search --data "$DIR/data.sngd" \
      --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --mutate-spec rounds=1,inserts=5 --pq m=8
expect_fail 2 "max-inflight requires --mutate-spec" -- search \
      --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" --queries "$DIR/q.sngd" \
      --max-inflight 4

# --- Request-lifecycle observability (docs/observability.md) ---------------

# Statusz + flight recorder on a concurrent mutate-serve run: both dumps
# must pass schema validation, including the song.req.* histogram
# telescoping invariant and per-record stage sums.
"$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --queue 96 \
      --mutate-spec rounds=2,inserts=10,deletes=4,seed=11 --max-inflight 4 \
      --statusz "$DIR/statusz.json" --flight-recorder "$DIR/flight.json"
python3 -m json.tool "$DIR/statusz.json" > /dev/null
python3 -m json.tool "$DIR/flight.json" > /dev/null
python3 "$TOOLS_DIR/validate_telemetry.py" \
      --statusz "$DIR/statusz.json" --flight-recorder "$DIR/flight.json"
# Every query must show up in the ring with an OK outcome.
python3 - "$DIR/flight.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["total_recorded"] > 0, "flight recorder recorded nothing"
assert all(r["status"] == "ok" for r in doc["records"]), \
    [r for r in doc["records"] if r["status"] != "ok"][:3]
PY

# Statusz on the frozen batch path, and on a failed run: the dump must be
# written either way, carrying the run's Status.
"$CLI" search --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --statusz "$DIR/statusz_frozen.json"
python3 "$TOOLS_DIR/validate_telemetry.py" --statusz "$DIR/statusz_frozen.json"
expect_fail 1 "flight recorder (non-OK run status)" -- search \
      --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --queries "$DIR/q.sngd" --k 10 --fault-spec "transfer.htod=1" \
      --fault-seed 7 --statusz "$DIR/statusz_fail.json"
python3 "$TOOLS_DIR/validate_telemetry.py" --statusz "$DIR/statusz_fail.json"
python3 - "$DIR/statusz_fail.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["status"]["name"] == "unavailable", doc["status"]
assert doc["fault"]["armed"] is True, doc["fault"]
PY

# --- Serving front-end smoke cases (docs/serving.md) -----------------------

if [ -n "$SERVER" ] && [ -n "$LOADGEN" ]; then
  # Clean path: server up, closed-loop clients, wire-fetched statusz,
  # SIGTERM drain, conservation on the DRAINED line, schema-valid dumps.
  "$SERVER" --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
        --port 0 --port-file "$DIR/port" --workers 2 \
        --statusz-on-exit "$DIR/serve_statusz.json" --duration-s 120 \
        > "$DIR/server.log" 2> "$DIR/server.err" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$DIR/port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "FAIL: song_server died during startup" >&2
      cat "$DIR/server.err" >&2; exit 1; }
    sleep 0.1
  done
  PORT="$(cat "$DIR/port")"
  OUT=$("$LOADGEN" --port "$PORT" --queries "$DIR/q.sngd" \
        --connections 2 --requests 100 --k 10 --queue 96 \
        --statusz-out "$DIR/serve_statusz_live.json")
  echo "$OUT"
  echo "$OUT" | grep -q "LOADGEN sent=200 "
  echo "$OUT" | grep -q "LATENCY p50_us="
  # Every closed-loop request must come back OK on the clean path.
  echo "$OUT" | grep -q " answered=200 ok=200 "
  python3 "$TOOLS_DIR/validate_telemetry.py" \
        --statusz "$DIR/serve_statusz_live.json"
  kill -TERM "$SERVER_PID"
  SERVER_RC=0
  wait "$SERVER_PID" || SERVER_RC=$?
  SERVER_PID=""
  cat "$DIR/server.log"
  [ "$SERVER_RC" -eq 0 ] || {
    echo "FAIL: song_server exited $SERVER_RC" >&2
    cat "$DIR/server.err" >&2; exit 1; }
  grep -q "^DRAINED accepted=200 ok=200 shed=0 deadline=0 error=0$" \
        "$DIR/server.log"
  python3 "$TOOLS_DIR/validate_telemetry.py" \
        --statusz "$DIR/serve_statusz.json"

  # Flag validation: usage errors must exit 2 with a diagnostic.
  SERVE_ERR="$DIR/serve_stderr.txt"; CODE=0
  "$SERVER" --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
        --workers 0 >/dev/null 2>"$SERVE_ERR" || CODE=$?
  [ "$CODE" -eq 2 ] && grep -q "workers must be >= 1" "$SERVE_ERR" || {
    echo "FAIL: --workers 0 not rejected (exit $CODE)" >&2; exit 1; }
  # No engine-admission flag: the dispatch slots bound the batches in
  # flight at --workers.
  CODE=0
  "$SERVER" --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
        --max-inflight 4 >/dev/null 2>"$SERVE_ERR" || CODE=$?
  [ "$CODE" -eq 2 ] && grep -q "unknown flag --max-inflight" "$SERVE_ERR" || {
    echo "FAIL: --max-inflight not rejected (exit $CODE)" >&2; exit 1; }
  CODE=0
  "$LOADGEN" --port 1 --dim 4 --mode open >/dev/null 2>"$SERVE_ERR" \
        || CODE=$?
  [ "$CODE" -eq 2 ] && grep -q "requires --qps" "$SERVE_ERR" || {
    echo "FAIL: open loop without --qps not rejected (exit $CODE)" >&2
    exit 1; }
fi

# Bench gate self-test: the committed baselines must pass against
# themselves and a planted 2x slowdown must fail (both modes).
python3 "$TOOLS_DIR/bench_gate.py" \
      --baseline "$TOOLS_DIR/../bench/baselines" --self-test --tolerance 0.5
python3 "$TOOLS_DIR/bench_gate.py" \
      --baseline "$TOOLS_DIR/../bench/baselines" --self-test --normalize \
      --tolerance 0.5

echo "CLI SMOKE OK"
