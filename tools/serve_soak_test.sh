#!/usr/bin/env bash
# Chaos soak for the serving front-end (docs/serving.md): song_server with
# every serve.* fault site armed, concurrent song_loadgen clients (closed
# loop, chaos disconnects, deadlines, open loop), SIGTERM fired mid-run,
# then the two acceptance gates:
#
#   1. outcome conservation — accepted == ok + shed + deadline + error
#      (checked by the server binary at drain AND re-checked here from the
#      DRAINED line),
#   2. the post-drain statusz dump passes schema validation, including the
#      drained-server equality check in validate_telemetry.py.
#
# Runtime scales with SONG_SOAK_SECONDS (default 6 s; the CI serve-soak leg
# runs 60 s under ASan and TSan).
set -euo pipefail
CLI="$1"
SERVER="$2"
LOADGEN="$3"
SOAK_S="${SONG_SOAK_SECONDS:-6}"
TOOLS_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

"$CLI" gen --preset sift --scale 0.05 --out "$DIR/data.sngd" \
      --queries "$DIR/q.sngd"
"$CLI" build --data "$DIR/data.sngd" --out "$DIR/graph.sngg" --degree 16

# Server: small queue + batch so bursts actually hit the shed path, every
# serve.* fault site armed at low probability, duration-s as a backstop in
# case the SIGTERM below is lost (ctest TIMEOUT would fire otherwise).
"$SERVER" --data "$DIR/data.sngd" --graph "$DIR/graph.sngg" \
      --port 0 --port-file "$DIR/port" \
      --workers 2 --queue-capacity 64 --max-batch 8 \
      --fault-spec "serve.dispatch=0.03,serve.write=0.02,serve.accept=0.05" \
      --fault-seed 20260808 \
      --statusz-on-exit "$DIR/statusz.json" \
      --duration-s $(( ${SOAK_S%.*} + 120 )) \
      > "$DIR/server.log" 2> "$DIR/server.err" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$DIR/port" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server died during startup" >&2
    cat "$DIR/server.err" >&2
    exit 1
  fi
  sleep 0.1
done
PORT="$(cat "$DIR/port")"

# A short well-behaved run first: proves the happy path end to end and
# fetches a live (mid-run, non-draining) statusz over the wire.
"$LOADGEN" --port "$PORT" --queries "$DIR/q.sngd" --connections 2 \
      --requests 50 --k 10 --queue 96 \
      --statusz-out "$DIR/statusz_live.json" > "$DIR/warm.log"
grep -q "LOADGEN sent=" "$DIR/warm.log"
python3 "$TOOLS_DIR/validate_telemetry.py" --statusz "$DIR/statusz_live.json"
python3 - "$DIR/statusz_live.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
serve = doc["serve"]
assert serve is not None, "wire statusz missing serve section"
assert serve["draining"] is False, serve
assert serve["accepted"] > 0, serve
PY

# The chaos fleet: request counts are effectively unbounded — the clients
# run until the drain severs their connections and reconnects fail.
"$LOADGEN" --port "$PORT" --dim 128 --connections 3 --requests 1000000 \
      --chaos-close-prob 0.02 --seed 1 > "$DIR/lg_chaos.log" &
LG1=$!
"$LOADGEN" --port "$PORT" --queries "$DIR/q.sngd" --connections 2 \
      --requests 1000000 --deadline-us 2000 --seed 2 > "$DIR/lg_dl.log" &
LG2=$!
"$LOADGEN" --port "$PORT" --dim 128 --connections 2 --requests 1000000 \
      --mode open --qps 2000 --seed 3 > "$DIR/lg_open.log" &
LG3=$!

python3 - "$SOAK_S" <<'PY'
import sys, time
time.sleep(float(sys.argv[1]))
PY

# Graceful shutdown mid-traffic: every request accepted before (and during)
# the drain must still settle with exactly one outcome.
kill -TERM "$SERVER_PID"
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
SERVER_PID=""
for pid in "$LG1" "$LG2" "$LG3"; do
  RC=0
  wait "$pid" || RC=$?
  if [ "$RC" -ne 0 ]; then
    echo "FAIL: loadgen exited $RC (never connected?)" >&2
    exit 1
  fi
done
cat "$DIR/lg_chaos.log" "$DIR/lg_dl.log" "$DIR/lg_open.log"
cat "$DIR/server.log"
if [ "$SERVER_RC" -ne 0 ]; then
  echo "FAIL: server exited $SERVER_RC" >&2
  cat "$DIR/server.err" >&2
  exit 1
fi

# Conservation, re-checked from the DRAINED line (the binary already
# enforces it; a second independent parse keeps the gate honest).
DRAINED=$(grep "^DRAINED " "$DIR/server.log")
python3 - "$DRAINED" <<'PY'
import sys
fields = dict(kv.split("=") for kv in sys.argv[1].split()[1:])
accepted = int(fields["accepted"])
settled = sum(int(fields[k]) for k in ("ok", "shed", "deadline", "error"))
assert accepted == settled, f"conservation violated: {fields}"
assert accepted > 0, "soak was vacuous: nothing accepted"
PY

# Post-drain statusz: schema-valid, serve section drained and conserved
# (validate_telemetry.py enforces equality for a drained server).
python3 "$TOOLS_DIR/validate_telemetry.py" --statusz "$DIR/statusz.json"
python3 - "$DIR/statusz.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
serve = doc["serve"]
assert serve["draining"] is True, serve
assert serve["connections"] == 0, serve
assert doc["fault"]["armed"] is True, doc["fault"]
PY

echo "SERVE SOAK OK"
