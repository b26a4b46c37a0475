#!/usr/bin/env bash
# Daemon chaos smoke: boots glitchmaskd against a scratch spool and drives
# it through the robustness contract end to end with campaign_client:
#
#   1. clean run      -> completed, and an identical resubmit answers from
#                        the result cache without re-simulating; with
#                        --ledger up, the run appends exactly one record
#                        to the results ledger and the cache hit none;
#   2. EINTR storm    -> a seeded fault plan (via GLITCHMASK_FAULTS, the
#                        environment lever) peppers every atomic_file site
#                        with EINTR; the run must complete with metrics
#                        byte-identical to the fault-free run;
#   3. ENOSPC        -> persistent checkpoint-fsync failure; the daemon
#                        degrades to the in-memory frontier (flagged as
#                        checkpoint_degraded) and still completes with
#                        byte-identical metrics;
#   4. SIGTERM drain  -> the daemon is killed mid-campaign; the unfinished
#                        request lands in the state file, the restarted
#                        daemon resumes it from the spool snapshot, and a
#                        reconnecting client gets the completed result;
#   5. observability  -> with --trace-dir and --metrics-file up, a traced
#                        job must yield a python-validated Chrome-trace
#                        JSON (queue_wait/execute/block spans), the
#                        metrics verb must answer a well-formed registry
#                        dump, and the Prometheus exposition file must
#                        materialize -- all without perturbing the
#                        result (metrics byte-identical to the clean
#                        run).
#
# All fault schedules are seeded, so any failure reproduces exactly.
# Usage: scripts/chaos_smoke.sh BUILDDIR   (e.g. build or build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

builddir="${1:?usage: scripts/chaos_smoke.sh BUILDDIR}"
daemon="$builddir/src/glitchmaskd"
client="$builddir/examples/campaign_client"
ledger_cli="$builddir/src/glitchmask_ledger"
work="$(mktemp -d "${TMPDIR:-/tmp}/gm-chaos.XXXXXX")"
sock="$work/gm.sock"
request='{"op":"submit","kind":"gadget_tvla","gadget":"trichina","traces":512,"seed":7}'
daemon_pid=""

cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

start_daemon() {  # start_daemon [extra daemon args...]
  mkdir -p "$work/spool"
  "$daemon" --socket "$sock" --spool "$work/spool" \
    --state "$work/state.json" "$@" >>"$work/daemon.log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.1
  done
  echo "FAIL: daemon did not come up (see $work/daemon.log)" >&2
  exit 1
}

stop_daemon() {
  "$client" "$sock" '{"op":"shutdown","drain":false}' >/dev/null
  wait "$daemon_pid"
  daemon_pid=""
}

# Submits $request, prints the terminal result line, fails on non-completion.
submit_expect_completed() {
  local line
  line="$("$client" "$sock" "$request" | tail -1)"
  if ! grep -q '"state":"completed"' <<<"$line"; then
    echo "FAIL: expected a completed result, got: $line" >&2
    exit 1
  fi
  printf '%s\n' "$line"
}

metrics_of() { sed -n 's/.*"metrics":{\([^}]*\)}.*/\1/p' <<<"$1"; }

echo "--- chaos smoke 1/5: clean run + cache hit"
start_daemon --ledger "$work/ledger.ndjson"
fresh="$(submit_expect_completed)"
reference_metrics="$(metrics_of "$fresh")"
if [ -z "$reference_metrics" ]; then
  echo "FAIL: result carried no metrics: $fresh" >&2
  exit 1
fi
cached="$(submit_expect_completed)"
grep -q '"cached":true' <<<"$cached" || {
  echo "FAIL: resubmit was not answered from the cache: $cached" >&2
  exit 1
}
stop_daemon
# The append follows the result, so the ledger is read once the daemon
# has exited: the executed job's record, and none for the cache hit.
records="$("$ledger_cli" list "$work/ledger.ndjson" --csv | tail -n +2)"
if [ "$(grep -c . <<<"$records")" != 1 ] ||
   ! grep -q '^gadget_tvla,[0-9a-f]*,service,.*,completed,' <<<"$records"; then
  echo "FAIL: wanted one completed service record in the ledger, got:" >&2
  printf '%s\n' "$records" >&2
  exit 1
fi

echo "--- chaos smoke 2/5: EINTR storm is absorbed bit-identically"
rm -rf "$work/spool" "$work/state.json"
GLITCHMASK_FAULTS='seed=9;atomic_file.*=eintr@p=0.35' start_daemon
stormy="$(submit_expect_completed)"
[ "$(metrics_of "$stormy")" = "$reference_metrics" ] || {
  echo "FAIL: metrics drifted under the EINTR storm: $stormy" >&2
  exit 1
}
stop_daemon

echo "--- chaos smoke 3/5: checkpoint ENOSPC degrades, result still exact"
rm -rf "$work/spool" "$work/state.json"
start_daemon --faults 'seed=10;atomic_file.fsync=enospc'
degraded="$(submit_expect_completed)"
grep -q '"checkpoint_degraded":true' <<<"$degraded" || {
  echo "FAIL: fsync=enospc did not flag checkpoint degradation: $degraded" >&2
  exit 1
}
[ "$(metrics_of "$degraded")" = "$reference_metrics" ] || {
  echo "FAIL: metrics drifted under checkpoint degradation: $degraded" >&2
  exit 1
}
stop_daemon

echo "--- chaos smoke 4/5: SIGTERM drain, restart resumes from the spool"
rm -rf "$work/spool" "$work/state.json"
start_daemon
long_request='{"op":"submit","kind":"gadget_tvla","gadget":"trichina","traces":300000,"seed":8}'
"$client" "$sock" "$long_request" >"$work/client.log" 2>&1 &
client_pid=$!
for _ in $(seq 1 200); do
  grep -q '"event":"progress"' "$work/client.log" && break
  sleep 0.1
done
grep -q '"event":"progress"' "$work/client.log" || {
  echo "FAIL: long campaign never reported progress" >&2
  exit 1
}
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""
wait "$client_pid" 2>/dev/null || true
[ -f "$work/state.json" ] || {
  echo "FAIL: drain left no state file" >&2
  exit 1
}
start_daemon
resumed="$("$client" "$sock" "$long_request" | tail -1)"
grep -q '"state":"completed"' <<<"$resumed" || {
  echo "FAIL: restarted daemon did not finish the drained campaign: $resumed" >&2
  exit 1
}
grep -q '"resumed":true' <<<"$resumed" || {
  echo "FAIL: restarted campaign did not resume from the spool: $resumed" >&2
  exit 1
}
stop_daemon

echo "--- chaos smoke 5/5: tracing + metrics exposition, result still exact"
rm -rf "$work/spool" "$work/state.json"
mkdir -p "$work/traces"
start_daemon --trace-dir "$work/traces" --metrics-file "$work/metrics.prom"
traced="$(submit_expect_completed)"
[ "$(metrics_of "$traced")" = "$reference_metrics" ] || {
  echo "FAIL: metrics drifted with tracing+telemetry on: $traced" >&2
  exit 1
}
grep -q '"spans":\[' <<<"$traced" || {
  echo "FAIL: traced result carried no span rollup: $traced" >&2
  exit 1
}

metrics_line="$("$client" "$sock" '{"op":"metrics"}' | tail -1)"
printf '%s\n' "$metrics_line" | python3 -c '
import json, sys
doc = json.loads(sys.stdin.readline())
assert doc["event"] == "metrics", doc
for section in ("counters", "histograms", "gauges", "service"):
    assert section in doc, f"metrics reply missing {section!r}"
execute = doc["histograms"]["service.execute_nanos"]
assert execute["count"] >= 1, execute
assert sum(n for _, n in execute["buckets"]) == execute["count"], execute
assert doc["service"]["cache_entries"] >= 1, doc["service"]
' || {
  echo "FAIL: metrics verb reply failed validation: $metrics_line" >&2
  exit 1
}

trace_file="$(ls "$work/traces"/job-*.trace.json 2>/dev/null | head -1)"
[ -n "$trace_file" ] || {
  echo "FAIL: no job trace exported to $work/traces" >&2
  exit 1
}
python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
names = {event["name"] for event in doc["traceEvents"]}
for required in ("job", "queue_wait", "execute", "block"):
    assert required in names, f"trace missing {required!r} spans: {names}"
for event in doc["traceEvents"]:
    assert event["ph"] == "X" and "args" in event, event
' "$trace_file" || {
  echo "FAIL: exported trace failed validation: $trace_file" >&2
  exit 1
}
stop_daemon
[ -s "$work/metrics.prom" ] || {
  echo "FAIL: daemon never wrote the Prometheus exposition file" >&2
  exit 1
}
grep -q '^glitchmask_service_execute_nanos_count' "$work/metrics.prom" || {
  echo "FAIL: exposition file lacks the execute-latency histogram" >&2
  exit 1
}

echo "chaos smoke: all 5 scenarios passed"
