#!/usr/bin/env bash
# CI smoke test for the distributed campaign service: boot campaignd
# and two campaignw workers on localhost, run a small Table I grid, and
# require the merged output to be byte-identical to a single-process
# cmd/campaign run of the same spec. All binaries are built with -race.
#
# Usage: scripts/ci_distributed.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${1:-18931}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building -race binaries"
go build -race -o "$WORK/bin/" ./cmd/campaign ./cmd/campaignd ./cmd/campaignw

SPEC_ARGS=(-trials 2 -budget 200000 -seed 2021)

echo "== single-process reference run"
"$WORK/bin/campaign" "${SPEC_ARGS[@]}" -quiet \
  -out "$WORK/ref.jsonl" -csv "$WORK/ref.csv" table1 >/dev/null

echo "== coordinator + 2 workers on $ADDR"
# No -exit-when-done: the coordinator stays up after the merge so the
# /metrics scrape below can't race its shutdown; it is TERMed (graceful
# exit 0) once the assertions pass.
"$WORK/bin/campaignd" -addr "$ADDR" -data "$WORK/data" "${SPEC_ARGS[@]}" \
  -out "$WORK/merged.jsonl" -csv "$WORK/merged.csv" table1 &
SERVER_PID=$!
PIDS+=("$SERVER_PID")

WORKER_PIDS=()
for i in 1 2; do
  "$WORK/bin/campaignw" -server "http://$ADDR" -id "ci-w$i" -drain &
  WORKER_PIDS+=("$!")
  PIDS+=("$!")
done

# Scrape GET /metrics while the fleet is live. The reference run
# already fixed the expected row count, so we poll until the
# coordinator's job counter reconciles with it AND the campaign has
# merged — the counter derives from the same deduplicated result
# tables the merge reads, so exact equality is the contract, not an
# approximation.
echo "== scraping /metrics while the run is live"
EXPECTED_ROWS="$(wc -l <"$WORK/ref.jsonl")"
BODY=""
RECONCILED=""
for _ in $(seq 1 600); do
  if BODY="$(curl -fs "http://$ADDR/metrics" 2>/dev/null)"; then
    DONE="$(printf '%s\n' "$BODY" | awk '$1 ~ /^campaignd_jobs_done_total([{]|$)/ {s+=$NF} END{printf "%d", s+0}')"
    if [ "$DONE" -eq "$EXPECTED_ROWS" ] &&
       printf '%s\n' "$BODY" | grep -q '^campaignd_campaigns{state="merged"} 1$'; then
      RECONCILED=1
      break
    fi
  fi
  sleep 0.1
done
if [ -z "$RECONCILED" ]; then
  echo "FAIL: campaignd_jobs_done_total never reconciled to $EXPECTED_ROWS merged jobs" >&2
  exit 1
fi
for series in campaignd_jobs_done_total campaignd_results_ingested_total \
              campaignd_shard_job_ms campaignd_workers_seen \
              campaignw_jobs_total campaignw_batches_total; do
  if ! printf '%s\n' "$BODY" | grep -q "^${series}"; then
    echo "FAIL: /metrics exposition is missing series ${series}" >&2
    exit 1
  fi
done
echo "OK: /metrics reconciles ($EXPECTED_ROWS jobs) and serves the fleet series"

# The JSON status and the expvar counter set are views over the same
# shard tables, so after the merge they must read the same job count.
STATUS_DONE="$(curl -fs "http://$ADDR/api/v1/status" | grep -o '"jobs_done":[0-9]*' | head -n 1 | cut -d: -f2)"
VARS_DONE="$(curl -fs "http://$ADDR/debug/vars" | grep '^"campaignd":' | grep -o '"jobs_done":[0-9]*' | cut -d: -f2)"
if [ "${STATUS_DONE:-}" != "$EXPECTED_ROWS" ] || [ "${VARS_DONE:-}" != "$EXPECTED_ROWS" ]; then
  echo "FAIL: /api/v1/status jobs_done=${STATUS_DONE:-missing}, /debug/vars campaignd.jobs_done=${VARS_DONE:-missing}; want $EXPECTED_ROWS" >&2
  exit 1
fi
echo "OK: /api/v1/status and /debug/vars report $EXPECTED_ROWS jobs done"

# Drain-mode workers exit on their own once the coordinator reports
# every campaign merged.
for pid in "${WORKER_PIDS[@]}"; do
  if ! wait "$pid"; then
    echo "FAIL: campaignw exited non-zero" >&2
    exit 1
  fi
done

kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "FAIL: campaignd exited non-zero" >&2
  exit 1
fi

echo "== diffing merged output against the single-process run"
cmp "$WORK/merged.jsonl" "$WORK/ref.jsonl"
cmp "$WORK/merged.csv" "$WORK/ref.csv"
echo "OK: distributed merge is byte-identical ($(wc -c <"$WORK/merged.jsonl") bytes JSONL, $(wc -c <"$WORK/merged.csv") bytes CSV)"
