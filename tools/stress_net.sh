#!/usr/bin/env bash
# Multi-process network stress (wired into ctest as `stress_net`).
#
# Boots a real ccdb_serve leader and a WAL-shipping ccdb_serve replica as
# separate daemons on ephemeral ports, populates the leader over the wire,
# waits for the replica to serve the replicated relation, then hammers
# BOTH daemons with concurrent bench_net --client processes. The leader
# runs 2 workers against its 4 clients, so its worker bound is saturated:
# a query runs on its connection thread while a slot is free and queues
# for a worker while both are taken, and the two paths interleave under
# load. When curl is
# available the daemons also get --status-port listeners that are scraped
# (/metrics + /healthz) continuously DURING the storm — an HTTP scrape
# must never fail or block while the query path is saturated — and the
# replica's /healthz must report converged lag once the storm ends. Then
# the failover phase: the leader is killed, the replica is promoted over
# the wire (bench_net --promote), and the promoted daemon must accept
# writes and serve queries under its new term. Fails on any client error,
# a scrape error, non-converging lag, a failed promotion, a daemon that
# dies, or (via the hard KILL timeout) a hang anywhere in the stack.
#
# usage: stress_net.sh <ccdb_serve-binary> <bench_net-binary>

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <ccdb_serve-binary> <bench_net-binary>" >&2
  exit 2
fi

# Hard stop: re-exec under `timeout --signal=KILL` so a wedged daemon or a
# client stuck in a blocking read fails the test instead of hanging ctest.
if [[ -z "${STRESS_NET_INNER:-}" ]] && command -v timeout >/dev/null 2>&1; then
  STRESS_NET_INNER=1 exec timeout --signal=KILL 300 "$0" "$@"
fi

serve_bin=$1
bench_bin=$2
workdir=$(mktemp -d)
daemon_pids=()

cleanup() {
  for pid in "${daemon_pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "stress_net: $1" >&2
  shift
  for log in "$@"; do
    echo "--- $log ---" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

# Polls a daemon log for the "listening on port N" line; prints the port.
wait_port() {
  local log=$1 port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on port \([0-9][0-9]*\).*/\1/p' "$log" |
           head -n 1)
    [[ -n "$port" ]] && { echo "$port"; return 0; }
    sleep 0.1
  done
  fail "daemon did not come up" "$log"
}

# Same, for the HTTP status listener's "status on port N" line.
wait_status_port() {
  local log=$1 port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*status on port \([0-9][0-9]*\).*/\1/p' "$log" |
           head -n 1)
    [[ -n "$port" ]] && { echo "$port"; return 0; }
    sleep 0.1
  done
  fail "status listener did not come up" "$log"
}

# Status scrapes need an HTTP client; without one the storm still runs,
# just unscraped.
have_curl=0
command -v curl >/dev/null 2>&1 && have_curl=1

leader_log="$workdir/leader.log"
replica_log="$workdir/replica.log"

"$serve_bin" --port 0 --status-port 0 --workers 2 \
  </dev/null >"$leader_log" 2>&1 &
daemon_pids+=($!)
leader_port=$(wait_port "$leader_log")
leader_status_port=$(wait_status_port "$leader_log")
echo "stress_net: leader on port $leader_port (status $leader_status_port)"

"$serve_bin" --port 0 --status-port 0 \
  --replica-of "127.0.0.1:$leader_port" \
  </dev/null >"$replica_log" 2>&1 &
daemon_pids+=($!)
replica_port=$(wait_port "$replica_log")
replica_status_port=$(wait_status_port "$replica_log")
echo "stress_net: replica on port $replica_port (status $replica_status_port)"

# Populate the leader over the wire (LoadRelation commits through the WAL,
# so the write also ships to the replica).
"$bench_bin" --load "$leader_port" 200 7 ||
  fail "--load against the leader failed" "$leader_log"

# The replica applies the shipment on its own poll cadence; probe with a
# one-query client until the replicated relation is queryable.
replica_ready=0
for _ in $(seq 1 100); do
  if "$bench_bin" --client "$replica_port" 99 1 >/dev/null 2>&1; then
    replica_ready=1
    break
  fi
  sleep 0.1
done
[[ "$replica_ready" == 1 ]] ||
  fail "replica never served the replicated relation" \
       "$leader_log" "$replica_log"

# Continuous scrape loops: hit /metrics and /healthz on one daemon until
# the storm ends, recording the first failure. A scrape body must carry
# the exposition / health markers, not just return 200.
scrape_loop() {
  local port=$1 name=$2 body=""
  while [[ ! -e "$workdir/storm_done" ]]; do
    body=$(curl -sf --max-time 5 "http://127.0.0.1:$port/metrics") ||
      { echo "$name /metrics scrape failed" >>"$workdir/scrape_fail"; return; }
    grep -q '^# TYPE ccdb_queries_completed counter' <<<"$body" ||
      { echo "$name /metrics body missing exposition families" \
          >>"$workdir/scrape_fail"; return; }
    body=$(curl -sf --max-time 5 "http://127.0.0.1:$port/healthz") ||
      { echo "$name /healthz scrape failed" >>"$workdir/scrape_fail"; return; }
    grep -q '"status":"ok"' <<<"$body" ||
      { echo "$name /healthz not ok: $body" >>"$workdir/scrape_fail"; return; }
    sleep 0.05
  done
}

scrape_pids=()
if [[ "$have_curl" == 1 ]]; then
  scrape_loop "$leader_status_port" leader &
  scrape_pids+=($!)
  scrape_loop "$replica_status_port" replica &
  scrape_pids+=($!)
fi

# The storm: 4 clients on the leader (2 workers) and 2 on the replica,
# concurrently, 200 queries each over one connection apiece.
client_pids=()
for id in 0 1 2 3; do
  "$bench_bin" --client "$leader_port" "$id" 200 \
    >/dev/null 2>"$workdir/leader_client_$id.err" &
  client_pids+=($!)
done
for id in 4 5; do
  "$bench_bin" --client "$replica_port" "$id" 200 \
    >/dev/null 2>"$workdir/replica_client_$id.err" &
  client_pids+=($!)
done

status=0
for pid in "${client_pids[@]}"; do
  wait "$pid" || status=1
done
touch "$workdir/storm_done"
for pid in "${scrape_pids[@]}"; do
  wait "$pid" || true
done
if [[ "$status" != 0 ]]; then
  fail "a client run failed" "$workdir"/*.err "$leader_log" "$replica_log"
fi
if [[ -s "$workdir/scrape_fail" ]]; then
  fail "a status scrape failed during the storm" "$workdir/scrape_fail" \
       "$leader_log" "$replica_log"
fi

# After the storm the replica's lag must converge to zero (the workload
# is read-only, so "converge" means the bootstrap shipment is applied and
# /healthz agrees with the leader's WAL position).
if [[ "$have_curl" == 1 ]]; then
  lag_ok=0
  for _ in $(seq 1 100); do
    health=$(curl -sf --max-time 5 \
               "http://127.0.0.1:$replica_status_port/healthz" || true)
    if grep -q '"role":"replica"' <<<"$health" &&
       grep -q '"caught_up":true' <<<"$health"; then
      lag_ok=1
      break
    fi
    sleep 0.1
  done
  [[ "$lag_ok" == 1 ]] ||
    fail "replica lag never converged: $health" "$replica_log"
fi

# Both daemons must have survived the storm.
for pid in "${daemon_pids[@]}"; do
  kill -0 "$pid" 2>/dev/null ||
    fail "a daemon died during the storm" "$leader_log" "$replica_log"
done

# --- Failover phase: kill the leader, promote the replica, verify writes ---

leader_pid=${daemon_pids[0]}
replica_pid=${daemon_pids[1]}
kill "$leader_pid" 2>/dev/null || true
wait "$leader_pid" 2>/dev/null || true
echo "stress_net: leader killed, promoting replica"

"$bench_bin" --promote "$replica_port" ||
  fail "promotion of the replica failed" "$replica_log"

# The promoted daemon now owns the timeline: writes must land (LoadRelation
# refreshes "Boxes") and reads must keep working on the same port.
"$bench_bin" --load "$replica_port" 120 11 ||
  fail "--load against the promoted replica failed" "$replica_log"
"$bench_bin" --client "$replica_port" 7 50 >/dev/null ||
  fail "queries against the promoted replica failed" "$replica_log"

# /healthz must have flipped the advertised role to leader.
if [[ "$have_curl" == 1 ]]; then
  role_ok=0
  for _ in $(seq 1 50); do
    health=$(curl -sf --max-time 5 \
               "http://127.0.0.1:$replica_status_port/healthz" || true)
    if grep -q '"role":"leader"' <<<"$health"; then
      role_ok=1
      break
    fi
    sleep 0.1
  done
  [[ "$role_ok" == 1 ]] ||
    fail "promoted replica still advertises the replica role: $health" \
         "$replica_log"
fi

# The promoted daemon must have survived its promotion and the writes.
kill -0 "$replica_pid" 2>/dev/null ||
  fail "the promoted replica died" "$replica_log"

if [[ "$have_curl" == 1 ]]; then
  echo "stress_net: ok (6 clients x 200 queries across leader + replica," \
       "scraped throughout; leader killed, replica promoted + wrote)"
else
  echo "stress_net: ok (6 clients x 200 queries across leader + replica;" \
       "curl missing, status scrapes skipped; leader killed, replica" \
       "promoted + wrote)"
fi
