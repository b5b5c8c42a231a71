#!/usr/bin/env bash
# Serve-daemon smoke test with a real process and real sockets (the
# serve unit tests cover the engine and parser in-process):
#
#   phase A: daemon on an ephemeral port replays a recorded workload at
#            unlimited speed; /metrics is scraped twice and every
#            *_total counter must be monotonic between the scrapes.
#   phase B: the same replay run twice end-to-end — the final counter
#            values (solver, rescheduler, serve lifecycle) must be
#            bit-identical across the two runs.
#   phase C: SIGTERM mid-grace — /health must report "draining" before
#            the daemon exits cleanly (code 0).
#   phase D: a workload of tied (equal-timestamp) arrivals replayed by
#            the daemon must end with the same reschedule and completion
#            counts as `dls online --loads` on the same input — one
#            reschedule per virtual time, whichever driver runs it.
#
# Scraping uses bash's /dev/tcp so the test has no curl/nc dependency.
#
# usage: serve_smoke.sh <dls-binary>
set -euo pipefail

DLS=${1:?usage: serve_smoke.sh <dls-binary>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

wait_port() {
  for _ in $(seq 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "serve_smoke: daemon never wrote its port file $1" >&2
  return 1
}

# scrape <port> <path> — prints the response body.
scrape() {
  local port=$1 path=$2
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET %s HTTP/1.1\r\nHost: smoke\r\n\r\n' "$path" >&3
  # Connection: close — read to EOF, then strip the header block.
  sed '1,/^\r*$/d' <&3
  exec 3<&-
}

# post <port> <path-with-query> — prints the response body.
post() {
  local port=$1 path=$2
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'POST %s HTTP/1.1\r\nHost: smoke\r\nContent-Length: 0\r\n\r\n' \
    "$path" >&3
  sed '1,/^\r*$/d' <&3
  exec 3<&-
}

echo "== setup: platform + recorded workload"
"$DLS" generate --clusters 4 --seed 5 --out "$TMP/plat" > /dev/null
"$DLS" online --platform "$TMP/plat" --loads --arrivals 40 --arrival-rate 2 \
  --mean-load 300 --seed 9 --save-workload "$TMP/replay.workload" > /dev/null

echo "== phase A: replay + two scrapes, counters must be monotonic"
rm -f "$TMP/port"
"$DLS" serve --platform "$TMP/plat" --replay "$TMP/replay.workload" \
  --replay-speed 0 --exit-after-replay --drain-grace 5 --port-file "$TMP/port" \
  > "$TMP/a.log" 2>&1 &
SERVE=$!
wait_port "$TMP/port"
PORT=$(cat "$TMP/port")
scrape "$PORT" /metrics > "$TMP/scrape1"
scrape "$PORT" /metrics > "$TMP/scrape2"
grep -q 'dls_lp_solves_total{start="warm"}' "$TMP/scrape1" || {
  echo "serve_smoke: /metrics is missing the solver series" >&2
  cat "$TMP/scrape1" >&2
  exit 1
}
grep -q 'dls_resched_solves_total{mode="multi"' "$TMP/scrape1" || {
  echo "serve_smoke: /metrics is missing the rescheduler series" >&2
  exit 1
}
grep -q 'dls_serve_event_loop_lag_seconds_bucket' "$TMP/scrape1" || {
  echo "serve_smoke: /metrics is missing the event-loop lag histogram" >&2
  exit 1
}
grep -q 'dls_lp_ftran_reach_fraction_bucket' "$TMP/scrape1" || {
  echo "serve_smoke: /metrics is missing the ftran reach histogram" >&2
  exit 1
}
grep -q 'dls_lp_btran_reach_fraction_bucket' "$TMP/scrape1" || {
  echo "serve_smoke: /metrics is missing the btran reach histogram" >&2
  exit 1
}
grep -q 'dls_serve_response_seconds_bucket{outcome="completed"' "$TMP/scrape1" || {
  echo "serve_smoke: /metrics is missing the response-time histogram" >&2
  exit 1
}
# Every *_total series must be monotonic between the two scrapes.
paste -d' ' \
  <(grep -E '^[a-z_]+_total(\{[^}]*\})? ' "$TMP/scrape1" | awk '{print $NF}') \
  <(grep -E '^[a-z_]+_total(\{[^}]*\})? ' "$TMP/scrape2" | awk '{print $NF}') |
while read -r before after; do
  awk -v a="$before" -v b="$after" 'BEGIN { exit !(b >= a) }' || {
    echo "serve_smoke: counter went backwards ($before -> $after)" >&2
    exit 1
  }
done
scrape "$PORT" /stats > "$TMP/stats"
grep -q '"arrivals":40' "$TMP/stats" || {
  echo "serve_smoke: /stats did not report the 40 replayed arrivals" >&2
  cat "$TMP/stats" >&2
  exit 1
}
wait "$SERVE" || {
  echo "serve_smoke: phase A daemon exited non-zero" >&2
  cat "$TMP/a.log" >&2
  exit 1
}

echo "== phase B: deterministic replay, final counters bit-identical"
final_counters() {
  # One full replay; scrape the engine lifecycle counters from /stats
  # after the replay has drained (the daemon holds the socket open for
  # the drain grace). Timing series are excluded by construction —
  # /stats carries only the deterministic engine counters.
  local log=$1 port
  rm -f "$TMP/port"
  "$DLS" serve --platform "$TMP/plat" --replay "$TMP/replay.workload" \
    --replay-speed 0 --exit-after-replay --drain-grace 5 --port-file "$TMP/port" \
    > "$log" 2>&1 &
  local pid=$!
  wait_port "$TMP/port"
  port=$(cat "$TMP/port")
  # Wait until the replay has fully drained (active back to 0).
  for _ in $(seq 100); do
    scrape "$port" /stats > "$TMP/stats.b"
    grep -q '"replay_pending":0' "$TMP/stats.b" &&
      grep -q '"active":0' "$TMP/stats.b" &&
      grep -q '"draining":true' "$TMP/stats.b" && break
    sleep 0.1
  done
  sed 's/"vt":[^,]*,//' "$TMP/stats.b"  # vt is wall-paced; drop it
  wait "$pid"
}
final_counters "$TMP/b1.log" > "$TMP/b1.stats"
final_counters "$TMP/b2.log" > "$TMP/b2.stats"
cmp "$TMP/b1.stats" "$TMP/b2.stats" || {
  echo "serve_smoke: replay counters differ across two identical runs" >&2
  diff "$TMP/b1.stats" "$TMP/b2.stats" >&2 || true
  exit 1
}

echo "== phase C: SIGTERM -> draining health -> clean exit"
rm -f "$TMP/port"
"$DLS" serve --platform "$TMP/plat" --drain-grace 5 --port-file "$TMP/port" \
  > "$TMP/c.log" 2>&1 &
SERVE=$!
wait_port "$TMP/port"
PORT=$(cat "$TMP/port")
scrape "$PORT" /health > "$TMP/health1"
grep -q '"status":"ok"' "$TMP/health1" || {
  echo "serve_smoke: /health not ok before SIGTERM" >&2
  cat "$TMP/health1" >&2
  exit 1
}
# An interactively arrived load must show up in the /loads inventory
# with its identity, home cluster, age and current rate.
post "$PORT" "/arrive?cluster=0&payoff=1&load=1000&name=smokeload" \
  > "$TMP/arrive"
grep -q 'ok admitted' "$TMP/arrive" || {
  echo "serve_smoke: POST /arrive not admitted" >&2
  cat "$TMP/arrive" >&2
  exit 1
}
scrape "$PORT" /loads > "$TMP/loads"
for field in '"name":"smokeload"' '"cluster":0' '"age":' '"rate":'; do
  grep -q "$field" "$TMP/loads" || {
    echo "serve_smoke: /loads is missing $field" >&2
    cat "$TMP/loads" >&2
    exit 1
  }
done

kill -TERM "$SERVE"
sleep 0.5
scrape "$PORT" /health > "$TMP/health2"
grep -q '"status":"draining"' "$TMP/health2" || {
  echo "serve_smoke: /health not draining after SIGTERM" >&2
  cat "$TMP/health2" >&2
  exit 1
}
wait "$SERVE" || {
  echo "serve_smoke: daemon exited non-zero after SIGTERM" >&2
  cat "$TMP/c.log" >&2
  exit 1
}
grep -q "draining (stop requested)" "$TMP/c.log" || {
  echo "serve_smoke: expected the drain log line" >&2
  cat "$TMP/c.log" >&2
  exit 1
}

echo "== phase D: tied arrivals, serve replay == dls online --loads"
"$DLS" generate --clusters 6 --seed 3 --out "$TMP/plat6" > /dev/null
{
  echo "dls-workload 1"
  for burst in 0 1 2 3 4 5 6 7; do
    for j in 0 1 2; do
      echo "app $((5 * burst)) $(((burst + 2 * j) % 6)) $((1 + j)) $((150 + 100 * j)) -"
    done
  done
} > "$TMP/tied.workload"
"$DLS" online --platform "$TMP/plat6" --loads --workload "$TMP/tied.workload" \
  --json > "$TMP/tied.online"
rm -f "$TMP/port"
"$DLS" serve --platform "$TMP/plat6" --replay "$TMP/tied.workload" \
  --replay-speed 0 --exit-after-replay --drain-grace 5 --port-file "$TMP/port" \
  > "$TMP/d.log" 2>&1 &
SERVE=$!
wait_port "$TMP/port"
PORT=$(cat "$TMP/port")
for _ in $(seq 100); do
  scrape "$PORT" /stats > "$TMP/tied.stats"
  grep -q '"replay_pending":0' "$TMP/tied.stats" &&
    grep -q '"active":0' "$TMP/tied.stats" && break
  sleep 0.1
done
for key in reschedules completed; do
  want=$(grep -o "\"$key\":[0-9]*" "$TMP/tied.online")
  got=$(grep -o "\"$key\":[0-9]*" "$TMP/tied.stats")
  [ -n "$want" ] && [ "$want" = "$got" ] || {
    echo "serve_smoke: tied replay $key differs: online $want, serve $got" >&2
    cat "$TMP/tied.online" "$TMP/tied.stats" >&2
    exit 1
  }
done
wait "$SERVE" || {
  echo "serve_smoke: phase D daemon exited non-zero" >&2
  cat "$TMP/d.log" >&2
  exit 1
}

echo "serve_smoke: all phases passed"
