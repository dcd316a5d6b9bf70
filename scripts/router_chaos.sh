#!/usr/bin/env sh
# Chaos drill for the sharded serving tier (`fdctl route` + N×M
# `fdctl serve --shard i/n` workers):
#
# 1. Train a bundle, start 2 shards × 2 replicas plus an unsharded
#    control server, and front the shards with the router (bulk-job
#    spool enabled).
# 2. Routed answers must be byte-identical to the control server's.
# 3. Drive continuous /v1/predict load, `kill -9` one replica mid-load:
#    every routed request must still come back 200, and the router's
#    breaker-open counter must increment.
# 4. SIGHUP-reload a surviving shard worker under the same load — the
#    tier must not drop a request while the worker swaps its bundle.
# 5. Submit a bulk-scoring job, `kill -9` the router mid-job, restart
#    it on the same spool: the acknowledged job must finish and serve
#    its results — the crash-safe spool is the guarantee under test.
# 6. The killed replica restarts on its old port and the router's
#    half-open probe folds it back in (healthz all-up, breaker closed).
#
# Usage: scripts/router_chaos.sh
#
# Exits non-zero, naming the step, on any violation.
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/fd-chaos-XXXXXX")"
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $pids; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
    echo "router_chaos.sh: $1" >&2
    shift
    for log in "$@"; do
        echo "---- $log" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

echo "==> build fdctl (release)" >&2
cargo build --release --bin fdctl
fdctl=target/release/fdctl

echo "==> generate corpus + train a bundle" >&2
"$fdctl" generate --scale 0.02 --seed 7 --out "$work/corpus.json"
"$fdctl" train --corpus "$work/corpus.json" --out "$work/model.json" \
    --epochs 1 --seed 42 --mode binary

# Fixed ports (the tier topology is static and the killed replica must
# rebind its old address), offset by PID to dodge parallel runs.
base=$((21000 + $$ % 9000))
p_control=$base
p_s0r0=$((base + 1))
p_s0r1=$((base + 2))
p_s1r0=$((base + 3))
p_s1r1=$((base + 4))
p_router=$((base + 5))

# Runs in this shell (never as `$(serve …)`, whose subshell would keep
# the pid from `pids` and the cleanup trap); read the pid from `$!`.
serve() { # serve <port> <shard-spec-or-"-"> <log>
    if [ "$2" = "-" ]; then
        "$fdctl" serve --corpus "$work/corpus.json" --model "$work/model.json" \
            --addr "127.0.0.1:$1" >"$3" 2>&1 &
    else
        "$fdctl" serve --corpus "$work/corpus.json" --model "$work/model.json" \
            --addr "127.0.0.1:$1" --shard "$2" >"$3" 2>&1 &
    fi
    pids="$pids $!"
}

wait_healthy() { # wait_healthy <port> <what>
    tries=0
    until curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
        tries=$((tries + 1))
        [ "$tries" -gt 200 ] && fail "$2 (port $1) never became healthy" "$work"/*.log
        sleep 0.1
    done
}

echo "==> start control + 2 shards x 2 replicas + router" >&2
serve "$p_control" - "$work/control.log"
serve "$p_s0r0" 0/2 "$work/s0r0.log"
victim_pid=$!
serve "$p_s0r1" 0/2 "$work/s0r1.log"
serve "$p_s1r0" 1/2 "$work/s1r0.log"
reload_pid=$!
serve "$p_s1r1" 1/2 "$work/s1r1.log"
for port in "$p_control" "$p_s0r0" "$p_s0r1" "$p_s1r0" "$p_s1r1"; do
    wait_healthy "$port" "worker"
done
"$fdctl" route \
    --shards "127.0.0.1:$p_s0r0,127.0.0.1:$p_s0r1;127.0.0.1:$p_s1r0,127.0.0.1:$p_s1r1" \
    --addr "127.0.0.1:$p_router" --spool-dir "$work/spool" >"$work/router.log" 2>&1 &
router_pid=$!
pids="$pids $router_pid"
wait_healthy "$p_router" "router"

post() { # post <port> <path> <body> — prints the HTTP status code
    curl -s -o "$work/last_body.json" -w '%{http_code}' -X POST \
        -d "$3" "http://127.0.0.1:$1$2"
}

echo "==> routed answers are byte-identical to the control server" >&2
for body in '{"id":0}' '{"id":1}' \
    '{"text":"claim about the budget deficit and medicare","creator":0,"subjects":[0]}'; do
    [ "$(post "$p_control" /v1/predict "$body")" = "200" ] \
        || fail "control predict failed for $body" "$work/last_body.json"
    mv "$work/last_body.json" "$work/control_answer.json"
    [ "$(post "$p_router" /v1/predict "$body")" = "200" ] \
        || fail "routed predict failed for $body" "$work/last_body.json"
    cmp -s "$work/control_answer.json" "$work/last_body.json" \
        || fail "routed answer differs from control for $body" \
            "$work/control_answer.json" "$work/last_body.json"
done

echo "==> drive load, kill -9 one replica mid-load" >&2
: >"$work/codes.txt"
(
    while [ ! -e "$work/stop" ]; do
        post "$p_router" /v1/predict '{"id":0}' >>"$work/codes.txt"
        printf '\n' >>"$work/codes.txt"
        post "$p_router" /v1/predict \
            '{"text":"late-breaking claim on the deficit","creator":1}' >>"$work/codes.txt"
        printf '\n' >>"$work/codes.txt"
    done
) &
load_pid=$!
sleep 1
kill -9 "$victim_pid" 2>/dev/null || fail "victim replica already dead"
wait "$victim_pid" 2>/dev/null || true
sleep 3

echo "==> SIGHUP-reload a surviving shard worker under load" >&2
kill -HUP "$reload_pid"
tries=0
until grep -q 'reload complete' "$work/s1r0.log"; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "shard reload never completed" "$work/s1r0.log"
    sleep 0.1
done
sleep 1

touch "$work/stop"
wait "$load_pid"
total="$(wc -l <"$work/codes.txt")"
bad="$(grep -cv '^200$' "$work/codes.txt" || true)"
echo "==> $total routed requests across the replica kill + reload, $bad non-200" >&2
[ "$total" -gt 20 ] || fail "load generator made too few requests ($total)"
[ "$bad" -eq 0 ] || fail "$bad routed request(s) failed during the chaos window"

echo "==> breaker tripped for the killed replica" >&2
opens="$(curl -s "http://127.0.0.1:$p_router/metrics" \
    | sed -n 's/^fd_router_breaker_opens_total \([0-9]*\).*/\1/p')"
[ -n "$opens" ] && [ "$opens" -ge 1 ] \
    || fail "breaker-open counter never incremented (got '${opens:-absent}')"

echo "==> submit a bulk job, kill -9 the router mid-job, restart on the same spool" >&2
reqs='{"text":"bulk claim 0"}'
i=1
while [ "$i" -lt 300 ]; do
    reqs="$reqs,{\"text\":\"bulk claim $i about the budget\"}"
    i=$((i + 1))
done
[ "$(post "$p_router" /v1/jobs "{\"requests\":[$reqs]}")" = "202" ] \
    || fail "job submit not acknowledged" "$work/last_body.json"
job_id="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$work/last_body.json")"
[ -n "$job_id" ] || fail "job submit returned no id" "$work/last_body.json"
kill -9 "$router_pid" 2>/dev/null || fail "router already dead" "$work/router.log"
wait "$router_pid" 2>/dev/null || true
"$fdctl" route \
    --shards "127.0.0.1:$p_s0r0,127.0.0.1:$p_s0r1;127.0.0.1:$p_s1r0,127.0.0.1:$p_s1r1" \
    --addr "127.0.0.1:$p_router" --spool-dir "$work/spool" >"$work/router2.log" 2>&1 &
router_pid=$!
pids="$pids $router_pid"
wait_healthy "$p_router" "restarted router"
tries=0
while :; do
    state="$(curl -s "http://127.0.0.1:$p_router/v1/jobs/$job_id" \
        | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
    [ "$state" = "done" ] && break
    [ "$state" = "failed" ] && fail "spooled job failed after router restart" "$work/router2.log"
    tries=$((tries + 1))
    [ "$tries" -gt 600 ] && fail "spooled job never completed after restart (state '$state')" \
        "$work/router2.log"
    sleep 0.1
done
curl -s "http://127.0.0.1:$p_router/v1/jobs/$job_id/results" >"$work/results.json"
grep -q '"results":\[\[' "$work/results.json" \
    || fail "completed job served no results" "$work/results.json"
echo "==> spooled job $job_id completed after the router restart" >&2

echo "==> restart the killed replica; the half-open probe folds it back in" >&2
serve "$p_s0r0" 0/2 "$work/s0r0b.log"
wait_healthy "$p_s0r0" "restarted replica"
tries=0
while :; do
    health="$(curl -s "http://127.0.0.1:$p_router/healthz")"
    case "$health" in
    *'"up":0'* | *'"breaker":"open"'*) ;;
    *) break ;;
    esac
    tries=$((tries + 1))
    [ "$tries" -gt 200 ] && fail "restarted replica never rejoined: $health"
    sleep 0.1
done
[ "$(post "$p_router" /v1/predict '{"id":0}')" = "200" ] \
    || fail "post-recovery predict failed" "$work/last_body.json"

echo "==> router chaos drill passed" >&2
