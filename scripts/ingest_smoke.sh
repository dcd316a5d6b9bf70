#!/usr/bin/env sh
# Online-ingestion smoke for `fdctl serve` + `POST /v1/ingest`:
#
# 1. Train a bundle and serve it on an ephemeral port with a small
#    `--max-ingest-nodes` cap.
# 2. Keep a client hammering /v1/predict while articles, creators and
#    subjects are ingested through both `fdctl ingest` and raw curl —
#    every predict across every ingest must be HTTP 200.
# 3. One answer per article: /v1/predict of an article, made before it
#    is ingested, must return byte for byte the probabilities the
#    ingest then reports for it.
# 4. Ingested nodes must be readable back via predict-by-id and show up
#    in /healthz combined counts; hostile payloads must map to 4xx.
# 5. SIGHUP must discard the ingested overlay (the fast path is a cache
#    over the frozen bundle) and ingestion must work again after it.
# 6. The in-process ingest benchmark runs at a tiny scale, which
#    self-asserts the delta-vs-full-recompute bound, that no predict
#    was dropped, and that the last 1,000 of 10,000 chained ingests
#    run within 1.5x of the first 1,000.
#
# Usage: scripts/ingest_smoke.sh
#
# Exits non-zero, naming the step, on any violation.
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/fd-ingest-XXXXXX")"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
    [ -n "$server_pid" ] && wait "$server_pid" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "==> build fdctl (release)" >&2
cargo build --release --bin fdctl
fdctl=target/release/fdctl

echo "==> generate corpus + train a bundle" >&2
"$fdctl" generate --scale 0.02 --seed 7 --out "$work/corpus.json"
"$fdctl" train --corpus "$work/corpus.json" --out "$work/model.json" \
    --epochs 1 --seed 42 --mode binary

echo "==> start fdctl serve on an ephemeral port" >&2
"$fdctl" serve --corpus "$work/corpus.json" --model "$work/model.json" \
    --addr 127.0.0.1:0 --max-ingest-nodes 8 >"$work/serve.log" 2>&1 &
server_pid=$!
addr=""
tries=0
while [ -z "$addr" ]; do
    addr="$(sed -n 's/^listening on \([0-9.:]*\).*/\1/p' "$work/serve.log" | head -1)"
    [ -n "$addr" ] && break
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ] || ! kill -0 "$server_pid" 2>/dev/null; then
        echo "ingest_smoke.sh: server never came up" >&2
        cat "$work/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
base_articles="$(sed -n 's/^corpus: \([0-9]*\) articles.*/\1/p' "$work/serve.log" | head -1)"
echo "==> serving on $addr (pid $server_pid), $base_articles base articles" >&2

post() { # post <path> <body> [response file] — prints the HTTP status code
    curl -s -o "${3:-$work/last_body.json}" -w '%{http_code}' -X POST \
        -d "$2" "http://$addr$1"
}
probabilities() { # probabilities <file> — a one-node response's probability array
    sed -n 's/.*"probabilities":\[\([^]]*\)\].*/\1/p' "$1"
}
predict_body='{"text":"claim about the budget deficit and medicare","creator":0,"subjects":[0]}'
[ "$(post /v1/predict "$predict_body")" = "200" ] || {
    echo "ingest_smoke.sh: warm-up predict failed" >&2
    exit 1
}

echo "==> hammer /v1/predict while ingesting" >&2
: >"$work/codes.txt"
(
    while [ ! -e "$work/stop" ]; do
        post /v1/predict "$predict_body" >>"$work/codes.txt"
        printf '\n' >>"$work/codes.txt"
    done
) &
load_pid=$!

echo "==> predict the article the next step ingests" >&2
article='{"text":"fresh claim about the border and the budget","creator":0,"subjects":[0,1]}'
[ "$(post /v1/predict "$article" "$work/predicted.json")" = "200" ] || {
    echo "ingest_smoke.sh: predict of the article to ingest failed" >&2
    cat "$work/predicted.json" >&2
    exit 1
}

echo "==> ingest one article through fdctl ingest" >&2
"$fdctl" ingest --addr "$addr" \
    --text "fresh claim about the border and the budget" \
    --creator 0 --subjects 0,1 >"$work/ingest_cli.json"
grep -q '"articles_total"' "$work/ingest_cli.json" || {
    echo "ingest_smoke.sh: fdctl ingest printed no report" >&2
    cat "$work/ingest_cli.json" >&2
    exit 1
}
predicted="$(probabilities "$work/predicted.json")"
ingested="$(probabilities "$work/ingest_cli.json")"
[ -n "$predicted" ] && [ "$predicted" = "$ingested" ] || {
    echo "ingest_smoke.sh: one article, two answers: predict [$predicted], ingest [$ingested]" >&2
    exit 1
}

echo "==> ingest a mixed batch through raw curl" >&2
batch='{"creators":[{"profile":"new pundit"}],"subjects":[{"description":"new topic"}],"articles":[{"text":"second claim on medicare","creator":0,"subjects":[0]}]}'
[ "$(post /v1/ingest "$batch")" = "200" ] || {
    echo "ingest_smoke.sh: mixed-batch ingest failed" >&2
    cat "$work/last_body.json" >&2
    exit 1
}

echo "==> read the ingested articles back by id" >&2
for offset in 0 1; do
    id=$((base_articles + offset))
    [ "$(post /v1/predict "{\"node_type\":\"article\",\"id\":$id}")" = "200" ] || {
        echo "ingest_smoke.sh: by-id readout of article $id failed" >&2
        cat "$work/last_body.json" >&2
        exit 1
    }
done
grown=$((base_articles + 2))
curl -s "http://$addr/healthz" | grep -q "\"articles\":$grown" || {
    echo "ingest_smoke.sh: healthz does not show $grown combined articles" >&2
    curl -s "http://$addr/healthz" >&2
    exit 1
}

echo "==> hostile payloads map to 4xx" >&2
check_status() { # check_status <want> <got> <what>
    [ "$2" = "$1" ] || {
        echo "ingest_smoke.sh: $3: expected HTTP $1, got $2" >&2
        cat "$work/last_body.json" >&2
        exit 1
    }
}
check_status 400 "$(post /v1/ingest '{}')" "empty batch"
check_status 400 "$(post /v1/ingest 'not json')" "malformed JSON"
check_status 400 "$(post /v1/ingest '{"articles":[{"text":"x","creator":999999}]}')" \
    "creator out of range"
check_status 400 "$(post /v1/predict '{"text":"x","creator":0,"subjects":[1,0,1]}')" \
    "predict listing a subject twice"
big='{"creators":[{"profile":"a"},{"profile":"b"},{"profile":"c"},{"profile":"d"},{"profile":"e"},{"profile":"f"},{"profile":"g"},{"profile":"h"},{"profile":"i"}]}'
check_status 413 "$(post /v1/ingest "$big")" "batch over --max-ingest-nodes"
check_status 405 "$(curl -s -o "$work/last_body.json" -w '%{http_code}' "http://$addr/v1/ingest")" \
    "GET on /v1/ingest"

echo "==> SIGHUP discards the ingested overlay" >&2
kill -HUP "$server_pid"
tries=0
until grep -q 'reload complete' "$work/serve.log"; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && {
        echo "ingest_smoke.sh: reload never completed" >&2
        cat "$work/serve.log" >&2
        exit 1
    }
    sleep 0.1
done
curl -s "http://$addr/healthz" | grep -q "\"articles\":$base_articles" || {
    echo "ingest_smoke.sh: reload did not restore base counts" >&2
    curl -s "http://$addr/healthz" >&2
    exit 1
}
check_status 404 "$(post /v1/predict "{\"id\":$base_articles}")" \
    "by-id readout of a discarded node"

echo "==> ingestion works again after the reload" >&2
check_status 200 "$(post /v1/ingest '{"articles":[{"text":"post-reload claim","creator":0,"subjects":[0]}]}')" \
    "post-reload ingest"

touch "$work/stop"
wait "$load_pid"
total="$(wc -l <"$work/codes.txt")"
bad="$(grep -cv '^200$' "$work/codes.txt" || true)"
echo "==> $total predicts during ingest traffic, $bad non-200" >&2
[ "$total" -gt 0 ] || {
    echo "ingest_smoke.sh: load generator made no requests" >&2
    exit 1
}
[ "$bad" -eq 0 ] || {
    echo "ingest_smoke.sh: $bad predict(s) failed during ingest" >&2
    exit 1
}

echo "==> graceful shutdown" >&2
kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "==> small-scale ingest benchmark (delta bound + latency and history gates)" >&2
cargo run --release -p fd-bench --bin report -- ingest "$work/BENCH_ingest_ci.json" 0.05
grep -q '"corpus_size_independent": true' "$work/BENCH_ingest_ci.json" || {
    echo "ingest_smoke.sh: benchmark report missing the independence gate" >&2
    exit 1
}
grep -q '"history_independent": true' "$work/BENCH_ingest_ci.json" || {
    echo "ingest_smoke.sh: benchmark report missing the history gate" >&2
    exit 1
}

echo "==> ingest smoke passed" >&2
