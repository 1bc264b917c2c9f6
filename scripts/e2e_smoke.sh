#!/usr/bin/env bash
# e2e_smoke.sh — the daemon must not rot: build the real binaries, start
# mltuned, gather samples with the devsim measurer, ingest them over
# POST /v1/samples, run a POST /v1/train job, and round-trip a
# /v1/predict from the freshly trained model. Then the telemetry path:
# a short mlbench load pass against the trained model, schema validation
# of its BENCH_serve.json report (exported via $BENCH_OUT for CI to
# upload), and a /metrics scrape asserting the core series are present
# and counting. Then the portable path: gather a second device's
# samples, train the pooled <bench>@* model, and predict for a third
# device that never trained — by catalog name and by inline descriptor.
# Finally the fleet path: a read-only serve replica (-role serve,
# -storage memory) pulls the train node's models over -upstream, serves
# predictions from them, refuses writes with 405/read_only, and picks up
# a retrain with zero downtime — every predict during the rollout must
# answer 200 while the replication cursor advances. The RPC plane rides
# along (-rpc-addr on the train node, mlbench -proto rpc, rpc metrics),
# and a two-shard fleet closes the run: each shard serves only the keys
# it owns, answers 421 not_owner naming the owner for the rest (the
# script follows the redirect like a client would), replicates only its
# own slice, and the owning shard's top-M answer is set-identical to the
# unsharded node's.
# CI runs this on every push; it is also runnable locally from the repo
# root.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18372"
BASE="http://$ADDR"
RPC_ADDR="127.0.0.1:19372"
DEVICE="Intel i7 3770"
DEVICE_Q="Intel%20i7%203770"
DEVICE2="AMD Radeon HD 7970"
DEVICE3_Q="Nvidia%20K40"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/bin"
mkdir -p "$BIN"

cleanup() {
    [ -n "${SHARD0_PID:-}" ] && kill "$SHARD0_PID" 2>/dev/null || true
    [ -n "${SHARD1_PID:-}" ] && kill "$SHARD1_PID" 2>/dev/null || true
    [ -n "${REPLICA_PID:-}" ] && kill "$REPLICA_PID" 2>/dev/null || true
    [ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$BIN/mltune" ./cmd/mltune
go build -o "$BIN/mltuned" ./cmd/mltuned
go build -o "$BIN/mlbench" ./cmd/mlbench

echo "== gathering samples offline (devsim measurer)"
"$BIN/mltune" -bench convolution -device "$DEVICE" -n 60 -m 8 -seed 7 \
    -dump-samples "$WORKDIR/samples.jsonl" >/dev/null
[ -s "$WORKDIR/samples.jsonl" ] || { echo "no samples dumped" >&2; exit 1; }

echo "== starting mltuned (HTTP + RPC planes)"
# -engine int16 matches the committed bench baselines' run.engine:
# bench_diff refuses cross-engine comparisons, so the daemon mlbench
# measures must serve the engine the baselines were recorded on.
"$BIN/mltuned" -addr "$ADDR" -rpc-addr "$RPC_ADDR" -engine int16 \
    -models "$WORKDIR/models" -samples "$WORKDIR/samples" -train-workers 2 &
DAEMON_PID=$!

for i in $(seq 1 50); do
    curl -fs "$BASE/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && { echo "daemon never became healthy" >&2; exit 1; }
    sleep 0.2
done

echo "== predict before training must 404"
code="$(curl -s -o /dev/null -w '%{http_code}' \
    "$BASE/v1/predict?benchmark=convolution&device=$DEVICE_Q&index=7")"
[ "$code" = 404 ] || { echo "pre-train predict returned $code, want 404" >&2; exit 1; }

echo "== ingest + train + verify round-trip (mltune train)"
"$BIN/mltune" train -daemon "$BASE" -bench convolution -device "$DEVICE" \
    -samples "$WORKDIR/samples.jsonl" -ensemble-k 3 -hidden 8 -epochs 150 -verify

echo "== predict after training serves the swapped model"
out="$(curl -fs "$BASE/v1/predict?benchmark=convolution&device=$DEVICE_Q&index=7")"
echo "$out"
echo "$out" | grep -q '"seconds"' || { echo "prediction missing seconds" >&2; exit 1; }

echo "== mlbench load pass + report schema validation"
BENCH_OUT="${BENCH_OUT:-$WORKDIR/BENCH_serve.json}"
"$BIN/mlbench" -addr "$BASE" -device "$DEVICE" -workers 2 \
    -warmup 1s -duration 3s -out "$BENCH_OUT"
"$BIN/mlbench" -validate "$BENCH_OUT"

echo "== mlbench over the binary RPC plane"
BENCH_RPC_OUT="${BENCH_RPC_OUT:-$WORKDIR/BENCH_rpc.json}"
"$BIN/mlbench" -addr "$BASE" -proto rpc -rpc-addr "$RPC_ADDR" \
    -device "$DEVICE" -workers 2 -warmup 1s -duration 3s -out "$BENCH_RPC_OUT"
"$BIN/mlbench" -validate "$BENCH_RPC_OUT"
grep -q '"proto": "rpc"' "$BENCH_RPC_OUT" \
    || { echo "rpc report does not record proto rpc" >&2; exit 1; }
python3 - "$BENCH_RPC_OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for name, ep in r["endpoints"].items():
    if ep["errors"]:
        sys.exit(f"rpc bench endpoint {name} saw {ep['errors']} errors")
EOF
metrics="$(curl -fs "$BASE/metrics")"
for want in \
    '^# TYPE mltuned_rpc_requests_total counter' \
    'mltuned_rpc_requests_total\{method="predict"\} [1-9]' \
    'mltuned_rpc_requests_total\{method="predict_batch"\} [1-9]' \
    'mltuned_rpc_requests_total\{method="topm"\} [1-9]' \
    'mltuned_rpc_responses_total\{method="predict",status="ok"\} [1-9]' \
    ; do
    echo "$metrics" | grep -E "$want" >/dev/null \
        || { echo "/metrics is missing or zero: $want" >&2; exit 1; }
done

echo "== /metrics scrape exposes the core series, counting"
metrics="$(curl -fs "$BASE/metrics")"
for want in \
    '^# TYPE mltuned_http_requests_total counter' \
    '^# TYPE mltuned_http_request_duration_seconds histogram' \
    'mltuned_http_requests_total\{route="GET /v1/predict"\} [1-9]' \
    'mltuned_http_request_duration_seconds_count\{route="GET /v1/predict"\} [1-9]' \
    'mltuned_http_requests_total\{route="GET /v1/topm"\} [1-9]' \
    '^mltuned_jobs_submitted_total [1-9]' \
    '^mltuned_samples_appended_total [1-9]' \
    '^mltuned_serve_cache_hits_total [1-9]' \
    ; do
    echo "$metrics" | grep -E "$want" >/dev/null \
        || { echo "/metrics is missing or zero: $want" >&2; exit 1; }
done
curl -fs "$BASE/readyz" | grep -Eq '"ready": ?true' \
    || { echo "/readyz not ready on a healthy daemon" >&2; exit 1; }
# Capture before grepping, and grep without -q: on a body larger than
# the pipe buffer, grep -q exiting at the first match breaks the pipe
# under pipefail despite the match.
stats="$(curl -fs "$BASE/v1/stats")"
echo "$stats" | grep '"telemetry"' >/dev/null \
    || { echo "/v1/stats missing the telemetry snapshot" >&2; exit 1; }

echo "== sample store and registry report the artifacts"
curl -fs "$BASE/v1/samples?benchmark=convolution&device=$DEVICE_Q" | grep -q '"records"'
curl -fs "$BASE/v1/models" | grep -Eq '"benchmark": ?"convolution"'
curl -fs "$BASE/v1/models" | grep -q '"resolution_order"'

echo "== portable path: second device's samples, pooled @* training"
"$BIN/mltune" -bench convolution -device "$DEVICE2" -n 60 -m 8 -seed 9 \
    -dump-samples "$WORKDIR/samples2.jsonl" >/dev/null
"$BIN/mltune" train -daemon "$BASE" -bench convolution -device "$DEVICE2" \
    -samples "$WORKDIR/samples2.jsonl" -ensemble-k 3 -hidden 8 -epochs 150
curl -fs "$BASE/v1/samples?benchmark=convolution" | grep -q "$DEVICE2" \
    || { echo "benchmark-only sample listing misses $DEVICE2" >&2; exit 1; }
"$BIN/mltune" train -daemon "$BASE" -bench convolution -device '*' \
    -ensemble-k 3 -hidden 8 -epochs 150 -verify -verify-device "$DEVICE"
curl -fs "$BASE/v1/models" | grep -Eq '"portable": ?true' \
    || { echo "registry does not list the portable model" >&2; exit 1; }

echo "== portable predict for a device that never trained (catalog name)"
out="$(curl -fs "$BASE/v1/predict?benchmark=convolution&device=$DEVICE3_Q&index=7")"
echo "$out"
echo "$out" | grep -Eq '"resolution": ?"portable"' \
    || { echo "expected portable resolution for $DEVICE3_Q" >&2; exit 1; }

echo "== portable predict for unseen hardware (inline descriptor)"
DESC='{"name":"Hypothetical GPU X","kind":"GPU","compute_units":24,"simd_width":32,"clock_ghz":1.3,"mem_bandwidth_gbs":512,"mem_latency_ns":300,"cache_line_bytes":128,"llc_bytes":4194304,"lds_bytes_per_cu":65536,"max_work_group_size":1024}'
DESC_Q="$(python3 -c 'import sys,urllib.parse; print(urllib.parse.quote(sys.argv[1]))' "$DESC")"
out="$(curl -fs "$BASE/v1/predict?benchmark=convolution&index=7&descriptor=$DESC_Q")"
echo "$out"
echo "$out" | grep -Eq '"resolution": ?"portable"' \
    || { echo "inline-descriptor predict did not resolve portable" >&2; exit 1; }
echo "$out" | grep -q '"seconds"' || { echo "inline prediction missing seconds" >&2; exit 1; }

echo "== two-node: read-only serve replica pulling from the train node"
# The replica runs the int8 read-path engine: replicated installs must
# decode into the packed engine and serve from it, and the top-M answers
# must stay engine-independent.
ADDR2="127.0.0.1:18373"
BASE2="http://$ADDR2"
"$BIN/mltuned" -addr "$ADDR2" -role serve -storage memory -engine int8 \
    -upstream "$BASE" -sync-interval 200ms &
REPLICA_PID=$!
# /readyz gates on the first successful sync, so readiness here proves
# the replica has already pulled the train node's models.
for i in $(seq 1 50); do
    curl -fs "$BASE2/readyz" 2>/dev/null | grep -Eq '"ready": ?true' && break
    [ "$i" = 50 ] && { echo "replica never became ready (first sync)" >&2; exit 1; }
    sleep 0.2
done

echo "== replica serves the train node's model"
out="$(curl -fs "$BASE2/v1/predict?benchmark=convolution&device=$DEVICE_Q&index=7")"
echo "$out"
echo "$out" | grep -q '"seconds"' || { echo "replica prediction missing seconds" >&2; exit 1; }

echo "== replica refuses writes with a machine-readable kind"
body="$(curl -s -X POST "$BASE2/v1/train" -d '{"benchmark":"convolution","device":"'"$DEVICE"'"}')"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE2/v1/train" \
    -d '{"benchmark":"convolution","device":"'"$DEVICE"'"}')"
[ "$code" = 405 ] || { echo "replica POST /v1/train returned $code, want 405" >&2; exit 1; }
echo "$body" | grep -Eq '"kind": ?"read_only"' \
    || { echo "replica 405 missing kind read_only: $body" >&2; exit 1; }

echo "== replica stats expose role, storage backend and replication state"
stats2="$(curl -fs "$BASE2/v1/stats")"
echo "$stats2" | grep -E '"role": ?"serve"' >/dev/null || { echo "replica stats missing role" >&2; exit 1; }
echo "$stats2" | grep -E '"models": ?"memory"' >/dev/null || { echo "replica stats missing storage backend" >&2; exit 1; }
echo "$stats2" | grep -E '"synced": ?true' >/dev/null || { echo "replica stats not synced" >&2; exit 1; }
gen0="$(echo "$stats2" | python3 -c 'import json,sys; print(json.load(sys.stdin)["replication"]["generation"])')"
[ "$gen0" -gt 0 ] || { echo "replica cursor is zero after sync" >&2; exit 1; }

echo "== zero-downtime rollout: retrain upstream, replica stays serving"
"$BIN/mltune" train -daemon "$BASE" -bench convolution -device "$DEVICE" \
    -samples "$WORKDIR/samples.jsonl" -ensemble-k 3 -hidden 8 -epochs 150
# Poll with live predicts: every request during the rollout must answer
# 200 (the atomic swap never leaves a torn or missing model), and the
# replica's cursor must advance past the retrain within a few sync
# intervals.
rolled=""
for i in $(seq 1 50); do
    code="$(curl -s -o /dev/null -w '%{http_code}' \
        "$BASE2/v1/predict?benchmark=convolution&device=$DEVICE_Q&index=7")"
    [ "$code" = 200 ] || { echo "replica predict returned $code mid-rollout" >&2; exit 1; }
    gen="$(curl -fs "$BASE2/v1/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["replication"]["generation"])')"
    if [ "$gen" -gt "$gen0" ]; then rolled=1; break; fi
    sleep 0.2
done
[ -n "$rolled" ] || { echo "replica cursor never advanced past the retrain" >&2; exit 1; }

echo "== replication metrics count on the replica"
metrics2="$(curl -fs "$BASE2/metrics")"
for want in \
    '^mltuned_replication_syncs_total [1-9]' \
    '^mltuned_replication_models_installed_total [1-9]' \
    '^mltuned_replication_generation [1-9]' \
    '^mltuned_replication_last_success_timestamp_seconds [1-9]' \
    ; do
    echo "$metrics2" | grep -E "$want" >/dev/null \
        || { echo "replica /metrics is missing or zero: $want" >&2; exit 1; }
done

echo "== replica shutdown"
kill -TERM "$REPLICA_PID"
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""

echo "== two-shard fleet: each shard owns a slice of the keyspace"
SH0_ADDR="127.0.0.1:18374"; SH0_RPC="127.0.0.1:19374"
SH1_ADDR="127.0.0.1:18375"; SH1_RPC="127.0.0.1:19375"
PEERS="http://$SH0_ADDR,http://$SH1_ADDR"
RPC_PEERS="$SH0_RPC,$SH1_RPC"
# The shards serve the upstream's engine (int16): the redirect check
# below asserts bit-identical predictions against the unsharded node,
# which only holds when both quantise the same way.
"$BIN/mltuned" -addr "$SH0_ADDR" -rpc-addr "$SH0_RPC" -role serve -storage memory -engine int16 \
    -upstream "$BASE" -sync-interval 200ms -shard 0/2 -peers "$PEERS" -rpc-peers "$RPC_PEERS" &
SHARD0_PID=$!
"$BIN/mltuned" -addr "$SH1_ADDR" -rpc-addr "$SH1_RPC" -role serve -storage memory -engine int16 \
    -upstream "$BASE" -sync-interval 200ms -shard 1/2 -peers "$PEERS" -rpc-peers "$RPC_PEERS" &
SHARD1_PID=$!
for base in "http://$SH0_ADDR" "http://$SH1_ADDR"; do
    for i in $(seq 1 50); do
        curl -fs "$base/readyz" 2>/dev/null | grep -Eq '"ready": ?true' && break
        [ "$i" = 50 ] && { echo "shard at $base never became ready" >&2; exit 1; }
        sleep 0.2
    done
done

echo "== shard-filtered replication: concrete keys land on one shard, portable on both"
models0="$(curl -fs "http://$SH0_ADDR/v1/models")"
models1="$(curl -fs "http://$SH1_ADDR/v1/models")"
for m in "$models0" "$models1"; do
    echo "$m" | grep -Eq '"portable": ?true' \
        || { echo "a shard is missing the portable @* model" >&2; exit 1; }
done
for dev in "$DEVICE" "$DEVICE2"; do
    n=0
    echo "$models0" | grep -Eq "\"device\": ?\"$dev\"" && n=$((n+1))
    echo "$models1" | grep -Eq "\"device\": ?\"$dev\"" && n=$((n+1))
    [ "$n" = 1 ] || { echo "$n shards hold $dev, want exactly 1" >&2; exit 1; }
done

echo "== owned key serves; the other shard answers 421 not_owner naming the owner"
PREDICT_Q="benchmark=convolution&device=$DEVICE_Q&index=7"
if curl -fs "http://$SH0_ADDR/v1/predict?$PREDICT_Q" >/dev/null 2>&1; then
    OWNER_BASE="http://$SH0_ADDR"; LOSER_BASE="http://$SH1_ADDR"; LOSER_RPC="$SH1_RPC"
else
    OWNER_BASE="http://$SH1_ADDR"; LOSER_BASE="http://$SH0_ADDR"; LOSER_RPC="$SH0_RPC"
fi
owner_out="$(curl -fs "$OWNER_BASE/v1/predict?$PREDICT_Q")"
echo "$owner_out" | grep -q '"seconds"' || { echo "owner shard prediction missing seconds" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "$LOSER_BASE/v1/predict?$PREDICT_Q")"
[ "$code" = 421 ] || { echo "non-owner predict returned $code, want 421" >&2; exit 1; }
redirect="$(curl -s "$LOSER_BASE/v1/predict?$PREDICT_Q")"
echo "$redirect"
echo "$redirect" | grep -Eq '"kind": ?"not_owner"' \
    || { echo "421 body missing kind not_owner" >&2; exit 1; }
named="$(echo "$redirect" | python3 -c 'import json,sys; print(json.load(sys.stdin)["owner"]["addr"])')"
[ "$named" = "$OWNER_BASE" ] || { echo "redirect names $named, want $OWNER_BASE" >&2; exit 1; }

echo "== following the redirect reaches the same answer as the unsharded node"
followed="$(curl -fs "$named/v1/predict?$PREDICT_Q")"
unsharded="$(curl -fs "$BASE/v1/predict?$PREDICT_Q")"
python3 - "$followed" "$unsharded" <<'EOF'
import json, sys
a, b = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if (a["index"], a["seconds"]) != (b["index"], b["seconds"]):
    sys.exit(f"followed redirect answered {a}, unsharded node {b}")
EOF

echo "== owning shard's top-M is set-identical to the unsharded node's"
TOPM_Q="benchmark=convolution&device=$DEVICE_Q&m=8"
python3 - "$(curl -fs "$OWNER_BASE/v1/topm?$TOPM_Q")" "$(curl -fs "$BASE/v1/topm?$TOPM_Q")" <<'EOF'
import json, sys
pick = lambda doc: sorted(r["index"] for r in json.loads(doc)["top"])
sharded, unsharded = pick(sys.argv[1]), pick(sys.argv[2])
if sharded != unsharded:
    sys.exit(f"top-M sets differ: sharded {sharded} vs unsharded {unsharded}")
print(f"top-M set identical across topologies: {sharded}")
EOF

echo "== rpc client follows the not_owner redirect (mlbench aimed at the wrong shard)"
"$BIN/mlbench" -addr "$OWNER_BASE" -proto rpc -rpc-addr "$LOSER_RPC" \
    -device "$DEVICE" -workers 2 -mix single=1,batch=1,topm=1 \
    -warmup 500ms -duration 2s -out "$WORKDIR/BENCH_shard_rpc.json"
python3 - "$WORKDIR/BENCH_shard_rpc.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for name, ep in r["endpoints"].items():
    if ep["errors"] or not ep["ok"]:
        sys.exit(f"sharded rpc bench endpoint {name}: ok {ep['ok']}, errors {ep['errors']}")
EOF

echo "== shard shutdown"
kill -TERM "$SHARD0_PID" "$SHARD1_PID"
wait "$SHARD0_PID" 2>/dev/null || true
wait "$SHARD1_PID" 2>/dev/null || true
SHARD0_PID=""; SHARD1_PID=""

echo "== graceful shutdown"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "e2e smoke OK"
