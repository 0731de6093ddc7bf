#!/bin/sh
# serve-smoke.sh — end-to-end smoke of the fcma-serve daemon over real
# HTTP and real signals: start the server on an ephemeral port, submit a
# synthetic job, fetch its result with one request (which waits for the
# job to finish), SIGTERM the process, and assert a clean drain (exit 0);
# then restart on the same state directory and assert the settled job is
# gone and its id is not handed out again. This is the path no Go test
# covers: the actual binary, the actual socket, the actual signal handler.
#
# Requires: go, curl. Exits non-zero on any failure.
#
# Set SERVE_SMOKE_OUT to a directory to keep the run's artifacts (server
# log, /metrics scrape, /api/v1/stats document, Chrome-trace timeline) —
# CI uploads them from failed runs.
set -eu

workdir=$(mktemp -d)
state="$workdir/state"
addrfile="$workdir/addr"
log="$workdir/serve.log"
outdir="${SERVE_SMOKE_OUT:-}"
pid=""

cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    if [ -n "$outdir" ]; then
        mkdir -p "$outdir"
        for f in serve.log metrics stats.json serve-trace.json submit-headers; do
            [ -e "$workdir/$f" ] && cp "$workdir/$f" "$outdir/" || true
        done
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- server log ---" >&2
    cat "$log" >&2 || true
    exit 1
}

echo "serve-smoke: building fcma-serve"
go build -o "$workdir/fcma-serve" ./cmd/fcma-serve

# start_server runs fcma-serve on the state directory and waits for the
# bound address; it sets pid and base.
start_server() {
    rm -f "$addrfile"
    "$workdir/fcma-serve" -listen 127.0.0.1:0 -dir "$state" -addr-file "$addrfile" \
        -chunk 16 -executors 1 -trace-out "$traceout" >>"$log" 2>&1 &
    pid=$!
    i=0
    while [ ! -s "$addrfile" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "server never wrote its address"
        kill -0 "$pid" 2>/dev/null || fail "server exited during startup"
        sleep 0.1
    done
    base="http://$(cat "$addrfile")"
    echo "serve-smoke: server at $base"
}

# drain_server sends SIGTERM and requires exit 0.
drain_server() {
    kill -TERM "$pid"
    rc=0
    wait "$pid" || rc=$?
    pid=""
    [ "$rc" -eq 0 ] || fail "server exited $rc on SIGTERM, want 0"
}

echo "serve-smoke: starting server"
traceout="$workdir/serve-trace.json"
start_server

# Readiness and health answer.
curl -fsS "$base/healthz" >/dev/null || fail "/healthz not OK"
curl -fsS "$base/readyz" >/dev/null || fail "/readyz not ready"

# Submit a small synthetic job. The response must name the job and its
# trace, and the headers must echo a request id and the job's trace id.
hdrs="$workdir/submit-headers"
resp=$(curl -fsS -D "$hdrs" -XPOST "$base/api/v1/jobs" \
    -d '{"synthetic":"face-scene","scale":0.002,"name":"smoke","tenant":"smoke"}') \
    || fail "job submission refused"
id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "submission response had no job id: $resp"
trace_id=$(echo "$resp" | sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p')
[ -n "$trace_id" ] || fail "submission response had no trace_id: $resp"
grep -qi "^x-request-id:" "$hdrs" || fail "submit response missing X-Request-ID"
grep -qi "^x-trace-id: $trace_id" "$hdrs" \
    || fail "submit X-Trace-ID does not match body trace_id $trace_id"
echo "serve-smoke: submitted $id (trace $trace_id)"

# One result request, issued right after the submit, waits for the job
# to settle and answers 200 with the scores (a 409 would mean the job did
# not finish within the server's hold).
result=$(curl -sS -w '\n%{http_code}' "$base/api/v1/jobs/$id/result") || fail "result fetch failed"
code=$(echo "$result" | tail -n 1)
[ "$code" = 200 ] || fail "result of $id answered $code, want 200: $result"
echo "$result" | grep -q '"voxel"' || fail "result has no scores: $result"
echo "serve-smoke: $id done, result served on the first request"

# Metrics reflect the run: job counters, per-route RED series,
# per-tenant labels, WAL latency, the pipeline's stage series, and the
# process-wide health counters the svm and safe packages keep.
metrics="$workdir/metrics"
curl -fsS "$base/metrics" >"$metrics" || fail "metrics scrape failed"
assert_metric() {
    grep -q "$1" "$metrics" || fail "metrics missing $1"
}
assert_metric '^serve_jobs_done_total 1'
assert_metric '^http_requests_total{code="2xx",method="POST",route="POST /api/v1/jobs"} 1'
assert_metric '^http_request_seconds_count{method="POST",route="POST /api/v1/jobs"} 1'
assert_metric '^serve_tenant_jobs_submitted_total{tenant="smoke"} 1'
assert_metric '^serve_tenant_jobs_completed_total{tenant="smoke"} 1'
assert_metric '^serve_tenant_job_seconds_count{tenant="smoke"} 1'
assert_metric '^serve_tenant_queue_wait_seconds_count{tenant="smoke"} 1'
assert_metric '^wal_fsync_seconds_count{log="serve"}'
assert_metric '^wal_records_total{log="serve"}'
assert_metric '^stage_corr_fused_seconds_count'
assert_metric '^svm_cv_runs_total'
assert_metric '^safe_items_completed_total'
assert_metric '^serve_queue_depth '
assert_metric '^go_goroutines '

# Per-tenant stats mirror the same accounting as one JSON document.
curl -fsS "$base/api/v1/stats" >"$workdir/stats.json" || fail "stats fetch failed"
grep -q '"smoke":{"submitted":1,"completed":1' "$workdir/stats.json" \
    || fail "stats do not show the smoke tenant: $(cat "$workdir/stats.json")"

# SIGTERM drains: exit 0.
drain_server

# The drain wrote one merged Chrome-trace timeline, and the submitted
# job's trace runs from the HTTP request root down to kernel spans.
[ -s "$traceout" ] || fail "no trace file at $traceout"
for span in "http POST /api/v1/jobs" "serve/job" "serve/queue_wait" \
    "serve/attempt" "serve/wal_append" "core/task"; do
    grep -q "\"name\": \"$span\"" "$traceout" \
        || fail "trace file missing span \"$span\""
done

# Every job was terminal, so the drain kept only the journal's id floor:
# the restarted server lists no job and gives the next submit a new id.
start_server
jobs=$(curl -fsS "$base/api/v1/jobs") || fail "job list failed after restart"
case "$jobs" in *"\"$id\""*) fail "settled job $id survived the drain: $jobs" ;; esac
resp=$(curl -fsS -XPOST "$base/api/v1/jobs" \
    -d '{"synthetic":"face-scene","scale":0.002,"name":"smoke","tenant":"smoke"}') \
    || fail "job submission refused after restart"
next=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$next" ] && [ "$next" != "$id" ] || fail "restarted server handed out $next, want an id other than $id"
echo "serve-smoke: restarted, $id gone, next job $next"
drain_server

echo "serve-smoke: PASS"
