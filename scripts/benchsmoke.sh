#!/usr/bin/env bash
# Benchmark smoke gate: run the scenario-suite, stream-session,
# serve-push and HTTP-push benchmarks once and fail if wall-clock
# regressed more than 2x against the recorded baselines
# (BENCH_engine.json, BENCH_stream.json, BENCH_serve.json). Timing
# across heterogeneous CI runners is noisy, which is why the gate is a
# coarse 2x, not a tight threshold; allocation counts are
# machine-independent and gated at +10%. The solver's layer-eval
# microbench (BENCH_solver.json) is run and reported for the record but
# not gated. Baseline lookups go through scripts/benchjson (go run), so
# the gate needs no tooling beyond the Go toolchain; multi-core scaling
# is gated separately by scripts/benchscale.sh.

baseline() { go run ./scripts/benchjson baseline -file "$1" -bench "$2" -field "$3"; }
set -euo pipefail
cd "$(dirname "$0")/.."

# ---- scenario suite ----
# 3 iterations, matching the recorded baseline: the first op pays the
# layer-memo warm-up and is amortised, exactly as in BENCH_engine.json.
out="$(go test -run '^$' -bench 'BenchmarkSuite(Serial|Parallel)$' -benchtime 3x . )"
echo "$out"

cur_ns="$(echo "$out" | awk '/^BenchmarkSuiteSerial/ {print int($3)}')"
cur_allocs="$(echo "$out" | awk '/^BenchmarkSuiteSerial/ {print int($7)}')"
if [ -z "$cur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkSuiteSerial output" >&2
  exit 1
fi

base_ns="$(baseline BENCH_engine.json BenchmarkSuiteSerial ns_per_op)"
base_allocs="$(baseline BENCH_engine.json BenchmarkSuiteSerial allocs_per_op)"

echo "benchsmoke: suite ns/op current=$cur_ns baseline=$base_ns (limit 2x)"
echo "benchsmoke: suite allocs/op current=$cur_allocs baseline=$base_allocs (limit 1.1x)"

if [ "$cur_ns" -gt "$((base_ns * 2))" ]; then
  echo "benchsmoke: FAIL — suite benchmark regressed more than 2x vs BENCH_engine.json" >&2
  exit 1
fi
if [ "$cur_allocs" -gt "$((base_allocs * 11 / 10))" ]; then
  echo "benchsmoke: FAIL — suite allocations regressed more than 10% vs BENCH_engine.json" >&2
  exit 1
fi

# ---- stream session ----
# 50 iterations, matching the recorded baseline: the first op pays the
# layer-memo warm-up, so a single iteration would measure only that.
sout="$(go test -run '^$' -bench 'BenchmarkStreamSession$' -benchtime 50x -benchmem . )"
echo "$sout"

scur_ns="$(echo "$sout" | awk '/^BenchmarkStreamSession/ {print int($3)}')"
scur_allocs="$(echo "$sout" | awk '/^BenchmarkStreamSession/ {print int($7)}')"
if [ -z "$scur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkStreamSession output" >&2
  exit 1
fi

sbase_ns="$(baseline BENCH_stream.json BenchmarkStreamSession ns_per_op)"
sbase_allocs="$(baseline BENCH_stream.json BenchmarkStreamSession allocs_per_op)"

echo "benchsmoke: stream ns/op current=$scur_ns baseline=$sbase_ns (limit 2x)"
echo "benchsmoke: stream allocs/op current=$scur_allocs baseline=$sbase_allocs (limit 1.1x)"

if [ "$scur_ns" -gt "$((sbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — stream benchmark regressed more than 2x vs BENCH_stream.json" >&2
  exit 1
fi
if [ "$scur_allocs" -gt "$((sbase_allocs * 11 / 10))" ]; then
  echo "benchsmoke: FAIL — stream allocations regressed more than 10% vs BENCH_stream.json" >&2
  exit 1
fi

# ---- serve manager push (serial + parallel) ----
# 50 iterations, same methodology as the stream baseline (first op pays
# the layer-memo warm-up and is amortised). The parallel benchmark's
# unbatched variant is gated; batch=16 is reported for the record.
vout="$(go test -run '^$' -bench 'BenchmarkServePush(Parallel)?$' -benchtime 50x -benchmem ./internal/serve )"
echo "$vout"

vcur_ns="$(echo "$vout" | awk '/^BenchmarkServePush(-[0-9]+)? / {print int($3)}')"
vcur_allocs="$(echo "$vout" | awk '/^BenchmarkServePush(-[0-9]+)? / {print int($7)}')"
if [ -z "$vcur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkServePush output" >&2
  exit 1
fi

vbase_ns="$(baseline BENCH_serve.json BenchmarkServePush ns_per_op)"
vbase_allocs="$(baseline BENCH_serve.json BenchmarkServePush allocs_per_op)"

echo "benchsmoke: serve ns/op current=$vcur_ns baseline=$vbase_ns (limit 2x)"
echo "benchsmoke: serve allocs/op current=$vcur_allocs baseline=$vbase_allocs (limit 1.1x)"

if [ "$vcur_ns" -gt "$((vbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — serve benchmark regressed more than 2x vs BENCH_serve.json" >&2
  exit 1
fi
if [ "$vcur_allocs" -gt "$((vbase_allocs * 11 / 10))" ]; then
  echo "benchsmoke: FAIL — serve allocations regressed more than 10% vs BENCH_serve.json" >&2
  exit 1
fi

# ---- serve parallel push (16 concurrent sessions, unbatched) ----
pcur_ns="$(echo "$vout" | awk '/^BenchmarkServePushParallel\/batch=1[- ]/ {print int($3)}')"
pcur_allocs="$(echo "$vout" | awk '/^BenchmarkServePushParallel\/batch=1[- ]/ {print int($7)}')"
if [ -z "$pcur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkServePushParallel/batch=1 output" >&2
  exit 1
fi

pbase_ns="$(baseline BENCH_serve.json 'BenchmarkServePushParallel/batch=1' ns_per_op)"
pbase_allocs="$(baseline BENCH_serve.json 'BenchmarkServePushParallel/batch=1' allocs_per_op)"

echo "benchsmoke: serve-parallel ns/op current=$pcur_ns baseline=$pbase_ns (limit 2x)"
echo "benchsmoke: serve-parallel allocs/op current=$pcur_allocs baseline=$pbase_allocs (limit 1.1x)"

if [ "$pcur_ns" -gt "$((pbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — parallel serve benchmark regressed more than 2x vs BENCH_serve.json" >&2
  exit 1
fi
if [ "$pcur_allocs" -gt "$((pbase_allocs * 11 / 10))" ]; then
  echo "benchsmoke: FAIL — parallel serve allocations regressed more than 10% vs BENCH_serve.json" >&2
  exit 1
fi

# ---- HTTP push path (wire codec, e2e + handler-isolated) ----
# 2000 iterations against a live in-process httptest server. The e2e
# number includes loopback TCP and the net/http serving stack; the
# Handler number strips both, so it is the codec-dominated layer where
# the wire codec's allocs/op win is pinned. The wire codec is the only
# one; BENCH_serve.json keeps the retired codec=reflect numbers for the
# record only, and nothing here runs or gates them.
hout="$(go test -run '^$' -bench 'BenchmarkHTTPPush(Handler)?$' -benchtime 2000x -benchmem ./internal/serve )"
echo "$hout"

hcur_ns="$(echo "$hout" | awk '/^BenchmarkHTTPPush\/codec=wire\/batch=1[- ]/ {print int($3)}')"
hcur_allocs="$(echo "$hout" | awk '/^BenchmarkHTTPPush\/codec=wire\/batch=1[- ]/ {print int($7)}')"
if [ -z "$hcur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkHTTPPush/codec=wire/batch=1 output" >&2
  exit 1
fi

hbase_ns="$(baseline BENCH_serve.json 'BenchmarkHTTPPush/codec=wire/batch=1' ns_per_op)"
hbase_allocs="$(baseline BENCH_serve.json 'BenchmarkHTTPPush/codec=wire/batch=1' allocs_per_op)"

echo "benchsmoke: http-push ns/op current=$hcur_ns baseline=$hbase_ns (limit 2x)"
echo "benchsmoke: http-push allocs/op current=$hcur_allocs baseline=$hbase_allocs (limit 1.1x)"

if [ "$hcur_ns" -gt "$((hbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — HTTP push benchmark regressed more than 2x vs BENCH_serve.json" >&2
  exit 1
fi
if [ "$hcur_allocs" -gt "$((hbase_allocs * 11 / 10))" ]; then
  echo "benchsmoke: FAIL — HTTP push allocations regressed more than 10% vs BENCH_serve.json" >&2
  exit 1
fi

dcur_ns="$(echo "$hout" | awk '/^BenchmarkHTTPPushHandler\/codec=wire[- ]/ {print int($3)}')"
dcur_allocs="$(echo "$hout" | awk '/^BenchmarkHTTPPushHandler\/codec=wire[- ]/ {print int($7)}')"
if [ -z "$dcur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkHTTPPushHandler/codec=wire output" >&2
  exit 1
fi

dbase_ns="$(baseline BENCH_serve.json 'BenchmarkHTTPPushHandler/codec=wire' ns_per_op)"
dbase_allocs="$(baseline BENCH_serve.json 'BenchmarkHTTPPushHandler/codec=wire' allocs_per_op)"

echo "benchsmoke: http-handler ns/op current=$dcur_ns baseline=$dbase_ns (limit 2x)"
echo "benchsmoke: http-handler allocs/op current=$dcur_allocs baseline=$dbase_allocs (limit 1.1x)"

if [ "$dcur_ns" -gt "$((dbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — HTTP handler benchmark regressed more than 2x vs BENCH_serve.json" >&2
  exit 1
fi
if [ "$dcur_allocs" -gt "$((dbase_allocs * 11 / 10))" ]; then
  echo "benchsmoke: FAIL — HTTP handler allocations regressed more than 10% vs BENCH_serve.json" >&2
  exit 1
fi

# ---- admission accept path (wait-free gate) ----
# The admission gates sit on every push before any work happens, so the
# accept path must stay allocation-free — gated at exactly 0, not a
# ratio, because a single alloc here is a design regression (the token
# bucket is a CAS loop on purpose). ns/op is informational: tens of
# nanoseconds drown in timer noise across runners. The deny path is
# allowed its one alloc (the retryAfterError carrying the computed wait).
aout="$(go test -run '^$' -bench 'BenchmarkAdmission$' -benchtime 10000x -benchmem ./internal/serve )"
echo "$aout"

acur_allocs="$(echo "$aout" | awk '/^BenchmarkAdmission\/admit[- ]/ {print int($7)}')"
if [ -z "$acur_allocs" ]; then
  echo "benchsmoke: could not parse BenchmarkAdmission/admit output" >&2
  exit 1
fi
abase_ns="$(baseline BENCH_serve.json 'BenchmarkAdmission/admit' ns_per_op)"
acur_ns="$(echo "$aout" | awk '/^BenchmarkAdmission\/admit[- ]/ {print int($3)}')"
echo "benchsmoke: admission-admit allocs/op current=$acur_allocs (limit: exactly 0)"
echo "benchsmoke: admission-admit ns/op current=${acur_ns:-?} baseline=$abase_ns (informational)"

if [ "$acur_allocs" -gt 0 ]; then
  echo "benchsmoke: FAIL — admission accept path allocates ($acur_allocs allocs/op, must be 0)" >&2
  exit 1
fi

# ---- /metrics scrape (lock-free exporter) ----
# Like the admission accept path, the exporter is gated on allocations
# at exactly 0, not a ratio: appendPromText writes into the caller's
# reused buffer from atomic loads only, so any allocation means the
# exporter grew per-scrape intermediate state. ns/op is additionally
# gated at the coarse 2x — the scrape runs on every prometheus poll and
# must stay microseconds even with all 256 histogram buckets folded.
mout="$(go test -run '^$' -bench 'BenchmarkMetricsScrape$' -benchtime 10000x -benchmem ./internal/serve )"
echo "$mout"

mcur_ns="$(echo "$mout" | awk '/^BenchmarkMetricsScrape(-[0-9]+)? / {print int($3)}')"
mcur_allocs="$(echo "$mout" | awk '/^BenchmarkMetricsScrape(-[0-9]+)? / {print int($7)}')"
if [ -z "$mcur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkMetricsScrape output" >&2
  exit 1
fi

mbase_ns="$(baseline BENCH_serve.json BenchmarkMetricsScrape ns_per_op)"

echo "benchsmoke: metrics-scrape ns/op current=$mcur_ns baseline=$mbase_ns (limit 2x)"
echo "benchsmoke: metrics-scrape allocs/op current=$mcur_allocs (limit: exactly 0)"

if [ "$mcur_ns" -gt "$((mbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — /metrics scrape regressed more than 2x vs BENCH_serve.json" >&2
  exit 1
fi
if [ "$mcur_allocs" -gt 0 ]; then
  echo "benchsmoke: FAIL — /metrics scrape allocates ($mcur_allocs allocs/op, must be 0)" >&2
  exit 1
fi

# ---- WAL append hot path (sync=never) ----
# The write-ahead path runs under every accepted slot of a WAL-enabled
# session, so like the admission gate it is held at exactly 0 allocs/op:
# the frame is encoded into the log's reused buffer and written in one
# call. ns/op gets the coarse 2x (it is a page-cache write plus the
# encode). sync=always is re-run for the record but not gated — that
# figure is the rig's fsync latency, not code cost.
wout="$(go test -run '^$' -bench 'BenchmarkWALAppend' -benchtime 10000x -benchmem ./internal/wal )"
echo "$wout"

wcur_ns="$(echo "$wout" | awk '/^BenchmarkWALAppend\/sync=never[- ]/ {print int($3)}')"
wcur_allocs="$(echo "$wout" | awk '/^BenchmarkWALAppend\/sync=never[- ]/ {print int($7)}')"
if [ -z "$wcur_ns" ]; then
  echo "benchsmoke: could not parse BenchmarkWALAppend/sync=never output" >&2
  exit 1
fi

wbase_ns="$(baseline BENCH_serve.json 'BenchmarkWALAppend/sync=never' ns_per_op)"

echo "benchsmoke: wal-append ns/op current=$wcur_ns baseline=$wbase_ns (limit 2x)"
echo "benchsmoke: wal-append allocs/op current=$wcur_allocs (limit: exactly 0)"

if [ "$wcur_ns" -gt "$((wbase_ns * 2))" ]; then
  echo "benchsmoke: FAIL — WAL append regressed more than 2x vs BENCH_serve.json" >&2
  exit 1
fi
if [ "$wcur_allocs" -gt 0 ]; then
  echo "benchsmoke: FAIL — WAL append hot path allocates ($wcur_allocs allocs/op, must be 0)" >&2
  exit 1
fi

# ---- solver layer-eval microbench (recorded, informational) ----
lout="$(go test -run '^$' -bench 'BenchmarkLayerEval' -benchtime 10x -benchmem ./internal/solver )"
echo "$lout"
lbase_ns="$(baseline BENCH_solver.json BenchmarkLayerEval ns_per_op)"
lcur_ns="$(echo "$lout" | awk '/^BenchmarkLayerEval(-[0-9]+)? / {print int($3)}')"
echo "benchsmoke: layer-eval ns/op current=${lcur_ns:-?} baseline=$lbase_ns (informational)"

echo "benchsmoke: OK"
