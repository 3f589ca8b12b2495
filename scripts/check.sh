#!/usr/bin/env bash
# Full pre-merge check: tier-1 build + test suite, then a ThreadSanitizer
# build running the federation and robustness suites (the streaming
# executor, retry/failover path and circuit breaker are heavily
# multi-threaded — tsan is the test that counts there), then an
# AddressSanitizer build running the whole tier-1 with the leak check on.
#
#   scripts/check.sh               # all phases
#   SKIP_TSAN=1 scripts/check.sh   # skip both sanitizer phases
#   SKIP_ASAN=1 scripts/check.sh   # skip only the AddressSanitizer phase
#   SKIP_OVERHEAD=1 scripts/check.sh   # skip the metrics-overhead guard
#   SKIP_PERFBENCH=1 scripts/check.sh  # skip the perfbench smoke
#
# Build trees: build/ (tier-1), build-tsan/ and build-asan/ (sanitized).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# Two tests that used to race the clock (a hedge-budget count and a
# retry-loop session expiry): rerun them under parallel load so a relapse
# into timing dependence shows up here, not as a rare tier-1 flake.
ctest --test-dir build --output-on-failure -j "$JOBS" --repeat until-fail:50 \
    -R '^(FedHedgeTest\.PerQueryBudgetLimitsSpeculation|RunWithRetryTest\.SessionDeadlineExpiryIsTerminal)$'

if [[ "${SKIP_OVERHEAD:-0}" == "1" ]]; then
  echo "== SKIP_OVERHEAD=1: skipping metrics-overhead guard =="
else
  echo "== metrics-overhead guard: micro_fed_operators with metrics on/off =="
  # The observability layer promises cheap collection: compare the floor
  # (min across repetitions — the classic microbench denoiser) of the
  # end-to-end federated join with metrics on vs off, and fail when the
  # metrics-on variant costs > 5%. Shared-machine noise drifts a few
  # percent either way, so the guard takes the best of up to 3 measurement
  # attempts — a real regression fails all of them.
  OVERHEAD_OK=0
  for attempt in 1 2 3; do
    BENCH_CSV="$(build/bench/micro_fed_operators \
        --benchmark_filter='BM_FederatedJoinThroughput(NoMetrics)?/40$' \
        --benchmark_repetitions=8 --benchmark_format=csv 2>/dev/null)"
    ON_MS="$(echo "$BENCH_CSV" | awk -F, \
        '$1 == "\"BM_FederatedJoinThroughput/40\"" {if (!m || $3 < m) m = $3}
         END {print m}')"
    OFF_MS="$(echo "$BENCH_CSV" | awk -F, \
        '$1 == "\"BM_FederatedJoinThroughputNoMetrics/40\"" {if (!m || $3 < m) m = $3}
         END {print m}')"
    if [[ -z "$ON_MS" || -z "$OFF_MS" ]]; then
      echo "error: could not parse bench output:"
      echo "$BENCH_CSV"
      exit 1
    fi
    DELTA_PCT="$(awk -v on="$ON_MS" -v off="$OFF_MS" \
        'BEGIN {printf "%.1f", (on - off) / off * 100}')"
    echo "attempt ${attempt}: metrics on ${ON_MS} ms, off ${OFF_MS} ms," \
         "delta ${DELTA_PCT}%"
    if awk -v d="$DELTA_PCT" 'BEGIN {exit !(d <= 5.0)}'; then
      OVERHEAD_OK=1
      break
    fi
  done
  if [[ "$OVERHEAD_OK" != "1" ]]; then
    echo "error: metrics collection consistently costs > 5%"
    exit 1
  fi
fi

echo "== profiler smoke: obs suites + tiny paper-grid run =="
# The obs-labelled suites cover the profiler/trace-export units; the grid
# driver then runs end-to-end at tiny scale and must emit a parseable
# 40-cell BENCH_paper_grid.json plus a loadable Chrome trace.
ctest --test-dir build --output-on-failure -j "$JOBS" -L obs
(cd build/bench && \
 LAKEFED_BENCH_SCALE=0.05 LAKEFED_TIME_SCALE=0.001 ./bench_paper_grid \
     >/dev/null)
python3 - <<'EOF'
import json
with open("build/bench/BENCH_paper_grid.json") as f:
    grid = json.load(f)
assert grid["bench"] == "paper_grid", grid.get("bench")
assert len(grid["results"]) == 40, len(grid["results"])
assert {"scale", "time_scale", "seed"} <= grid["config"].keys()
# Plan mode and network change how a query runs, never what it answers:
# each query's 8 cells (aware/unaware x 4 networks) must agree.
answers = {}
for cell in grid["results"]:
    answers.setdefault(cell["query"], []).append(cell["answers"])
for query, counts in answers.items():
    assert len(counts) == 8 and len(set(counts)) == 1, (query, counts)
with open("build/bench/BENCH_paper_grid_trace.json") as f:
    trace = json.load(f)
assert trace["traceEvents"], "empty Chrome trace"
print("paper-grid JSON ok: 40 cells, answers agree per query, trace has",
      len(trace["traceEvents"]), "events")
EOF

echo "== batch-size sweep smoke: identical answers at morsel 1/64/1024 =="
# The morsel size is a pure exchange knob — Q1 must report the same
# answer count whether rows travel one at a time or 1024 per batch.
SWEEP_BASE=""
for b in 1 64 1024; do
  COUNT="$(printf '.batch %s\n.run Q1\n.quit\n' "$b" \
      | build/examples/lakefed_shell 2>/dev/null \
      | grep -oE '^[0-9]+ answer' | head -1 | awk '{print $1}')"
  echo "batch_size ${b}: ${COUNT:-<none>} answers"
  if [[ -z "$COUNT" || "$COUNT" == "0" ]]; then
    echo "error: batch-size sweep produced no answers at batch ${b}"
    exit 1
  fi
  if [[ -z "$SWEEP_BASE" ]]; then
    SWEEP_BASE="$COUNT"
  elif [[ "$COUNT" != "$SWEEP_BASE" ]]; then
    echo "error: answer count diverges across batch sizes" \
         "(${SWEEP_BASE} vs ${COUNT} at batch ${b})"
    exit 1
  fi
done

echo "== service smoke: bench_service N=100 + JSON schema =="
# The service bench replays a mixed Q1..Q5 workload through the
# multi-tenant QueryService on the shared worker pool. The binary itself
# fails on any wrong/partial/duplicated answer; here we also check the
# emitted JSON and that the thread count stayed bounded (pool + run slots,
# not O(sessions x operators)).
(cd build/bench && \
 LAKEFED_BENCH_SCALE=0.05 LAKEFED_TIME_SCALE=0.001 \
 LAKEFED_SERVICE_SESSIONS=100 ./bench_service >/dev/null)
python3 - <<'EOF'
import json
with open("build/bench/BENCH_service.json") as f:
    doc = json.load(f)
assert doc["bench"] == "service", doc.get("bench")
assert len(doc["results"]) == 1, len(doc["results"])
row = doc["results"][0]
required = {"sessions", "ok", "shed", "wall_s", "throughput_qps",
            "p50_ms", "p95_ms", "p99_ms", "threads_peak", "workers",
            "io_threads", "run_slots", "slow_queries_recorded",
            "querylog_dropped"}
assert required <= row.keys(), required - row.keys()
assert row["ok"] + row["shed"] == row["sessions"] == 100, row
# Flight recorder off in this run: both counters must be pinned to 0.
assert row["slow_queries_recorded"] == 0 == row["querylog_dropped"], row
bound = row["workers"] + row["io_threads"] + row["run_slots"] + 8
assert row["threads_peak"] <= bound, (row["threads_peak"], bound)
print("service JSON ok: 100 sessions, threads peak",
      row["threads_peak"], "<=", bound)
EOF

echo "== monitor smoke: live /metrics scrape during bench_service =="
# The exporter runs inside the QueryService for the whole wave; a scraper
# polls until /healthz answers, then validates the Prometheus exposition
# (every sample value must parse, scheduler families must be present), the
# /statusz JSON and the flight-recorder JSONL while queries are in flight.
MONITOR_PORT=19309
(cd build/bench && \
 LAKEFED_BENCH_SCALE=0.05 LAKEFED_TIME_SCALE=0.001 \
 LAKEFED_SERVICE_SESSIONS=3000 LAKEFED_SERVICE_QUERYLOG=1 \
 LAKEFED_SERVICE_MONITOR_PORT="$MONITOR_PORT" ./bench_service >/dev/null) &
MONITOR_BENCH_PID=$!
MONITOR_PORT="$MONITOR_PORT" python3 - <<'EOF'
import json, os, time, urllib.request

base = "http://127.0.0.1:%d" % int(os.environ["MONITOR_PORT"])

def get(path):
    with urllib.request.urlopen(base + path, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
               resp.read().decode()

deadline = time.time() + 120
while True:
    try:
        status, _, body = get("/healthz")
        break
    except OSError:
        if time.time() > deadline:
            raise SystemExit("error: exporter never answered /healthz")
        time.sleep(0.05)
assert status == 200 and "ok" in body, (status, body)

status, ctype, text = get("/metrics")
assert status == 200 and ctype.startswith("text/plain"), (status, ctype)
families = set()
for line in text.splitlines():
    if line.startswith("# TYPE "):
        families.add(line.split()[2])
    elif line and not line.startswith("#"):
        float(line.rsplit(" ", 1)[1])  # every sample value must parse
assert any(f.startswith("lakefed_") for f in families), families
assert any("svc_scheduler" in f for f in families), families

status, _, text = get("/statusz")
assert status == 200, status
doc = json.loads(text)
assert {"build", "uptime_s", "pool", "query_log"} <= doc.keys(), doc.keys()
assert doc["query_log"]["enabled"] is True, doc["query_log"]

status, _, text = get("/queryz")
assert status == 200, status
for line in filter(None, text.splitlines()):
    rec = json.loads(line)
    assert {"id", "fingerprint", "total_ms"} <= rec.keys(), rec.keys()

print("monitor scrape ok: %d metric families live mid-run" % len(families))
EOF
wait "$MONITOR_BENCH_PID"

echo "== chaos smoke: seeded soak + hedge A/B, digests must hold =="
# A short fixed-seed run of the chaos bench: mixed Q1..Q5 under per-source
# error/slow-spike injection through the query service plus the hedged-vs-unhedged
# replica race. The binary exits nonzero on any unflagged wrong digest, on
# a hedge p99 speedup < 2x, and its watchdog aborts on a hang; here we also
# check the JSON and the soak thread bound.
(cd build/bench && \
 LAKEFED_BENCH_SCALE=0.05 LAKEFED_TIME_SCALE=0.001 LAKEFED_CHAOS_SEED=7 \
 LAKEFED_CHAOS_SESSIONS=60 LAKEFED_CHAOS_AB_SESSIONS=25 \
 LAKEFED_CHAOS_SLOW_MS=15 ./bench_chaos >/dev/null)
python3 - <<'EOF'
import json
with open("build/bench/BENCH_chaos.json") as f:
    doc = json.load(f)
assert doc["bench"] == "chaos", doc.get("bench")
soak = [r for r in doc["results"] if r["phase"] == "soak"]
assert {r["dataflow"] for r in soak} == {"scheduler"}, soak
for r in soak:
    assert r["wrong"] == 0 and r["errors"] == 0, r
    assert r["ok"] + r["degraded"] == r["sessions"] == 60, r
sched = next(r for r in soak if r["dataflow"] == "scheduler")
assert sched["threads_peak"] <= 64, sched["threads_peak"]
ab = [r for r in doc["results"] if r["phase"] == "hedge_ab_summary"]
assert len(ab) == 1 and all(r["p99_speedup"] >= 2.0 for r in ab), ab
print("chaos JSON ok: 0 wrong digests, hedge p99 speedup",
      ", ".join("%.1fx" % r["p99_speedup"] for r in ab))
EOF

echo "== cache smoke: repeat-query workload, hit rates + JSON schema =="
# The plan-cache bench replays Q1..Q5 cold/warm against the engine caches
# and then a 1000-request mix through the QueryService with caching on.
# The binary itself aborts on any answer divergence from the cache-off
# baseline, on a preparation-time reduction < 5x, or on a plan-cache hit
# rate < 90%; here we also check the emitted JSON.
(cd build/bench && \
 LAKEFED_BENCH_SCALE=0.05 LAKEFED_TIME_SCALE=0.001 ./bench_plan_cache \
     >/dev/null)
python3 - <<'EOF'
import json
with open("build/bench/BENCH_plan_cache.json") as f:
    doc = json.load(f)
assert doc["bench"] == "plan_cache", doc.get("bench")
repeats = [r for r in doc["results"] if r["phase"] == "repeat"]
assert {r["query"] for r in repeats} == {"Q1", "Q2", "Q3", "Q4", "Q5"}, repeats
for r in repeats:
    assert r["answers_match_baseline"] is True, r
service = [r for r in doc["results"] if r["phase"] == "service"]
assert len(service) == 1, doc["results"]
row = service[0]
required = {"requests", "completed", "wall_s", "plan_hit_rate",
            "parsed_hit_rate", "sub_answer_hit_rate", "prep_reduction_x"}
assert required <= row.keys(), required - row.keys()
assert row["completed"] == row["requests"] == 1000, row
assert row["plan_hit_rate"] >= 0.9, row["plan_hit_rate"]
assert row["prep_reduction_x"] >= 5.0, row["prep_reduction_x"]
print("plan-cache JSON ok: plan hit rate %.1f%%, prep reduction %.1fx"
      % (100 * row["plan_hit_rate"], row["prep_reduction_x"]))
EOF

if [[ "${SKIP_PERFBENCH:-0}" == "1" ]]; then
  echo "== SKIP_PERFBENCH=1: skipping perfbench smoke =="
else
  echo "== perfbench smoke: every BENCHMARK.json workload, digest-checked =="
  # Builds perfbench_driver into .bench_build/ (the first time takes a
  # minute or two), then runs each workload untraced and traced on a small
  # lake for a second: every answer must match its reference digest and
  # every declared metric must be printed.
  python3 perfbench/smoke.py
fi

if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
  echo "== SKIP_TSAN=1: skipping ThreadSanitizer phase =="
  exit 0
fi

echo "== tsan: LAKEFED_SANITIZE=thread build + fed/robustness tests =="
cmake -B build-tsan -S . -DLAKEFED_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
# Robustness-labelled suites (fault injection, retry, failover, fuzz) plus
# every fed_* suite (sessions, executor, engine, batched exchange) and the
# batched queue primitives under tsan.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L robustness
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R '^Fed'
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'BlockingQueueBatch'
# The shared worker-pool scheduler and the multi-tenant service (svc label:
# work-stealing, task wakeups, admission control, the >=64-session stress
# mix) plus the queue listener primitives they are wired to.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L svc
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'BlockingQueueListener'
# The reuse layer (sharded LRU caches, epoch stamps, concurrent sessions
# populating and replaying sub-answers) under tsan.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L cache
# The monitoring plane (HTTP exporter scraping live registries, meta-source
# snapshots, the query-log ring): scrapes race queries by design.
# --no-tests=error: a label typo must fail loudly, not skip silently.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L monitor \
    --no-tests=error

if [[ "${SKIP_ASAN:-0}" == "1" ]]; then
  echo "== SKIP_ASAN=1: skipping AddressSanitizer phase =="
  exit 0
fi

echo "== asan: LAKEFED_SANITIZE=address build + the whole tier-1 =="
# The whole suite (about 11 s under asan), leak check on: rdf::Term owns
# raw memory through a union, the relational cursor lends rows the SQL
# leaf decodes in place, and the hedge/cancellation machinery hands staged
# rows across racing threads — a use-after-free or leak on any of those
# paths shows up only here.
cmake -B build-asan -S . -DLAKEFED_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}detect_leaks=1" \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== all checks passed =="
