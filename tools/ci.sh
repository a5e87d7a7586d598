#!/usr/bin/env bash
# Full local CI pass:
#   1. tier-1: configure + build + the complete ctest suite;
#   2. tier-2: TSan build (-DPS_SANITIZE=thread) running the
#      concurrency-sensitive tests (`ctest -L tier2`);
#   2a. asan-ubsan: ASan+UBSan build (-DPS_SANITIZE=address,undefined, UB
#      fatal, libstdc++ assertions on) running hash_test, parallel_test,
#      swarm_test, core_test, async_test, connectors_test, obs_test,
#      obs_golden_test, telemetry_test and stream_test — the SHA-NI
#      intrinsics, the shared parallel-loop helpers behind manifest
#      hashing, the checks on manifests read back from backends, the Store
#      read paths, the lifetimes behind the lock-free proxy fast path,
#      cache entries destroyed after unlocking and shared connector
#      payloads, every connector's vtable and batch and async laws (five
#      of them through the shared executor's worker threads), the obs JSON
#      reader, which parses bench artifacts from disk, with the exporters
#      and snapshot merges it reads back, every obs emitter over hostile
#      names, and the stream producer/consumer and kv broker paths;
#   2b. perfbench-selftest: the repo benchmark's self-test
#      (`perfbench/run.py --selftest`) — every op's bytes are checked on
#      all three workloads, a wrong expected fingerprint must be counted,
#      and the same seed must give bit-identical op vtime;
#   3. smoke: `psctl trace export` must produce a loadable Chrome
#      trace-event JSON artifact, `psctl metrics` the demo proxy's
#      lifecycle spans, `psctl metrics --prom` a Prometheus snapshot, and
#      `psctl stream stats` a per-topic table with the expected demo-topic
#      rows;
#   4. bench-smoke: fast deterministic benches rerun with --json (each with
#      the same flags its baseline was blessed with), the artifacts
#      re-validate against the schema (`psctl bench check`) and must match
#      the blessed baselines in results/baselines/ (`psctl bench diff` —
#      any vtime drift fails the build);
#   5. forensics-smoke: tail-latency forensics on a traced bench run —
#      `psctl trace critical --json` must produce a non-empty attribution
#      whose segments sum back to the root window, the Prometheus export
#      must carry histogram exemplars with valid 128-bit trace ids, and
#      `psctl flight dump` must write a Perfetto-loadable snapshot;
#   6. load-smoke: the mixed-scenario load harness (bench/load_mixed) at
#      the blessed fleet size — baseline diff (which also fails on any SLO
#      breach in the artifact), a double-run determinism check, and a
#      negative test proving an injected latency regression flips the SLO
#      gate to a nonzero exit, dumps a Perfetto-loadable flight recording,
#      and embeds a critical-path attribution referencing a trace present
#      in that dump;
#   7. swarm-smoke: the multi-source swarm transfer subsystem — fig_swarm
#      rerun against its blessed baseline (the bench hard-asserts that
#      bulk resolve time falls monotonically from 1 to 4 replica sites and
#      that the full swarm beats the best single source), `psctl swarm
#      stats` must render per-source rows and repair counters in both
#      table and JSON form, and a negative test proves the scheduler
#      routes around an injected slow replica: with the Theta source
#      delayed 15s the swarm resolve SLO still passes while the
#      single-source Theta SLO breaches in the same artifact;
#   8. telemetry-smoke: the federated per-site telemetry plane — the
#      load harness must report exact per-site/global op conservation and
#      a per-site burn-rate verdict for every site, `psctl metrics --sites`
#      must list every site with non-zero ops in JSON and emit
#      OpenMetrics-terminated Prometheus text with well-formed site labels,
#      `psctl top --once` must render a per-site rolling table, and a
#      single-site injected latency spike must flip exactly that site's
#      burn-rate verdict to breach while the other sites stay green.
#
# Usage: tools/ci.sh [--skip-tsan]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_TSAN=0
[[ "${1:-}" == "--skip-tsan" ]] && SKIP_TSAN=1

echo "==> tier-1: build + full test suite"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

if [[ "${SKIP_TSAN}" == "0" ]]; then
  echo "==> tier-2: ThreadSanitizer build + concurrency suite"
  cmake -B build-tsan -S . -DPS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}"
  (cd build-tsan && ctest -L tier2 --output-on-failure -j "${JOBS}")
else
  echo "==> tier-2: skipped (--skip-tsan)"
fi

echo "==> asan-ubsan: ASan + UBSan on hash, parallel, swarm, core, async," \
  "connectors, obs, obs_golden, telemetry, stream"
ASAN_TESTS=(hash_test parallel_test swarm_test core_test async_test
  connectors_test obs_test obs_golden_test telemetry_test stream_test)
cmake -B build-asan -S . -DPS_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
  >/dev/null
cmake --build build-asan -j "${JOBS}" --target "${ASAN_TESTS[@]}"
for test_bin in "${ASAN_TESTS[@]}"; do
  ./build-asan/tests/"${test_bin}" --gtest_brief=1
done

echo "==> perfbench-selftest: repo benchmark output checks + determinism"
python3 perfbench/run.py --selftest

echo "==> smoke: psctl trace export + prometheus snapshot"
TRACE_OUT="$(mktemp -t ps-ci-trace-XXXXXX.json)"
BENCH_DIR="$(mktemp -d -t ps-ci-bench-XXXXXX)"
trap 'rm -f "${TRACE_OUT}"; rm -rf "${BENCH_DIR}"' EXIT
./build/tools/psctl trace export "${TRACE_OUT}"
grep -q '"traceEvents"' "${TRACE_OUT}"
grep -q '"ph":"X"' "${TRACE_OUT}"
# Capture-then-grep everywhere below: `cmd | grep -q` lets grep exit at
# the first match and SIGPIPEs the still-writing producer, which pipefail
# turns into a spurious CI failure once the output outgrows the pipe
# buffer.
# The demo proxy's lifecycle is its spans: the table form must list the
# creating store.proxy span and the consumer's proxy.resolve span under
# the lifecycle heading.
METRICS_TABLE="$(./build/tools/psctl metrics)"
LIFECYCLE="$(sed -n '/^proxy lifecycle (/,/^$/p' <<<"${METRICS_TABLE}")"
grep -q '^  store\.proxy ' <<<"${LIFECYCLE}"
grep -q '^  proxy\.resolve ' <<<"${LIFECYCLE}"
PROM_SNAPSHOT="$(./build/tools/psctl metrics --prom)"
grep -q '^# TYPE ps_' <<<"${PROM_SNAPSHOT}"
# The new summary exposition must be present alongside counters/gauges.
grep -q '_quantiles_seconds{quantile="0.999"}' <<<"${PROM_SNAPSHOT}"
# The stream demo must report both demo topics, and the fully-drained
# queue topic must end with zero lag.
STREAM_STATS="$(./build/tools/psctl stream stats)"
grep -q '^updates .* 0$' <<<"${STREAM_STATS}"
grep -q '^gradients ' <<<"${STREAM_STATS}"
# The JSON form must carry the same topics for machine consumers.
STREAM_JSON="$(./build/tools/psctl stream stats --json)"
grep -q '"updates":{"published"' <<<"${STREAM_JSON}"
# The demo SLOs evaluated against the live registry must hold (exit 1 on
# breach), in both the table and the machine-readable form.
./build/tools/psctl slo
SLO_JSON="$(./build/tools/psctl slo --json)"
grep -q '"passed":1' <<<"${SLO_JSON}"
# The Prometheus form must expose per-objective verdict gauges.
SLO_PROM="$(./build/tools/psctl slo --prom)"
grep -q '^# TYPE ps_slo_status gauge' <<<"${SLO_PROM}"
grep -q '^ps_slo_status{objective="demo.local.get.p99"} 0' <<<"${SLO_PROM}"

echo "==> bench-smoke: regenerate artifacts + diff against baselines"
# Each bench reruns with the exact flags its baseline was blessed with
# (fig6 is capped at 1MB payloads to stay CI-fast).
run_bench() {
  local bench="$1"
  shift
  ./build/bench/"${bench}" "$@" --json "${BENCH_DIR}/BENCH_${bench}.json" \
    >/dev/null
  # The artifact must re-parse against the schema...
  ./build/tools/psctl bench check "${BENCH_DIR}/BENCH_${bench}.json"
  # ...and the deterministic series must match the blessed baseline
  # exactly (nonzero exit here is a perf/determinism regression).
  ./build/tools/psctl bench diff \
    "results/baselines/BENCH_${bench}.json" \
    "${BENCH_DIR}/BENCH_${bench}.json"
}
run_bench fig4_handshake
run_bench ablation_design
run_bench fig6_inmemory --max-size 1MB
run_bench fig_stream
run_bench micro_async
# The async executor must have surfaced its queue/saturation metrics after
# the bench exercised the shared pool.
PROM_SNAPSHOT="$(./build/tools/psctl metrics --prom)"
grep -q '^ps_async_executor_' <<<"${PROM_SNAPSHOT}"
# The committed baselines themselves must stay schema-valid.
./build/tools/psctl bench check results/baselines/BENCH_*.json

echo "==> rpc-smoke: pipelined wire protocol gates"
# The micro_rpc harness hard-asserts the tentpole claims itself (a deep
# call_async ladder costs ~max-of-pipeline, native async ops hold zero
# executor workers); run_bench adds schema check + baseline diff on top.
run_bench micro_rpc
# Determinism: a second identical run must reproduce the artifact exactly.
./build/bench/micro_rpc \
  --json "${BENCH_DIR}/BENCH_micro_rpc_rerun.json" >/dev/null
./build/tools/psctl bench diff \
  "${BENCH_DIR}/BENCH_micro_rpc.json" \
  "${BENCH_DIR}/BENCH_micro_rpc_rerun.json"
# The wire metrics must surface in the Prometheus exposition with real
# in-flight depth from the demo's pipelined ladder (nonzero gauge).
PROM_SNAPSHOT="$(./build/tools/psctl metrics --prom)"
grep -qE '^ps_rpc_inflight [1-9]' <<<"${PROM_SNAPSHOT}"
grep -q '^ps_rpc_requests_total' <<<"${PROM_SNAPSHOT}"
# Negative gate: forcing the sync->async executor adapters back in must
# trip the zero-occupancy assert and fail the bench — proves the assert
# has teeth (a silent fallback to thread-parking would pass benchmarks
# while abandoning the completion-driven protocol).
if ./build/bench/micro_rpc --force-adapter \
    --json "${BENCH_DIR}/BENCH_micro_rpc_adapter.json" >/dev/null 2>&1; then
  echo "rpc-smoke: --force-adapter run must fail the zero-occupancy assert"
  exit 1
fi

echo "==> forensics-smoke: critical-path attribution + exemplars + flight"
# A traced fig6 rerun (the CI-fast flags) must still produce a
# schema-valid artifact with the forensics machinery active (bench check
# also enforces the 5% attribution-sum rule on any attributed series).
./build/bench/fig6_inmemory --max-size 1MB \
  --json "${BENCH_DIR}/BENCH_fig6_forensics.json" >/dev/null
./build/tools/psctl bench check "${BENCH_DIR}/BENCH_fig6_forensics.json"
# Critical-path attribution over the traced demo round trip: non-empty,
# and psctl itself asserts each decomposition sums back to its root window.
CRIT_JSON="$(./build/tools/psctl trace critical --json)"
grep -q '"segments":' <<<"${CRIT_JSON}"
grep -q '"trace_id":"' <<<"${CRIT_JSON}"
# Histogram exemplars must surface in the Prometheus exposition with valid
# 128-bit (32 hex digit) trace ids on bucket lines.
PROM_SNAPSHOT="$(./build/tools/psctl metrics --prom)"
grep -qE '_bucket\{le="[^"]*"\} [0-9]+ # \{trace_id="[0-9a-f]{32}"' \
  <<<"${PROM_SNAPSHOT}"
# The flight recorder must dump a Perfetto-loadable snapshot on demand.
FLIGHT_OUT="${BENCH_DIR}/flight.json"
./build/tools/psctl flight dump "${FLIGHT_OUT}"
grep -q '"traceEvents"' "${FLIGHT_OUT}"
grep -q '"ph":"X"' "${FLIGHT_OUT}"
grep -q '"flight":{"reason":"psctl flight dump"' "${FLIGHT_OUT}"

echo "==> load-smoke: mixed-scenario load harness + SLO gate"
# The blessed fleet size: 256 simulated clients keeps the run sub-second
# while exercising all four phases. run_bench covers schema check +
# baseline diff (the diff also fails on any SLO breach in the candidate).
run_bench load_mixed --clients 256
# Determinism: a second identical run must reproduce the artifact exactly
# (same vtime series, same SLO verdicts).
./build/bench/load_mixed --clients 256 \
  --json "${BENCH_DIR}/BENCH_load_mixed_rerun.json" >/dev/null
./build/tools/psctl bench diff \
  "${BENCH_DIR}/BENCH_load_mixed.json" \
  "${BENCH_DIR}/BENCH_load_mixed_rerun.json"
# Negative test: an injected 75ms per-op latency regression must breach
# the SLOs and flip the gate to a nonzero exit — proves the gate can fail.
PS_LOAD_INJECT_LATENCY_MS=75 ./build/bench/load_mixed --clients 256 \
  --json "${BENCH_DIR}/BENCH_load_mixed_inject.json" >/dev/null
if ./build/tools/psctl bench diff \
    results/baselines/BENCH_load_mixed.json \
    "${BENCH_DIR}/BENCH_load_mixed_inject.json" >/dev/null 2>&1; then
  echo "load-smoke: injected latency did NOT trip the SLO gate" >&2
  exit 1
fi
grep -q '"status":"breach"' "${BENCH_DIR}/BENCH_load_mixed_inject.json"
# Forensics on the breach: the artifact must embed critical-path
# attribution (bench check enforces that the segments sum to within 5% of
# the exemplar sample it explains)...
./build/tools/psctl bench check "${BENCH_DIR}/BENCH_load_mixed_inject.json"
grep -q '"attribution":{' "${BENCH_DIR}/BENCH_load_mixed_inject.json"
# ...the breach must have auto-dumped a Perfetto-loadable flight recording
# naming the breaching objective...
INJECT_FLIGHT="${BENCH_DIR}/BENCH_load_mixed_inject.json.flight.json"
test -f "${INJECT_FLIGHT}"
grep -q '"traceEvents"' "${INJECT_FLIGHT}"
grep -q '"ph":"X"' "${INJECT_FLIGHT}"
grep -q '"flight":{"reason":"slo-breach: ' "${INJECT_FLIGHT}"
# ...and the trace behind an attributed exemplar must still be in the dump.
ATTR_TRACE="$(grep -o '"attribution":{"trace_id":"[0-9a-f]\{32\}"' \
  "${BENCH_DIR}/BENCH_load_mixed_inject.json" | head -n 1 | \
  grep -o '[0-9a-f]\{32\}')"
test -n "${ATTR_TRACE}"
grep -q "${ATTR_TRACE}" "${INJECT_FLIGHT}"

echo "==> swarm-smoke: multi-source transfer + slow-replica reroute gate"
# The swarm bench itself hard-asserts monotone 1->4 replica scaling and
# swarm-beats-best-single at the largest size; run_bench adds the schema
# check and the exact-match diff against the blessed baseline.
run_bench fig_swarm
# The operator view must render per-source accounting (the demo injects a
# corrupt chunk and a delayed source, so repairs and timeouts are nonzero).
SWARM_STATS="$(./build/tools/psctl swarm stats)"
grep -q '^replica-0 ' <<<"${SWARM_STATS}"
grep -q '^replica-3 ' <<<"${SWARM_STATS}"
grep -q '^swarm.repairs ' <<<"${SWARM_STATS}"
grep -qE '^swarm.source.timeouts +[1-9]' <<<"${SWARM_STATS}"
grep -qE '^swarm.chunks.corrupt +[1-9]' <<<"${SWARM_STATS}"
SWARM_JSON="$(./build/tools/psctl swarm stats --json)"
grep -q '"replica-0":{"chunks":' <<<"${SWARM_JSON}"
grep -q '"swarm.chunks.verified":' <<<"${SWARM_JSON}"
# Negative test: with the Theta replica delayed 15s, the chunk scheduler
# must time it out against the healthy replicas' observed service rate and
# re-request elsewhere — the swarm resolve SLO stays green while the
# single-source Theta resolve of the same payload breaches. The injected
# artifact is asserted on its SLO verdicts, never diffed against the
# baseline (its series are intentionally degraded).
PS_SWARM_INJECT_SLOW_MS=15000 ./build/bench/fig_swarm \
  --json "${BENCH_DIR}/BENCH_fig_swarm_inject.json" >/dev/null
./build/tools/psctl bench check "${BENCH_DIR}/BENCH_fig_swarm_inject.json"
grep -q '"name":"swarm.resolve.p99"[^}]*"status":"pass"' \
  "${BENCH_DIR}/BENCH_fig_swarm_inject.json"
grep -q '"name":"swarm.single.theta.p99"[^}]*"status":"breach"' \
  "${BENCH_DIR}/BENCH_fig_swarm_inject.json"

echo "==> telemetry-smoke: federated per-site scrape + burn-rate gates"
# The load harness runs with metrics scoping on and a telemetry agent per
# site (5 sites in the default testbed). Its stdout must prove the per-site
# op counts sum exactly to the global series, and every site must get a
# passing multi-window burn-rate verdict on a clean run.
LOAD_OUT="$(./build/bench/load_mixed --clients 256 \
  --json "${BENCH_DIR}/BENCH_load_mixed_telemetry.json")"
grep -q 'telemetry: per-site hotkey ops .* (exact)$' <<<"${LOAD_OUT}"
for site in theta polaris perlmutter chameleon uchicago; do
  grep -q "^burn-rate \[site=${site}\] load.hotkey.p99.burn pass " \
    <<<"${LOAD_OUT}"
done
# The federated scrape must list every site with non-zero ops in the JSON
# form (psctl itself exits nonzero if the per-site sum drifts from the
# global series).
SITES_JSON="$(./build/tools/psctl metrics --sites --json)"
for site in theta polaris perlmutter chameleon uchicago; do
  grep -q "\"${site}\":{\"vtime_s\"" <<<"${SITES_JSON}"
done
if grep -q '"psctl.op":{"count":0,' <<<"${SITES_JSON}"; then
  echo "telemetry-smoke: a site reported zero ops in --sites --json" >&2
  exit 1
fi
grep -q '"aggregate":{' <<<"${SITES_JSON}"
# The Prometheus form must carry a well-formed site label on every sample
# line and terminate with the OpenMetrics EOF marker.
SITES_PROM="$(./build/tools/psctl metrics --sites --prom)"
[[ "${SITES_PROM}" == *'# EOF' ]]
grep -q '^ps_psctl_op_seconds_count{site="theta"} [1-9]' <<<"${SITES_PROM}"
if grep -Ev '^#|site="[^"]+"' <<<"${SITES_PROM}" | grep -q .; then
  echo "telemetry-smoke: unlabeled sample line in --sites --prom" >&2
  exit 1
fi
# The plain prometheus snapshot must now also be OpenMetrics-terminated.
[[ "$(./build/tools/psctl metrics --prom)" == *'# EOF' ]]
# The live per-site view must render a row per site from windowed deltas.
TOP_OUT="$(./build/tools/psctl top --once)"
grep -q 'trailing .* virtual s per site' <<<"${TOP_OUT}"
for site in theta polaris perlmutter chameleon uchicago; do
  grep -q "^${site} " <<<"${TOP_OUT}"
done
# Negative test: a latency spike injected into ONE site must flip exactly
# that site's burn-rate verdict to breach while the others stay green —
# proves the per-site windows isolate regressions instead of averaging
# them away.
INJECT_OUT="$(PS_LOAD_INJECT_LATENCY_MS=80 PS_LOAD_INJECT_SITE=chameleon \
  ./build/bench/load_mixed --clients 256 \
  --json "${BENCH_DIR}/BENCH_load_mixed_site_inject.json")"
grep -q '^burn-rate \[site=chameleon\] load.hotkey.p99.burn breach ' \
  <<<"${INJECT_OUT}"
for site in theta polaris perlmutter uchicago; do
  grep -q "^burn-rate \[site=${site}\] load.hotkey.p99.burn pass " \
    <<<"${INJECT_OUT}"
done
grep -q 'telemetry: per-site hotkey ops .* (exact)$' <<<"${INJECT_OUT}"

echo "==> CI pass complete"
