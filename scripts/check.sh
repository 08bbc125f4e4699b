#!/usr/bin/env bash
# One-shot gate: build + full test suite + fedpower-lint + the fedbench
# selftest + (when clang-tidy is installed) the curated clang-tidy build.
# Exits nonzero on any finding.
#
#   scripts/check.sh            # default preset
#   scripts/check.sh --asan     # additionally run the asan preset suite
#   scripts/check.sh --tsan     # additionally run the tsan preset suite
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

run_sanitizer_presets=()
for arg in "$@"; do
  case "$arg" in
    --asan) run_sanitizer_presets+=(asan) ;;
    --tsan) run_sanitizer_presets+=(tsan) ;;
    *) echo "usage: scripts/check.sh [--asan] [--tsan]" >&2; exit 2 ;;
  esac
done

echo "== configure + build (preset: default) =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

echo "== ctest (includes the lint label) =="
ctest --preset default

echo "== fedpower-lint --strict (explicit, for visible output; stale waivers fail) =="
lint_start=$SECONDS
./build/tools/fedpower_lint --strict --root . src bench tests examples
./build/tools/fedpower_lint --strict --sarif --root . src bench tests examples \
  > build/lint_report.sarif
echo "lint wall time: $((SECONDS - lint_start))s (SARIF archived at build/lint_report.sarif)"
src_lines=$(find src \( -name '*.cpp' -o -name '*.hpp' \) -print0 | xargs -0 cat | wc -l)
echo "src/ .cpp/.hpp lines: ${src_lines}"

echo "== fedbench selftest (the benchmark builds against src/ and passes its checks) =="
python3 fedbench/selftest.py

echo "== kill-and-resume smoke (SIGKILL mid-run, resume from snapshot) =="
scripts/kill_resume_smoke.sh ./build/examples/run_experiment

echo "== chaos smoke (churn + faults + deadline, SIGKILL mid-soak, replay check) =="
scripts/chaos_smoke.sh ./build/examples/run_experiment

echo "== Byzantine attack smoke (25% sign-flippers vs median + defense) =="
scripts/attack_smoke.sh ./build/examples/run_experiment

echo "== fleet-scale bench (lazy 100k-device fleet + retry-accounting guard) =="
./build/bench/bench_fleet_scale

echo "== async-server bench (determinism gate + TCP throughput) =="
./build/bench/bench_server_throughput

echo "== async-server smoke (250 clients, kill one mid-round, quorum commit) =="
scripts/server_smoke.sh ./build/bench/bench_server_throughput ./build/examples/run_experiment

echo "== chaos soak bench (days-equivalent run, kill/resume under fire) =="
(cd build/bench && ./bench_soak)
cp build/bench/BENCH_soak.json build/BENCH_soak.json
echo "soak report archived at build/BENCH_soak.json"

echo "== tcp chaos smoke (socket-fault proxy, reconnect/resume, bit-identity) =="
scripts/tcp_chaos_smoke.sh ./build/bench/bench_soak
cp build/bench/BENCH_tcp_soak.json build/BENCH_tcp_soak.json
cp build/bench/BENCH_tcp_soak.json BENCH_tcp_soak.json
echo "tcp soak report archived at build/BENCH_tcp_soak.json and ./BENCH_tcp_soak.json"

for preset in "${run_sanitizer_presets[@]}"; do
  echo "== sanitizer suite (preset: ${preset}) =="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$preset"
  if [[ "$preset" == asan ]]; then
    echo "== attack smoke under asan (memory bugs in the attack path) =="
    scripts/attack_smoke.sh "./build-${preset}/examples/run_experiment"
  fi
done

if command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy (preset: tidy, .clang-tidy curated checks) =="
  cmake --preset tidy
  cmake --build --preset tidy -j "$(nproc)"
else
  echo "== clang-tidy not installed — skipping tidy preset =="
fi

echo "== all checks passed =="
