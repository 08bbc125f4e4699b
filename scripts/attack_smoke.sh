#!/usr/bin/env bash
# Byzantine-robustness smoke test: an 8-device fleet where 25% of the
# devices sign-flip every upload must, with coordinate-median aggregation
# and the defense pipeline on, land its final evaluation reward within
# tolerance of an attack-free run of the same seed. The attacked run is
# then repeated through the sharded serve pipeline (4 shard workers),
# whose defense must screen exactly as the in-process committer's: its
# eval CSV must be byte-identical. Process-level companion of
# bench/bench_ablation_robustness.cpp's sweep — run it against the asan
# build to shake memory bugs out of the attack path.
#
#   scripts/attack_smoke.sh [path/to/run_experiment]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

runner="${1:-./build/examples/run_experiment}"
if [[ ! -x "$runner" ]]; then
  echo "attack_smoke: runner not found: $runner (build first)" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/fedpower_attack_smoke.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT

config="$workdir/config.ini"
cat > "$config" <<EOF
[run]
seed = 42
mode = federated
[fed]
rounds = 25
steps_per_round = 20
aggregation = median
[eval]
episode_intervals = 15
[defense]
enabled = true
[workload]
device0 = fft, lu
device1 = raytrace, volrend
device2 = water-ns, water-sp
device3 = ocean, radix
device4 = fmm, radiosity
device5 = barnes, cholesky
device6 = fft, radix
device7 = lu, ocean
EOF

echo "== attack-free run (8 devices, median, defense on) =="
"$runner" "$config" "eval.csv=$workdir/clean.csv" | tee "$workdir/clean.log"

echo "== attacked run (25% sign-flippers, same seed) =="
"$runner" "$config" "faults.attack=sign-flip" "faults.attack_fraction=0.25" \
  "eval.csv=$workdir/attacked.csv" | tee "$workdir/attacked.log"

grep -q "compromised devices: 6, 7" "$workdir/attacked.log" || {
  echo "attack_smoke: expected devices 6 and 7 to be compromised" >&2
  exit 1
}
grep -q "defense: screened" "$workdir/attacked.log" || {
  echo "attack_smoke: defense reported no screening activity" >&2
  exit 1
}

echo "== attacked run through the serve pipeline (4 shard workers) =="
"$runner" "$config" "faults.attack=sign-flip" "faults.attack_fraction=0.25" \
  "serve.enabled=true" "serve.workers=4" \
  "eval.csv=$workdir/attacked_serve.csv" | tee "$workdir/attacked_serve.log"

grep -q "defense: screened" "$workdir/attacked_serve.log" || {
  echo "attack_smoke: serve run reported no screening activity" >&2
  exit 1
}
cmp "$workdir/attacked.csv" "$workdir/attacked_serve.csv" || {
  echo "attack_smoke: serve+defense diverged from sync+defense" >&2
  exit 1
}

# Final eval reward = fleet mean over the last 8 rounds of the per-round
# per-device reward CSV (header row skipped).
tail_mean() {
  tail -n 8 "$1" | awk -F, '{
    for (c = 2; c <= NF; ++c) { sum += $c; n += 1 }
  } END { printf "%.6f", sum / n }'
}
clean=$(tail_mean "$workdir/clean.csv")
attacked=$(tail_mean "$workdir/attacked.csv")
echo "final eval reward: attack-free ${clean}, defended-under-attack ${attacked}"

# Tolerance: the defended run must keep at least 85% of the attack-free
# reward (the acceptance bench holds the tighter 90% bar over 48 rounds;
# this is a short smoke).
awk -v clean="$clean" -v attacked="$attacked" 'BEGIN {
  if (clean <= 0) { print "attack_smoke: degenerate attack-free reward"; exit 1 }
  ratio = attacked / clean
  printf "defense recovery ratio: %.3f\n", ratio
  if (ratio < 0.85) { print "attack_smoke: defense lost too much reward"; exit 1 }
}'

echo "== attack smoke passed =="
