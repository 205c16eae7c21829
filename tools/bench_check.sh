#!/usr/bin/env bash
# Benchmark-regression gate: re-run every bench that commits a JSON
# artifact, with the arguments results/README.md records for it, in a
# scratch directory, and compare against the committed
# results/BENCH_<name>.json.
#
# Every key must match the committed value exactly. The artifacts hold
# only simulated metrics, and the simulator is seed-deterministic, so any
# drift is a behaviour change: it fails until the artifact is
# deliberately regenerated and the change explained in CHANGES.md. Keys
# missing on either side fail too.
#
# A drifted key is explained by the band it falls in:
#
#   * throughput (per_sec, mb_s, kops): below 75% of committed is a
#     throughput collapse.
#   * latency quantiles (p50/p95/p99 in ns/us/ms): above 2x committed is
#     a latency blow-up (e.g. the fabric QoS schedulers regressing).
#   * `offload` fabric_*_bytes: above 1.25x committed is footprint creep
#     — the offload verbs exist to keep bytes off the wire.
#   * `georep` *_rpo_bytes / *_rto_ms: above 1.5x committed means the DR
#     site is falling further behind (or recovering slower).
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

# "<bin> [args]" — the results/README.md command for each artifact.
BENCHES=(
  "pool_scaling"
  "audit_scaling --full"
  "read_scaling"
  "persist_modes"
  "shard_scaling"
  "qos_isolation"
  "offload"
  "georep"
  "t1_latency"
  "t2_actions"
  "t3_mttr"
  "resilver_mttr"
)

cargo build --release -p pm-bench --bins

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch/results"

fail=0
for entry in "${BENCHES[@]}"; do
  read -r bench args <<<"$entry"
  committed="$repo/results/BENCH_${bench}.json"
  if [[ ! -f "$committed" ]]; then
    echo "bench-check: missing committed artifact $committed" >&2
    fail=1
    continue
  fi
  echo "bench-check: running $bench $args"
  # shellcheck disable=SC2086 # args is a word list
  (cd "$scratch" && "$repo/target/release/$bench" $args --json >/dev/null)
  fresh="$scratch/results/BENCH_${bench}.json"

  if ! awk -v bench="$bench" '
    /"[A-Za-z0-9_]+":[[:space:]]*[-0-9n]/ {
      line = $0
      gsub(/[",:]/, " ", line)
      split(line, f, /[[:space:]]+/)
      key = f[2]; val = f[3]
      if (NR == FNR) { committed[key] = val; next }
      if (!(key in committed)) { printf "  %s: %s missing from committed artifact\n", bench, key; bad = 1; next }
      seen[key] = 1
      c = committed[key]
      if (val == c) next
      bad = 1
      why = "simulated metric drifted"
      if (key ~ /(per_sec|mb_s|kops)$/)
        why = (val + 0 < 0.75 * c) ? "throughput regressed below 75% of committed" : "throughput drifted within its 25% band"
      else if (key ~ /p(50|95|99)_(ns|us|ms)$/)
        why = (val + 0 > 2.0 * c) ? "latency blew up past 2x committed" : "latency drifted within its 2x band"
      else if (bench == "offload" && key ~ /^fabric_[a-z]+_bytes$/)
        why = (val + 0 > 1.25 * c) ? "fabric bytes grew past 1.25x committed" : "fabric bytes drifted within their 1.25x band"
      else if (bench == "georep" && key ~ /_(rpo_bytes|rto_ms)$/)
        why = (val + 0 > 1.5 * c) ? "recovery objective regressed past 1.5x committed" : "recovery objective drifted within its 1.5x band"
      printf "  %s: %s = %s, committed %s (%s)\n", bench, key, val, c, why
    }
    END {
      for (k in committed) if (!(k in seen)) { printf "  %s: %s missing from fresh run\n", bench, k; bad = 1 }
      exit bad
    }
  ' "$committed" "$fresh"; then
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "bench-check: FAILED (artifact drift; see results/README.md to regenerate deliberately)" >&2
  exit 1
fi
echo "bench-check: every artifact matches its committed results exactly"
