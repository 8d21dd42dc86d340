#!/usr/bin/env bash
# bench_ab — interleaved A/B of the engine benchmarks (v1 vs v2).
#
# Runs bench/micro_core's engine pairs — BM_CrossTrafficSecond[V2],
# BM_SimSecondsPerSec/{0,1}, BM_ProbeFleetSecond/{0,1} (event-driven vs
# fast probe bursts on paper-path), BM_TcpScenarioSecond/{0,1} (packet vs
# fluid TCP) and
# BM_CcDuelSecond/{0,1,2} (the reno|cubic|bbr policy duel) —
# with repetitions under random interleaving (so drift in machine load
# lands on both arms alike), takes the per-arm medians from the benchmark
# JSON, computes the A/B speedups, and appends one JSON row to
# BENCH_engine.json.
#
# Usage: bench_ab.sh [micro_core_binary] [repetitions] [out_json]
#   defaults: build/bench/micro_core, 7, BENCH_engine.json (repo root)

set -eu

here=$(cd "$(dirname "$0")/.." && pwd)
binary=${1:-"$here/build/bench/micro_core"}
reps=${2:-7}
out=${3:-"$here/BENCH_engine.json"}

if [ ! -x "$binary" ]; then
  echo "bench_ab: benchmark binary not found: $binary (build first)" >&2
  exit 2
fi
case $reps in
  ''|*[!0-9]*|0) echo "bench_ab: repetitions must be a positive integer" >&2; exit 2 ;;
esac

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

"$binary" \
  "--benchmark_filter=BM_SimSecondsPerSec|BM_CrossTrafficSecond|BM_ProbeFleetSecond|BM_TcpScenarioSecond|BM_CcDuelSecond" \
  "--benchmark_repetitions=$reps" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  "--benchmark_out=$workdir/ab.json" \
  --benchmark_out_format=json > /dev/null

# Pull each benchmark's _median aggregate real_time (ns) out of the JSON.
# The JSON layout is stable: every benchmark object carries "name" before
# "real_time", so a tiny awk state machine suffices — no jq dependency.
median() {
  awk -v want="\"$1_median\"" '
    $1 == "\"name\":" { keep = ($2 == want ",") }
    keep && $1 == "\"real_time\":" { gsub(/,/, "", $2); print $2; exit }
  ' "$workdir/ab.json"
}

v1_cross=$(median BM_CrossTrafficSecond)
v2_cross=$(median BM_CrossTrafficSecondV2)
v1_simsec=$(median "BM_SimSecondsPerSec/0")
v2_simsec=$(median "BM_SimSecondsPerSec/1")
fleet_unbatched=$(median "BM_ProbeFleetSecond/0")
fleet_batched=$(median "BM_ProbeFleetSecond/1")
tcp_packet=$(median "BM_TcpScenarioSecond/0")
tcp_fluid=$(median "BM_TcpScenarioSecond/1")
cc_reno=$(median "BM_CcDuelSecond/0")
cc_cubic=$(median "BM_CcDuelSecond/1")
cc_bbr=$(median "BM_CcDuelSecond/2")

for val in "$v1_cross" "$v2_cross" "$v1_simsec" "$v2_simsec" \
           "$fleet_unbatched" "$fleet_batched" "$tcp_packet" "$tcp_fluid" \
           "$cc_reno" "$cc_cubic" "$cc_bbr"; do
  if [ -z "$val" ]; then
    echo "bench_ab: missing a median in $workdir/ab.json (benchmark renamed?)" >&2
    exit 1
  fi
done

row=$(awk -v a="$v1_cross" -v b="$v2_cross" -v c="$v1_simsec" -v d="$v2_simsec" \
      -v e="$fleet_unbatched" -v f="$fleet_batched" \
      -v g="$tcp_packet" -v h="$tcp_fluid" \
      -v i="$cc_reno" -v j="$cc_cubic" -v k="$cc_bbr" \
      -v reps="$reps" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" 'BEGIN {
  printf "{\"date\": \"%s\", \"repetitions\": %d, ", date, reps
  printf "\"cross_traffic_v1_ns\": %.1f, \"cross_traffic_v2_ns\": %.1f, ", a, b
  printf "\"cross_traffic_speedup\": %.2f, ", a / b
  printf "\"sim_second_v1_ns\": %.1f, \"sim_second_v2_ns\": %.1f, ", c, d
  printf "\"sim_second_speedup\": %.2f, ", c / d
  printf "\"probe_fleet_unbatched_ns\": %.1f, \"probe_fleet_batched_ns\": %.1f, ", e, f
  printf "\"probe_fleet_speedup\": %.2f, ", e / f
  printf "\"tcp_scenario_packet_ns\": %.1f, \"tcp_scenario_fluid_ns\": %.1f, ", g, h
  printf "\"tcp_scenario_speedup\": %.2f, ", g / h
  printf "\"cc_duel_reno_ns\": %.1f, \"cc_duel_cubic_ns\": %.1f, ", i, j
  printf "\"cc_duel_bbr_ns\": %.1f, \"cc_duel_bbr_ratio\": %.2f}", k, k / i
}')

# BENCH_engine.json is a JSON-lines log: one self-contained row per run.
echo "$row" >> "$out"
echo "bench_ab: $row"
echo "bench_ab: appended to $out"
