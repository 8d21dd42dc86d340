#!/usr/bin/env bash
# docs_check — fail if README/docs reference something that doesn't exist.
#
# Checked, over README.md and docs/*.md:
#   1. every backticked repo-relative path (src/..., bench/..., docs/...,
#      examples/..., tests/..., tools/...) exists;
#   2. every relative markdown link target exists;
#   3. every bench_<name> target token has a bench/<name>.cpp source
#      (bench_smoke, a ctest name, is whitelisted);
#   4. `scenario_runner --list` runs, and every preset it reports is
#      documented in docs/SCENARIOS.md;
#   5. every entry in docs/FIGURES.md's "preset" table column is a preset
#      the registry actually has (or the em-dash placeholder);
#   6. `scenario_runner --list-estimators` runs, and every estimator it
#      reports is documented (with its config keys) in docs/ESTIMATORS.md;
#   7. every `flow` spec key the parser accepts is documented in
#      docs/SCENARIOS.md, and every preset's rendered spec (`--show`,
#      including its flow lines) parses back through `--validate` — the
#      round-trip that keeps the docs' flow examples honest;
#   8. (when a scenario_fuzz binary is given) every invariant
#      `scenario_fuzz --list-invariants` reports is documented in
#      docs/FUZZING.md;
#   9. both engine-contract versions (v1 and v2, the values the spec
#      parser accepts for `engine =`) are documented in docs/ENGINE.md
#      and in docs/SCENARIOS.md's key reference;
#  10. every backticked qualified name (`Name::member`, `ns::Name`; std::
#      excluded) names an identifier present in src/: its last component
#      appears there as a word, so a renamed or deleted member is caught.
#
# Usage: docs_check.sh <repo_root> <scenario_runner_binary> [scenario_fuzz_binary]

set -u

root=${1:?usage: docs_check.sh <repo_root> <scenario_runner_binary>}
runner=${2:?usage: docs_check.sh <repo_root> <scenario_runner_binary>}
fuzzer=${3:-}

fail=0
err() {
  echo "docs_check: $*" >&2
  fail=1
}

docs=("$root/README.md")
for f in "$root"/docs/*.md; do
  [ -e "$f" ] && docs+=("$f")
done
[ ${#docs[@]} -ge 4 ] || err "expected README.md plus at least 3 docs/ pages, found ${#docs[@]} files"

# --- 1. backticked repo paths ------------------------------------------------
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || { err "missing doc: $doc"; continue; }
  while IFS= read -r ref; do
    path=${ref%/}              # allow `src/util/` directory references
    [ -e "$root/$path" ] || err "$(basename "$doc"): referenced path '$ref' does not exist"
  done < <(grep -o '`[^`]*`' "$doc" | tr -d '`' |
           grep -E '^(src|bench|docs|examples|tests|tools)/' | sort -u)
done

# --- 2. relative markdown links ----------------------------------------------
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  while IFS= read -r target; do
    case $target in
      http://*|https://*|\#*) continue ;;
    esac
    target=${target%%#*}       # drop anchors
    [ -z "$target" ] && continue
    if ! { [ -e "$root/$target" ] || [ -e "$(dirname "$doc")/$target" ]; }; then
      err "$(basename "$doc"): markdown link target '$target' does not exist"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//' | sort -u)
done

# --- 3. bench target tokens --------------------------------------------------
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  while IFS= read -r target; do
    name=${target#bench_}
    case $name in
      smoke|smoke_*) continue ;;  # ctest names, not bench sources
    esac
    [ -f "$root/bench/$name.cpp" ] ||
      err "$(basename "$doc"): bench target '$target' has no bench/$name.cpp"
  done < <(grep -ohE '\bbench_[a-z0-9_]+' "$doc" | sort -u)
done

# --- 4. registry is runnable and every preset is documented -------------------
presets=$("$runner" --list --format csv 2>/dev/null | awk -F, 'NR > 1 {print $1}')
if [ -z "$presets" ]; then
  err "'$runner --list --format csv' produced no presets"
else
  for p in $presets; do
    # Word-anchored: 'paper-path' must not be satisfied by a mention of
    # 'paper-path-poisson'.
    grep -qE "(^|[^a-z0-9_-])${p}([^a-z0-9_-]|\$)" "$root/docs/SCENARIOS.md" ||
      err "preset '$p' is not documented in docs/SCENARIOS.md"
  done
fi

# --- 5. FIGURES.md preset column ---------------------------------------------
figures="$root/docs/FIGURES.md"
if [ -f "$figures" ]; then
  while IFS= read -r cell; do
    for p in ${cell//,/ }; do
      [ -z "$p" ] && continue
      echo "$presets" | grep -qx "$p" ||
        err "FIGURES.md: preset column names unknown preset '$p'"
    done
  done < <(awk -F'|' '
    /^\|/ {
      if (col == 0) {                      # header row: locate the column
        for (i = 1; i <= NF; ++i) {
          h = $i; gsub(/[ `]/, "", h)
          if (h == "preset") col = i
        }
        next
      }
      cell = $col; gsub(/[ `]/, "", cell)
      if (cell ~ /^[-—:]*$/) next          # separator row or placeholder
      print cell
    }' "$figures")
else
  err "docs/FIGURES.md is missing"
fi

# --- 6. estimator catalogue is runnable and documented --------------------
estimators=$("$runner" --list-estimators --format csv 2>/dev/null |
             awk -F, 'NR > 1 {print $1}')
if [ -z "$estimators" ]; then
  err "'$runner --list-estimators --format csv' produced no estimators"
elif [ ! -f "$root/docs/ESTIMATORS.md" ]; then
  err "docs/ESTIMATORS.md is missing"
else
  for e in $estimators; do
    # The catalogue row: | `name` | ... in the per-estimator tables.
    grep -qE "(^|[^a-z0-9_-])${e}([^a-z0-9_-]|\$)" "$root/docs/ESTIMATORS.md" ||
      err "estimator '$e' is not documented in docs/ESTIMATORS.md"
    # And its config-key table row must exist (the overrides section).
    grep -qE "^\| .?\`?${e}\`? .?\|" "$root/docs/ESTIMATORS.md" ||
      err "estimator '$e' has no table row in docs/ESTIMATORS.md"
  done
fi

# --- 7. flow spec keys and preset round-trips ---------------------------------
# The authoritative flow-directive key list (mirrors parse_flow_line in
# src/scenario/spec.cpp); each must be documented in docs/SCENARIOS.md.
flow_keys="hops rwnd count start_s stop_s on_s off_s mss reverse_ms mode cc"
for k in $flow_keys; do
  grep -qE "(^|[^a-z0-9_])${k}=" "$root/docs/SCENARIOS.md" ||
    err "flow key '$k' is not documented in docs/SCENARIOS.md (flow table)"
done
# Same for the impair-directive keys (mirrors parse_impair_line).
impair_keys="hop loss dup reorder_ms seed"
for k in $impair_keys; do
  grep -qE "(^|[^a-z0-9_])${k}=" "$root/docs/SCENARIOS.md" ||
    err "impair key '$k' is not documented in docs/SCENARIOS.md (impair section)"
done
# Every preset's rendered spec must parse back, flow lines included.
roundtrip_tmp=$(mktemp)
for p in $presets; do
  if ! "$runner" --show "$p" > "$roundtrip_tmp" 2>/dev/null; then
    err "'$runner --show $p' failed"
    continue
  fi
  "$runner" --validate "$roundtrip_tmp" >/dev/null 2>&1 ||
    err "preset '$p': rendered spec does not re-parse (--show | --validate round-trip)"
done
rm -f "$roundtrip_tmp"

# --- 8. fuzz invariants are documented ----------------------------------------
if [ -n "$fuzzer" ]; then
  fuzzdoc="$root/docs/FUZZING.md"
  invariants=$("$fuzzer" --list-invariants 2>/dev/null | awk '{print $1}' |
               grep -E '^[a-z][a-z-]*$')
  if [ -z "$invariants" ]; then
    err "'$fuzzer --list-invariants' produced no invariant names"
  elif [ ! -f "$fuzzdoc" ]; then
    err "docs/FUZZING.md is missing"
  else
    for inv in $invariants; do
      grep -qE "\`${inv}\`" "$fuzzdoc" ||
        err "fuzz invariant '$inv' is not documented in docs/FUZZING.md"
    done
  fi
fi

# --- 9. engine versions are documented ----------------------------------------
enginedoc="$root/docs/ENGINE.md"
if [ ! -f "$enginedoc" ]; then
  err "docs/ENGINE.md is missing"
else
  # Mirrors the `engine =` values src/scenario/spec.cpp's parser accepts.
  for v in v1 v2; do
    grep -qE "engine ?= ?${v}\b" "$enginedoc" ||
      err "engine value '$v' is not documented in docs/ENGINE.md"
    grep -qE "engine ?= ?${v}\b|engine v1\|v2" "$root/docs/SCENARIOS.md" ||
      err "engine value '$v' is not documented in docs/SCENARIOS.md"
  done
fi

# --- 10. qualified names exist in src/ -----------------------------------------
qualified=0
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  while IFS= read -r ref; do
    qualified=$((qualified + 1))
    grep -rqw -- "${ref##*::}" "$root/src" ||
      err "$(basename "$doc"): '$ref' names nothing in src/"
  done < <(grep -o '`[^`]*`' "$doc" |
           grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)+' |
           grep -v '^std::' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "docs_check: FAILED" >&2
  exit 1
fi
echo "docs_check: OK (${#docs[@]} docs, $(echo "$presets" | wc -w) presets, $(echo "$estimators" | wc -w) estimators, $qualified qualified names)"
