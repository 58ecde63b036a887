#!/usr/bin/env bash
# Paired host-side comparison of two builds of the repo benchmark, by the
# rule a performance claim in this repository is held to: runs of the
# parent and the change alternate (the parent goes first in odd pairs, the
# change in even ones), every run is printed, then for each host end-to-end
# metric — host_ops_per_s (higher is better), peak_rss_mb and setup_s
# (lower is better) — each side's median and quartiles, the pairs each side
# won, and a verdict. A gain is claimed only when the change is better in
# at least nine tenths of the pairs (ties count for neither side) and the
# medians differ by more than the parent's own quartile spread; a loss by
# the same rule reversed; anything else, or fewer than ten pairs, is
# unresolved.
#
#   scripts/paired.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS [SECONDS]
#
# PARENT_BIN and CHANGE_BIN are `benchmark` binaries built from each
# commit's benchmark/ (cargo build --release --offline --manifest-path
# benchmark/Cargo.toml, each into a target directory of its own). Each run
# is `BIN run --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`
# (SECONDS defaults to 10, the benchmark's run length). The script also
# says whether every run of both sides read the same virtual-time metrics,
# which a host-time change must leave bit-identical.
set -euo pipefail

if [ "$#" -lt 5 ] || [ "$#" -gt 6 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS [SECONDS]" >&2
  exit 2
fi
parent_bin=$1 change_bin=$2 workload=$3 seed=$4 pairs=$5 seconds=${6:-10}
for bin in "$parent_bin" "$change_bin"; do
  [ -x "$bin" ] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "$0: PAIRS must be a positive integer" >&2; exit 2; }

# The value of end-to-end metric $2 in the driver line $1.
metric() {
  grep -o "\"$2\":{\"value\":[^,}]*" <<<"$1" | sed 's/.*"value"://' || true
}

# One run of `$1`: prints `host_ops_per_s peak_rss_mb setup_s sim` (sim is
# the virtual-time metrics and the fingerprint of every virtual latency,
# as one word), or fails with the run's output.
run() {
  local out line
  out="$("$1" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>&1)" \
    || { echo "$0: $1 failed:" >&2; echo "$out" >&2; return 1; }
  line="$(tail -n 1 <<<"$out")"
  grep -q '"correct":true' <<<"$line" \
    || { echo "$0: $1 reported an incorrect run: $line" >&2; return 1; }
  echo "$(metric "$line" host_ops_per_s) $(metric "$line" peak_rss_mb)" \
    "$(metric "$line" setup_s)" \
    "$(metric "$line" sim_lat_mean_us)/$(metric "$line" sim_ops_per_s)/$(
      grep "^$workload sim_fingerprint " <<<"$out" | awk '{ print $3 }')"
}

echo "$workload, seed $seed, --seconds $seconds, $pairs pairs"
echo "  pair  first   parent /s  change /s  parent MB  change MB  parent setup s  change setup s"
results=""
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    first=parent
    p="$(run "$parent_bin")"
    c="$(run "$change_bin")"
  else
    first=change
    c="$(run "$change_bin")"
    p="$(run "$parent_bin")"
  fi
  read -r p_ops p_rss p_setup p_sim <<<"$p"
  read -r c_ops c_rss c_setup c_sim <<<"$c"
  printf '  %4d  %-6s  %9.1f  %9.1f  %9.2f  %9.2f  %14.4f  %14.4f\n' \
    "$i" "$first" "$p_ops" "$c_ops" "$p_rss" "$c_rss" "$p_setup" "$c_setup"
  results+="$p_ops $c_ops $p_rss $c_rss $p_setup $c_setup $p_sim $c_sim"$'\n'
done

awk '
  # The p-quantile of sorted v[1..n], interpolated between closest ranks.
  function quantile(v, n, p,    h, lo) {
    h = 1 + (n - 1) * p; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
  }
  function sort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
  }
  # Medians, quartiles, pairs won and the verdict of metric `name`, whose
  # parent and change values are columns `col` and `col + 1` of every
  # pair; `sign` is 1 when higher is better and -1 when lower is.
  function judge(name, col, sign, better,    i, p, c, won, lost, pm, pq1, pq3, cm, cq1, cq3, iqr, verdict) {
    for (i = 1; i <= n; i++) {
      p[i] = row[i, col]; c[i] = row[i, col + 1]
      if (sign * (c[i] - p[i]) > 0) won++; else if (sign * (p[i] - c[i]) > 0) lost++
    }
    sort(p, n); sort(c, n)
    pm = quantile(p, n, 0.5); pq1 = quantile(p, n, 0.25); pq3 = quantile(p, n, 0.75)
    cm = quantile(c, n, 0.5); cq1 = quantile(c, n, 0.25); cq3 = quantile(c, n, 0.75)
    iqr = pq3 - pq1
    printf "%s (%s is better)\n", name, better
    printf "  parent: median %.6g  quartiles %.6g .. %.6g  (IQR %.6g)\n", pm, pq1, pq3, iqr
    printf "  change: median %.6g  quartiles %.6g .. %.6g  (IQR %.6g)\n", cm, cq1, cq3, cq3 - cq1
    printf "  change better in %d of %d pairs, parent better in %d, %d tied\n", won, n, lost, n - won - lost
    printf "  median change %+.4g (%+.1f %% of the parent median), parent IQR %.6g\n",
      cm - pm, (pm > 0 ? 100 * (cm - pm) / pm : 0), iqr
    if (n < 10) verdict = "unresolved: fewer than 10 pairs"
    else if (10 * won >= 9 * n && sign * (cm - pm) > iqr) verdict = "gain: >= 9/10 pairs better and medians apart by more than the parent IQR"
    else if (10 * lost >= 9 * n && sign * (pm - cm) > iqr) verdict = "loss: >= 9/10 pairs worse and medians apart by more than the parent IQR"
    else verdict = "unresolved: no claim either way"
    print "  verdict: " verdict
  }
  NF == 8 {
    n++
    for (i = 1; i <= 6; i++) row[n, i] = $i + 0
    if (sim == "") sim = $7
    if ($7 != sim || $8 != sim) simdiff = 1
  }
  END {
    judge("host_ops_per_s", 1, 1, "higher")
    judge("peak_rss_mb", 3, -1, "lower")
    judge("setup_s", 5, -1, "lower")
    printf "  virtual-time metrics identical on every run: %s\n", simdiff ? "NO" : "yes"
  }' <<<"$results"
