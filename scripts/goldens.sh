#!/usr/bin/env bash
# The committed output goldens: every run listed here writes into a fresh
# tree that mirrors goldens/.
#
#   scripts/goldens.sh           check: exit 1 if any output differs from goldens/
#   scripts/goldens.sh --bless   re-record: replace goldens/ with the fresh tree
#
# What is pinned:
#   goldens/<bin>.txt          the figure binaries' --quick stdout and table_tco's
#   goldens/examples/*.txt     the root examples' stdout
#   goldens/fleet_scale/*.txt  the untraced fleet_scale runs' stdout
#   goldens/traced/<run>/      each traced fleet_scale run's stdout and the
#                              fleet_doctor report on its artifacts
#   goldens/artifacts.sha256   the bytes of every trace, metrics document and
#                              CSV those runs write
#
# Each traced run executes in its own directory under the file names it has
# always used, so the artifact paths fleet_scale prints never change, and
# nothing is written into the checkout.  A bless belongs in the same commit
# as the change that moved the output, with CHANGES.md naming what moved.
set -euo pipefail
export LC_ALL=C

case "$#:${1-}" in
    0:) bless=0 ;;
    1:--bless) bless=1 ;;
    *) echo "usage: scripts/goldens.sh [--bless]" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
cargo build --release --workspace --bins --examples
bin=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/goldens
runs=$tmp/runs
mkdir -p "$out/examples" "$out/fleet_scale" "$out/traced" "$runs"

for fig in fig1_characterization fig3_convexity fig4_latency_slo fig5_emu fig6_resource_util fig7_network fig8_cluster; do
    "$bin/$fig" --quick > "$out/$fig.txt"
done
"$bin/table_tco" > "$out/table_tco.txt"

for example in quickstart colocate_websearch characterize_interference fleet_colocate fleet_autoscale; do
    "$bin/examples/$example" > "$out/examples/$example.txt"
done

services=(--services websearch:0.5,memkeyval:0.3,ml_cluster:0.2 --balancer slack-aware)
"$bin/fleet_scale" --fast > "$out/fleet_scale/fast.txt"
"$bin/fleet_scale" --fast --mix 0.4:0.3 > "$out/fleet_scale/mix.txt"
"$bin/fleet_scale" --fast --autoscale all > "$out/fleet_scale/autoscale_all.txt"
"$bin/fleet_scale" --fast "${services[@]}" > "$out/fleet_scale/services.txt"

# traced RUN TRACE METRICS ARGS...: `fleet_scale ARGS --trace TRACE
# [--metrics METRICS]` in runs/RUN (no --metrics when METRICS is empty),
# then fleet_doctor on the same files; fleet_doctor exits 1 if an artifact
# is malformed, a violation or wake is unattributed, a sketch breaks its
# error bound or the energy ledgers break conservation.
traced() {
    local run=$1 files=(--trace "$2")
    [ -z "$3" ] || files+=(--metrics "$3")
    shift 3
    mkdir -p "$runs/$run" "$out/traced/$run"
    (
        cd "$runs/$run"
        "$bin/fleet_scale" "$@" "${files[@]}" > "$out/traced/$run/fleet_scale.txt"
        "$bin/fleet_doctor" "${files[@]}" > "$out/traced/$run/fleet_doctor.txt"
    )
}
traced telemetry trace.jsonl metrics.json --fast
traced autoscale trace_autoscale.jsonl '' --fast --autoscale reactive
# The only run whose ring evicts: 400 events kept, every doctor section [PARTIAL].
traced lossy trace_lossy.jsonl metrics_lossy.json --fast --sim-core event --health --energy --recorder-capacity 400
traced health trace_health.jsonl metrics_health.json --fast --sim-core event --health
traced energy trace_energy.jsonl '' --fast --sim-core event --energy --energy-price peak --autoscale energy-aware
# The only run whose balancer diverts traffic.
traced traffic trace_traffic.jsonl metrics_traffic.json --fast "${services[@]}" --sim-core event --health --seed 3

# A capped, metered sweep fills the CSV's joules column with positive
# readings (the sweep prints its table first, so the column is found on the
# first CSV header line) and keeps every step row's peak_power_w at or under
# the 1800 W cap (each policy's step table starts at a `time_s` header and
# ends at a blank line; uncapped, 81 of its 360 step rows exceed 1800 W).
csv=$runs/energy/energy.csv
"$bin/fleet_scale" --fast --energy --power-cap 1800 --csv > "$csv"
awk -F, '!c { for (i = 1; i <= NF; i++) if ($i == "energy_joules") c = i; next } $c + 0 > 0 { ok = 1 } END { exit ok ? 0 : 1 }' "$csv" \
    || { echo "goldens: energy.csv has no positive energy_joules reading" >&2; exit 1; }
awk -F, -v cap=1800 '$1 == "time_s" { for (i = 1; i <= NF; i++) if ($i == "peak_power_w") c = i; next } /^$/ { c = 0 } c { rows++; if ($c + 0 > cap) over++ } END { exit rows && !over ? 0 : 1 }' "$csv" \
    || { echo "goldens: energy.csv has no step rows, or one above the 1800 W cap" >&2; exit 1; }

(cd "$runs" && sha256sum -- */*) > "$out/artifacts.sha256"

if [ "$bless" = 1 ]; then
    rm -rf goldens
    cp -R "$out" goldens
    git diff --stat goldens
    git status --short goldens
elif ! diff -ru goldens "$out"; then
    echo "goldens: output differs from goldens/ (scripts/goldens.sh --bless re-records it)" >&2
    exit 1
fi
