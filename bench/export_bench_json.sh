#!/usr/bin/env sh
# Runs every bench binary and collects one JSON file per bench into an
# output directory, so PR-over-PR perf trajectories can be diffed.
#
#   bench/export_bench_json.sh [build_dir] [out_dir]
#
# Defaults: build_dir=build, out_dir=bench/results.
#
# Two kinds of bench binaries exist (see bench/CMakeLists.txt):
#   * google-benchmark timing benches — exported via
#     --benchmark_out=<out>/<name>.json --benchmark_out_format=json;
#   * plain table executables (EM model, independence, space, the E19/E20/
#     E21 serving sweeps) — these ignore argv and write their own
#     BENCH_<name>.json into the working directory, so we run them inside
#     <out> and keep whatever BENCH_*.json they produce. They must be
#     listed here by name (probing with a flag would run the full sweep).
set -eu

is_table_bench() {
  case "$1" in
    bench_space|bench_em_sampling|bench_em_range|bench_independence| \
    bench_approx_iqs|bench_deamortized|bench_batch_serving| \
    bench_multidim_batch|bench_parallel_serving|bench_telemetry| \
    bench_concurrent_churn|bench_serve_frontend|bench_join_sampling)
      return 0 ;;
    *)
      return 1 ;;
  esac
}

# Table benches that WRITE a BENCH_<name>.json (the serving sweeps);
# the older EM/space/independence tables only print.
table_bench_writes_json() {
  case "$1" in
    bench_batch_serving|bench_multidim_batch|bench_parallel_serving| \
    bench_telemetry|bench_concurrent_churn|bench_serve_frontend| \
    bench_join_sampling)
      return 0 ;;
    *)
      return 1 ;;
  esac
}

# Fails the run if a bench did not leave its JSON behind (or left it
# empty) — a silently skipped bench would otherwise look like a perf win.
require_json() {
  if [ ! -s "$1" ]; then
    echo "error: $2 produced no JSON at $1" >&2
    exit 1
  fi
}

# Fails the run with the bench binary's own exit code if it did not exit
# cleanly (a crash mid-run can still leave a plausible-looking partial
# JSON behind, so checking the file alone is not enough). Named here
# rather than left to `set -e` so the failing bench is identified and
# the status survives any future refactor of the call sites.
require_clean_exit() {
  if [ "$1" -ne 0 ]; then
    echo "error: $2 exited with status $1" >&2
    exit "$1"
  fi
}

build_dir=${1:-build}
out_dir=${2:-bench/results}

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found — build first:" >&2
  echo "  cmake -B $build_dir -G Ninja && cmake --build $build_dir" >&2
  exit 1
fi

mkdir -p "$out_dir"
out_abs=$(cd "$out_dir" && pwd)

for bench in "$build_dir"/bench/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  bench_abs=$(cd "$(dirname "$bench")" && pwd)/$name
  if is_table_bench "$name"; then
    echo "== $name (table) =="
    status=0
    (cd "$out_abs" && "$bench_abs") || status=$?
    require_clean_exit "$status" "$name"
    if table_bench_writes_json "$name"; then
      require_json "$out_abs/BENCH_${name#bench_}.json" "$name"
    fi
  else
    echo "== $name (google-benchmark) =="
    status=0
    "$bench_abs" --benchmark_out="$out_abs/$name.json" \
      --benchmark_out_format=json || status=$?
    require_clean_exit "$status" "$name"
    require_json "$out_abs/$name.json" "$name"
  fi
done

echo
echo "JSON written to $out_dir:"
ls "$out_abs"/*.json 2>/dev/null || echo "  (none)"
