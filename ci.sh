#!/usr/bin/env bash
# Repo CI gate: build, tests, formatting, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> urbmark compiles against this build's public surface"
# Early, so that narrowing an item urbmark names fails here rather than at
# the urbmark step after every campaign.
cargo check --manifest-path benchmark/Cargo.toml --all-targets --offline --target-dir target/benchmark

echo "==> examples: each runs to completion (stdout discarded, so a panic fails CI)"
cargo build --release --examples
for example in examples/*.rs; do
  target/release/examples/"$(basename "$example" .rs)" > /dev/null
done

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings -D clippy::or_fun_call"
echo "    (also the determinism contract, crates/clippy.toml: D001-D007, S002, P001-P002)"
echo "    (and the visibility rule, unreachable_pub: dead_code sees every crate-private item)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::or_fun_call

echo "==> cargo doc --workspace --no-deps, warnings denied (a public doc linking a private or deleted item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> size (reported, not gated): the counters ROADMAP tracks per PR"
rs_files=$(find crates src tests examples -name '*.rs')
echo "    workspace .rs lines: $(echo "$rs_files" | xargs cat | wc -l)"
echo "    crates/*/src lines:  $(find crates/*/src -name '*.rs' | xargs cat | wc -l)"
echo "    test .rs lines:      $(find tests crates/*/tests -name '*.rs' | xargs cat | wc -l)"
echo "    public items:        $(echo "$rs_files" | grep -v fixtures/ \
  | xargs grep -hE '^\s*pub (fn|struct|enum|trait|const|type|static|mod) ' | wc -l)"
echo "    public fields in crates/*/src: $(find crates/*/src -name '*.rs' | xargs grep -hE '^\s*pub \w+\s*:' | wc -l)"
# The three ratios tests/alloc_budget.rs gates (FastS, SSM, set-up).
cargo test -q --test alloc_budget allocation_budget -- --nocapture \
  | grep -oE '[A-Za-z-]+ allocations per .*' | sed 's/^/    /'

echo "==> alloc_sites: the allocation profile of each steady window names the session-state layer"
# The allocation counterpart of the tools/sampler step below: a failed
# budget is mended from this profile, so it must not rot unnoticed.
cargo test -q --test alloc_budget alloc_sites -- --ignored --nocapture > target/ci.alloc_sites
for window in FastS SSM; do
  awk -v head="steady $window window:" \
    'index($0, head) == 1 { on = 1; next } /^steady .* window:/ { on = 0 } on' \
    target/ci.alloc_sites | grep -q 'statestore::' \
    || { echo "the steady $window profile names no statestore:: frame:" >&2; cat target/ci.alloc_sites >&2; exit 1; }
  echo "    $(grep "^steady $window window:" target/ci.alloc_sites)"
done

urb=target/release/urb # the one bench executable, built by the first step

echo "==> urb exp all: the evaluation record reproduces byte for byte"
# Also writes target/BENCH_parallel_recovery.json for the trajectory step.
$urb exp all | cmp - experiments_output.txt

echo "==> urb trace smoke: record + strict verify + summary + same-seed diff, then the --degraded recording"
$urb trace record target/ci_trace_a.jsonl --seed 7
$urb trace record target/ci_trace_b.jsonl --seed 7
$urb trace verify target/ci_trace_a.jsonl --strict
$urb trace summary target/ci_trace_a.jsonl
$urb trace diff target/ci_trace_a.jsonl target/ci_trace_b.jsonl
# The fail-slow scenario: latency-anomaly detector and performance plane.
$urb trace record target/ci_trace_d.jsonl --degraded
$urb trace verify target/ci_trace_d.jsonl --strict
$urb trace summary target/ci_trace_d.jsonl

echo "==> urb chaos smoke campaign: 64 strict runs at the acceptance seed"
$urb chaos --seed 7 --runs 64 --strict

echo "==> urb chaos policy tournament: full fault matrix x every policy, strict"
$urb chaos tournament --seed 7 --runs "${TOURNAMENT_RUNS:-18}" --strict --json

echo "==> urb chaos degraded campaign: fail-slow matrix, performance-parity strict"
$urb chaos degraded --seed 7 --runs "${DEGRADED_RUNS:-12}" --strict --json

echo "==> urb chaos netstate campaign: state-plane & network faults, session-integrity strict"
$urb chaos netstate --seed 7 --runs "${NETSTATE_RUNS:-100}" --strict --json

echo "==> urbmark: the benchmark's frozen public surface compiles, its package tests and the quick report's gates pass"
# benchmark/ is a package of its own (outside the workspace), so nothing
# above compiles it: a PR that renames a function it calls, or changes
# what a seed simulates, would otherwise be caught only by the next
# person to run the report.
cargo test --manifest-path benchmark/Cargo.toml --offline --target-dir target/benchmark -q
# urbmark prints its FAILED/VIOLATION lines on stdout: keep them for the log.
CARGO_TARGET_DIR=target/benchmark benchmark/run.sh --quick > target/ci.quick \
  || { status=$?; echo "the quick report failed:" >&2; cat target/ci.quick >&2; exit "$status"; }

echo "==> tools/sampler: the profiler DESIGN.md §9's stop rule depends on compiles clean and reads a profile"
# One second of chaos_ladder_1n under the preload library, then the
# whole-process inclusive view and the per-layer one: each must exit 0
# and name the event loop, by function and by module.
# (This urbmark has no frame pointers, so stacks are one frame deep and
# run_until is named by the ~10 of ~300 samples that land in its own
# code; a real profile needs the RUSTFLAGS build, EXPERIMENTS.md.)
if command -v cc > /dev/null; then
  cc -O2 -Wall -Werror -shared -fPIC -o target/sampler.so tools/sampler/sampler.c
  LD_PRELOAD=target/sampler.so SAMPLER_OUT=target/ci.samples \
    target/benchmark/release/urbmark --workload chaos_ladder_1n --seed 7 --seconds 1 --trace 0 > /dev/null
  tools/sampler/symbolise.py target/benchmark/release/urbmark target/ci.samples --inclusive --top 1000 \
    > target/ci.profile
  grep -q run_until target/ci.profile \
    || { echo "the inclusive profile does not name run_until:" >&2; head target/ci.profile >&2; exit 1; }
  tools/sampler/symbolise.py target/benchmark/release/urbmark target/ci.samples --layers --top 1000 \
    > target/ci.layers
  grep -q 'simcore::event' target/ci.layers \
    || { echo "the per-layer profile does not name simcore::event:" >&2; head target/ci.layers >&2; exit 1; }
  echo "    $(head -n 1 target/ci.profile); run_until named; by layer:$(grep -m 1 'simcore::event' target/ci.layers)"
else
  echo "    skipped: no cc on this box"
fi

echo "==> urbmark fingerprints: every seed still simulates what benchmark/BASELINE.json recorded"
# A simulator speed-up must leave every simulated statistic identical.
# The quick report above only checks that two runs of this build agree
# with each other; this compares the build with the recorded baseline.
python3 - <<'PY'
import json, subprocess, sys
baseline = json.load(open("benchmark/BASELINE.json"))
moved = []
for seed in (7, 11):
    for workload, want in baseline[f"seed_{seed}"]["fingerprints"].items():
        out = subprocess.run(
            ["target/benchmark/release/urbmark", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        got = [l.split()[-1] for l in out.splitlines() if l.startswith("sim_fingerprint ")]
        if got != [want]:
            moved.append(f"{workload} seed {seed}: BASELINE.json {want}, this build {got}")
if moved:
    sys.exit("sim_fingerprint moved:\n  " + "\n  ".join(moved))
print("    8 fingerprints (4 workloads x seeds 7, 11) equal benchmark/BASELINE.json")
PY

echo "==> tools/pairs.py: one alternating pair per workload at 1 s, this build on both sides"
# How a [perf_opt] change is measured against its parent (EXPERIMENTS.md);
# here only the plumbing: runs, fingerprint check per pair, the summary.
tools/pairs.py target/benchmark/release/urbmark target/benchmark/release/urbmark \
  --seeds 7 --pairs 1 --seconds 1 > target/ci.pairs
echo "    $(grep -c 'wins' target/ci.pairs) metric lines, every pair's sim_fingerprint equal"

echo "==> trajectory: the repo-root BENCH_*.json reports reproduce"
for name in BENCH_parallel_recovery BENCH_policy_tournament BENCH_degraded_parity BENCH_netstate_integrity; do
  fresh="target/${name}.json"
  committed="${name}.json"
  if [ -f "$committed" ]; then
    # Every report is simulated end to end, so every value must reproduce
    # exactly — unless a *_RUNS override changed the campaign's size, when
    # only the key set is compared.
    python3 - "$committed" "$fresh" <<'PY'
import json, sys
committed_path, fresh_path = sys.argv[1], sys.argv[2]
committed = json.load(open(committed_path))
fresh = json.load(open(fresh_path))
drift = sorted(set(committed) ^ set(fresh))
if drift:
    sys.exit(f"structural drift in {fresh_path} vs {committed_path}: {drift}")
if all(committed.get(runs) == fresh.get(runs) for runs in ("runs", "runs_per_policy")):
    moved = {k: (committed[k], fresh[k]) for k in committed if committed[k] != fresh[k]}
    if moved:
        sys.exit(f"simulated values moved in {fresh_path} vs {committed_path}: {moved}")
    print(f"    {fresh_path}: all {len(fresh)} values equal the committed report")
PY
  fi
  cp "$fresh" "$committed"
done

echo "CI OK"
