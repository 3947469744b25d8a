#!/usr/bin/env python3
"""Alternating paired runs of two urbmark binaries, summarised per metric.

    pairs.py PARENT CHANGE [--workloads W,...] [--seeds 7,11] [--pairs 10]
             [--seconds 20] [--log FILE]

PARENT and CHANGE are two urbmark executables (each built from its own
checkout: `CARGO_TARGET_DIR=DIR cargo build --release --offline
--manifest-path benchmark/Cargo.toml`). For every (workload, seed) the
script runs `--pairs` pairs of driver-mode runs (`--workload W --seed S
--seconds N --trace 0`), one run of each binary per pair, alternating
which goes first so that a drift of the host over time falls on both
sides alike. Both runs of a pair must print the same `sim_fingerprint`
and report `"correct": true`; otherwise the script says which pair and
exits 1 once everything has run.

For every end-to-end metric of BENCHMARK.json it then prints each side's
median and quartiles (Python's exclusive method, which urbmark's own
report uses), the change of the median, in how many pairs CHANGE was
better (by the metric's `better` direction; a tie is no win), and whether
the medians differ by more than PARENT's inter-quartile range. `--log`
appends every run's JSON result line, tagged with side, workload, seed
and pair, for later analysis.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

WORKLOADS = "steady_fasts_1n,steady_ssm_2n,chaos_ladder_1n,netstate_ssm_2n"
CONTRACT = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(binary, workload, seed, seconds):
    """One driver-mode run: (fingerprint, parsed JSON result line)."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    prints = [l.split()[-1] for l in lines if l.startswith("sim_fingerprint ")]
    return (prints[0] if len(prints) == 1 else None), json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", default=WORKLOADS)
    ap.add_argument("--seeds", default="7,11")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--log")
    args = ap.parse_args()
    metrics = json.loads(CONTRACT.read_text())["end_to_end"]
    log = open(args.log, "a") if args.log else None
    problems = []
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            values = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                prints = {}
                for side in order:
                    binary = args.parent if side == "parent" else args.change
                    prints[side], result = run(binary, workload, seed, args.seconds)
                    if not result.get("correct"):
                        problems.append(f"{workload} seed {seed} pair {pair}: {side} run not correct")
                    for m in metrics:
                        values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
                    if log:
                        tag = {"side": side, "workload": workload, "seed": seed, "pair": pair}
                        log.write(json.dumps({**tag, "fingerprint": prints[side], **result}) + "\n")
                        log.flush()
                if prints["parent"] is None or prints["parent"] != prints["change"]:
                    problems.append(f"{workload} seed {seed} pair {pair}: sim_fingerprint "
                                    f"parent {prints['parent']} change {prints['change']}")
            print(f"{workload} seed {seed}: {args.pairs} pairs x {args.seconds} s")
            for m in metrics:
                name, higher = m["name"], m["better"] == "higher"
                a, b = values["parent"][name], values["change"][name]
                (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
                wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
                moved = f"{(bm - am) / am * 100:+.2f} %" if am else "n/a"
                beyond = "yes" if abs(bm - am) > a3 - a1 else "no"
                print(f"  {name:<20} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  "
                      f"change {bm:.6g} [{b1:.6g}, {b3:.6g}]  {moved:>9}  "
                      f"wins {wins}/{len(a)}  beyond parent IQR: {beyond}")
            sys.stdout.flush()
    if problems:
        sys.exit("\n".join(problems))


if __name__ == "__main__":
    main()
