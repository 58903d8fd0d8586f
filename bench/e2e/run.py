#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see bench/e2e/README.md).

Run one workload:

    python3 bench/e2e/run.py --workload attack --seed 1 --seconds 25 --trace 0

configures the checkout's own CMake project into .bench_build/fademl with
bench/e2e/project_include.cmake added to it, builds the fademl_e2e target
(the first build takes a minute or two; later runs only check it), runs the
workload from the checkout root, and prints as the last line of stdout one
JSON object with the keys "correct", "attempted", "failed" and "metrics".
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit status is 0 only when every
correctness gate held.

Compare two sets of saved result lines (one <workload>-<seed>.json file per
run, as bench/e2e/repeat.sh writes them) against BENCHMARK.json's bounds:

    python3 bench/e2e/run.py --compare SET_A SET_B
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build" / "fademl"
BINARY = BUILD_DIR / "fademl_e2e"
OUT_DIR = ROOT / "artifacts"
RUN_TIMEOUT_S = 170  # the measured program; the build is not counted


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure the repository's project once, with the default build
    type and flags a user gets, then build fademl_e2e incrementally.
    Compiler output goes to stderr so stdout stays the result channel."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no fademl project at {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        include = ROOT / "bench" / "e2e" / "project_include.cmake"
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
             f"-DCMAKE_PROJECT_fademl_INCLUDE={include}",
             "-DFADEML_BUILD_TESTS=OFF", "-DFADEML_BUILD_EXAMPLES=OFF",
             "-DFADEML_BUILD_BENCH=OFF"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "fademl_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_workload(args, bench):
    build()
    artifact = OUT_DIR / f"E2E_{args.workload}.json"
    if artifact.exists():
        artifact.unlink()
    proc = subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not artifact.is_file():
        raise RuntimeError(f"fademl_e2e exited with {proc.returncode}")
    with open(artifact) as f:
        result = json.load(f)
    correct = bool(result["correct"]) and proc.returncode == 0

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None and not correct:
            continue  # a failed gate can stop a run before it measures
        if measured is None:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        if measured["unit"] != spec["unit"]:
            raise RuntimeError(
                f"metric {spec['name']}: unit {measured['unit']} != "
                f"{spec['unit']}")
        if not isinstance(measured["value"], (int, float)):
            raise RuntimeError(f"metric {spec['name']} is not a finite number")
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": measured["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def load_set(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload = path.name.rsplit("-", 1)[0]
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        runs.setdefault(workload, []).append(json.loads(lines[-1]))
    return runs


def compare(set_a, set_b, bench):
    a, b = load_set(set_a), load_set(set_b)
    ok = True
    print(f"{'workload':8} {'metric':18} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'worse B':>8} {'bound':>6}")
    for workload in sorted(set(a) | set(b)):
        runs_a, runs_b = a.get(workload, []), b.get(workload, [])
        if len(runs_a) < 2 or len(runs_b) < 2:
            print(f"{workload:8} needs at least two runs per set")
            ok = False
            continue
        for run in runs_a + runs_b:
            if not run["correct"] or run["failed"]:
                print(f"{workload:8} a run failed its correctness gates")
                ok = False
        for spec in bench["end_to_end"]:
            name = spec["name"]
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (mb - ma) / ma if spec["better"] == "lower" else \
                (ma - mb) / ma
            bound = spec["bound"]
            verdict = worse <= bound and (
                name == "setup_s" or max(sa, sb) <= bound)
            ok = ok and verdict
            print(f"{workload:8} {name:18} {ma:12.4f} {mb:12.4f} "
                  f"{sa:9.2%} {sb:9.2%} {worse:8.2%} {bound:6.2f}"
                  f"{'' if verdict else '  MISS'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()
    try:
        bench = load_benchmark()
        if args.compare:
            return compare(*args.compare, bench)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names or args.seed is None or \
                args.seed < 0 or not args.seconds or args.seconds <= 0:
            parser.error(f"--workload one of {names}, --seed >= 0 and "
                         "--seconds > 0 are required")
        return run_workload(args, bench)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
