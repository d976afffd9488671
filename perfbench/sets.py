"""Repeat the benchmark over seeds and summarise the spread of each metric.

Usage, from the root of a checkout:

    python3 perfbench/sets.py --workloads NAME[,NAME...] --seeds 1-10 --sets 2 \
        [--seconds S] [--out FILE]

For each workload, runs ``perfbench/run.py --trace 0`` once per seed, as
many sets as asked, one run after another, and then one ``--trace 1`` run
on the first seed. For every end-to-end metric it prints, per set, the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median, next to the metric's bound in BENCHMARK.json,
and how far each later set's median lies from the first set's. ``--out``
writes every run's result line and the summaries as JSON, in the form of
perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUN_TIMEOUT_S = 300


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    """(result line, stats line, wall seconds) of one benchmark run."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def summarise(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    record = {
        "about": "Per workload: sets of --trace 0 runs, one per seed, each run's result line "
                 "as printed, with wall_s the run's wall time; summary gives median, quartiles "
                 "and spread = (q3 - q1) / median. traced_seed1 is one --trace 1 run on the "
                 "first seed. env is the machine the runs were made on; commit is the "
                 "program's commit, where the checkout is a git repository.",
        "run_seconds": seconds,
        "workloads": {},
    }

    for workload in args.workloads.split(","):
        sets = []
        for number in range(args.sets):
            runs, walls = [], []
            for seed in seeds:
                result, stats, wall = run(workload, seed, seconds, 0)
                record["env"] = {k: v for k, v in stats["env"].items() if k not in ("seed", "commit")}
                record["commit"] = stats["env"]["commit"]
                runs.append(result)
                walls.append(round(wall, 1))
                print(f"{workload} set {number + 1} seed {seed}: {wall:.1f} s "
                      + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                      flush=True)
            sets.append({"seeds": seeds, "runs": runs, "wall_s": walls, "summary": summarise(runs)})
        traced, _, _ = run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {"sets": sets, "traced_seed1": traced}

        first = sets[0]["summary"]
        for number, one in enumerate(sets, 1):
            for name, s in one["summary"].items():
                shift = (s["median"] / first[name]["median"] - 1) if first[name]["median"] else 0.0
                print(f"{workload} set {number} {name:14s} median {s['median']:.6g} {s['unit']}"
                      f"  spread {s['spread']:.3f} (bound {bounds.get(name)})"
                      f"  vs set 1 {shift:+.3f}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
