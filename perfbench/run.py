"""msfuse benchmark: times the CLI end to end and, traced, layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own
interpreter, and prints each metric by name with its unit.

One operation is one in-process ``msfuse.cli.main([...])`` call: the same
code path as the ``msfuse`` console script, file I/O and exit code
included. The load is a closed loop of one client in one process; the
benchmark starts no threads of its own. The program runs with its own
thread defaults (``MSFUSE_THREADS`` and BLAS threads as found in the
environment), and the result record lists the settings it ran with.

Workloads (inputs are generated from --seed before timing starts):

- pair-rdot-256x192: default config (D=17) on synth.random_dot_pair(256,
  192, 5, seed), run as ``reconstruct``. The WLS pyramid carries most of
  the time, so it shows WLS gains and pyramid reuse.
- pair-layered-160x120-d96: ``cost.d_max = 95`` on the layered scene of
  scene.py, run as ``reconstruct``. The cost-volume layers (cost,
  aggregate, fusion) carry most of the time and memory; the occluder and
  the textureless band make LR-check and fill outcomes count.

A run generates its inputs, measures setup_s, then spends --seconds on a
closed loop of operations: the first is a warm-up, checked but not timed
into the metrics, and the loop starts no operation that would not end
within the window.

With --trace 0 the last stdout line holds the end-to-end metrics:

- op_s_p50 (s): median wall time per timed operation.
- mpix_per_s (Mpixel/s): input pixels of passing timed operations per
  second of their operation time; a pair counts its left image.
- peak_rss_mib (MiB): peak resident set of this process.
- err1_px (px): mean disparity error per ground-truth pixel, each error
  capped at 1 px, the bad-pixel threshold of Scharstein & Szeliski (IJCV
  2002). It is the bad-1 share plus the mean subpixel error of the good
  pixels, so it moves with bad1_pct but never reads 0 on the random-dot
  pair, where bad1_pct is 0. A pixel without a disparity counts 1 px.
- ok_frac: share of operations that exit 0 and pass their output check.
- setup_s (s): median wall time of a fresh interpreter that imports
  msfuse.cli, which every ``msfuse`` invocation pays.

No tail percentile is reported: a run holds too few operations for one.

With --trace 1 the last line holds the per-layer metrics of tracer.py from
one traced operation, plus the same operation run untraced in a fresh
interpreter (the tracing overhead is the difference) and once more with
MSFUSE_THREADS=1 and BLAS pinned to one thread (pipeline.serial_op_s).

Every operation's output is checked outside the timed region; see check().
Each run writes its full record, environment and seed included, to
perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "pair-rdot-256x192": {"scene": "rdot", "size": (256, 192)},
    "pair-layered-160x120-d96": {"scene": "layered", "size": (160, 120),
                                 "config": "cost.d_max = 95\n"},
}
RDOT_DISPARITY = 5
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("MSFUSE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SERIAL_ENV = {name: "1" for name in THREAD_VARS}


def _import_msfuse():
    """Import msfuse from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "msfuse", "cli.py")):
        sys.exit(f"benchmark: no msfuse sources under {SRC}")
    sys.path.insert(0, SRC)
    import msfuse.cli
    if not os.path.abspath(msfuse.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: msfuse imported from {msfuse.cli.__file__}, not {SRC}")


# -- inputs ------------------------------------------------------------------

class Inputs:
    """The generated files of one workload and seed, and the op's argv."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}")
        self.left = os.path.join(self.dir, "left.pgm")
        self.right = os.path.join(self.dir, "right.pgm")
        self.gt = os.path.join(self.dir, "gt.pfm")
        self.config = os.path.join(self.dir, "msfuse.cfg")
        self.disparity = os.path.join(self.dir, "disparity.pfm")
        self.cloud = os.path.join(self.dir, "cloud.ply")
        width, height = self.spec["size"]
        self.pixels = width * height

    def generate(self):
        from msfuse import synth
        from scene import layered_scene, write_pair

        os.makedirs(self.dir, exist_ok=True)
        width, height = self.spec["size"]
        if self.spec["scene"] == "rdot":
            pair = synth.random_dot_pair(width, height, RDOT_DISPARITY, self.seed)
        else:
            pair = layered_scene(width, height, self.seed)
        write_pair(self.dir + os.sep, *pair)
        if "config" in self.spec:
            with open(self.config, "w") as f:
                f.write(self.spec["config"])

    def digests(self):
        out = {}
        for path in (self.left, self.right, self.gt):
            with open(path, "rb") as f:
                out[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
        return out

    def argv(self):
        argv = ["reconstruct", self.left, self.right,
                "--out-disparity", self.disparity, "--out-cloud", self.cloud]
        if "config" in self.spec:
            argv += ["--config", self.config]
        return argv

    def clear_outputs(self):
        """Remove the last operation's outputs, so none can pass a check twice."""
        for path in (self.disparity, self.cloud):
            if os.path.exists(path):
                os.remove(path)


# -- one operation and its check ------------------------------------------------

def run_op(inputs):
    """Run one operation; return (seconds, exit code)."""
    import msfuse.cli

    inputs.clear_outputs()
    argv = inputs.argv()
    t0 = time.perf_counter()
    rc = msfuse.cli.main(argv)
    return time.perf_counter() - t0, rc


def check(inputs, rc):
    """(ok, reason, quality) for the outputs of the last operation.

    quality holds err1_px, bad1_pct (share of pixels whose disparity is
    missing or off by more than 1 px) and avgerr_px (mean absolute error,
    a missing disparity counting as 0) against the ground truth.
    """
    import numpy as np

    from formats import read_pfm, read_ply_vertex_count
    from msfuse.core import INVALID_DISPARITY
    from msfuse.reconstruct import MIN_DISPARITY

    if rc != 0:
        return False, f"exit code {rc}", None

    quality = None
    try:
        gt = read_pfm(inputs.gt).astype(np.float64)
        d = read_pfm(inputs.disparity).astype(np.float64)
        if d.shape != gt.shape or not np.isfinite(d).all():
            return False, "disparity map has the wrong shape or non-finite values", None
        missing = d == INVALID_DISPARITY
        err = np.abs(np.where(missing, 0.0, d) - gt)
        bad = missing | (err > 1.0)
        quality = {"err1_px": float(np.mean(np.where(bad, 1.0, err))),
                   "bad1_pct": float(np.mean(bad) * 100),
                   "avgerr_px": float(err.mean())}
        declared, rows = read_ply_vertex_count(inputs.cloud)
        expected = int(np.count_nonzero(~missing & (d > MIN_DISPARITY)))
        if not declared == rows == expected:
            return False, (f"PLY declares {declared} vertices and holds {rows}, "
                           f"expected {expected}"), quality
    except (OSError, ValueError) as exc:
        return False, f"unreadable output: {exc}", quality
    return True, None, quality


# -- environment -----------------------------------------------------------------

def _blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment(seed):
    import numpy
    import scipy

    from msfuse import pipeline

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "msfuse_branch_threads": pipeline.thread_count(),
        "blas_threads": _blas_threads(),
        "commit": commit,
        "seed": seed,
    }


# -- runs --------------------------------------------------------------------------

def _pythonpath_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def measure_setup():
    """Median wall time of SETUP_SAMPLES fresh interpreters importing msfuse.cli."""
    env = _pythonpath_env()
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import msfuse.cli"], env=env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def untraced_run(inputs, seconds):
    """A warm-up operation, then a closed loop of timed operations, all
    within `seconds`; end-to-end metrics."""
    setup_s = measure_setup()
    ops = []
    start = time.perf_counter()
    while True:
        op_s, rc = run_op(inputs)
        ok, reason, quality = check(inputs, rc)
        ops.append({"op_s": op_s, "ok": ok, "reason": reason, "quality": quality,
                    "warmup": not ops})
        timed = ops[1:]
        if not timed:
            continue
        # Start another operation only if it should end within the run.
        typical = statistics.median(op["op_s"] for op in timed)
        if time.perf_counter() - start + typical > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passed = [op for op in ops if op["ok"]]
    qualities = [op["quality"]["err1_px"] for op in ops if op["quality"]]
    metrics = {
        "op_s_p50": (statistics.median(op["op_s"] for op in timed), "s"),
        "mpix_per_s": (inputs.pixels * sum(op["ok"] for op in timed) / 1e6
                       / sum(op["op_s"] for op in timed), "Mpixel/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_frac": (len(passed) / len(ops), "frac"),
        "setup_s": (setup_s, "s"),
    }
    if qualities:
        metrics["err1_px"] = (statistics.median(qualities), "px")
    return ops, metrics, {}


def child_op(inputs, extra_env):
    """One untraced operation and its check in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", "--workload",
            inputs.workload, "--seed", str(inputs.seed)]
    proc = subprocess.run(argv, env=_pythonpath_env(extra_env), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return {"op_s": None, "ok": False,
                "reason": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "quality": None}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(inputs):
    """One traced operation, then the same untraced and serial in fresh
    interpreters; per-layer metrics."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        op_s, rc = run_op(inputs)
    finally:
        tracer.uninstall()
    ok, reason, quality = check(inputs, rc)
    ops = [{"kind": "traced", "op_s": op_s, "ok": ok, "reason": reason, "quality": quality}]
    ops.append({"kind": "untraced", **child_op(inputs, {})})
    ops.append({"kind": "serial", **child_op(inputs, SERIAL_ENV)})

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.op_s"] = (op_s, "s")
    if ops[1]["ok"]:
        metrics["trace.overhead_s"] = (op_s - ops[1]["op_s"], "s")
    if ops[2]["ok"]:
        metrics["pipeline.serial_op_s"] = (ops[2]["op_s"], "s")
    if quality is not None:
        metrics["disparity.bad1_pct"] = (quality["bad1_pct"], "%")
    extra = {
        "wrappers_attached": tracer.attached,
        "wrappers_missing": tracer.missing,
        "predictions": tracing.PREDICTIONS,
        "spans": [span.as_dict() for span in tracer.spans],
    }
    return ops, metrics, extra


def run_all(args):
    """Run every workload in its own interpreter and print each metric by
    name with its unit; exit 1 if any operation failed."""
    all_correct = True
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}")
            all_correct = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_msfuse()
    if args.workload == "all":
        return run_all(args)
    inputs = Inputs(args.workload, args.seed)

    if args.child:
        op_s, rc = run_op(inputs)
        ok, reason, quality = check(inputs, rc)
        print(json.dumps({"op_s": op_s, "ok": ok, "reason": reason, "quality": quality,
                          "env": environment(args.seed)}))
        return 0

    inputs.generate()
    env = environment(args.seed)
    if args.trace:
        ops, metrics, extra = traced_run(inputs)
    else:
        ops, metrics, extra = untraced_run(inputs, args.seconds)
    failed = sum(not op["ok"] for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs_sha256": inputs.digests(),
              "ops": ops, "result": result, **extra}
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(inputs.dir)

    for op in ops:
        if not op["ok"]:
            print(f"check failed: {op['reason']}", file=sys.stderr)
    print(json.dumps({"env": env, "record": os.path.relpath(record_path, ROOT)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
