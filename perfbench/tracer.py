"""Span tracer that wraps msfuse's public functions from outside, at run time.

No source file of the program is edited. For each wrapped function the
tracer replaces every name bound to it in every loaded ``msfuse`` module:
``msfuse.cli`` imports ``load_image``, ``save_image``, ``triangulate`` and
``export_ply`` by name, so patching only their defining modules would miss
the calls the CLI makes. CG iterations come from wrapping the ``cg`` name
that ``msfuse.wls`` imports from scipy.

Each span records its name, start, end, parent span, thread id and the
process RSS around it. Spans stay in memory until ``spans`` is read. A
span opened on a thread with no open span of its own (a worker of the
pipeline's branch pool) takes as parent the innermost open span of the
thread that installed the tracer.

A wrapped function that a later change removes is listed as missing, and
the metrics derived from it are left out rather than reported as zero.
"""

import os
import resource
import sys
import threading
import time

import numpy as np

# (module, attribute, span name). The span name is "<layer>.<function>".
TARGETS = [
    ("msfuse.cli", "main", "cli.main"),
    ("msfuse.core", "load_image", "core.load_image"),
    ("msfuse.core", "save_image", "core.save_image"),
    ("msfuse.pipeline", "run", "pipeline.run"),
    ("msfuse.wls", "decompose", "wls.decompose"),
    ("msfuse.wls", "wls_filter", "wls.wls_filter"),
    ("msfuse.wls", "cg", "wls.cg"),
    ("msfuse.cost", "match_cost", "cost.match_cost"),
    ("msfuse.cost", "census_transform", "cost.census_transform"),
    ("msfuse.aggregate", "aggregate_cost", "aggregate.aggregate_cost"),
    ("msfuse.fusion", "fuse_scales", "fusion.fuse_scales"),
    ("msfuse.disparity", "wta", "disparity.wta"),
    ("msfuse.disparity", "subpixel_refine", "disparity.subpixel_refine"),
    ("msfuse.disparity", "lr_consistency", "disparity.lr_consistency"),
    ("msfuse.disparity", "fill_invalid", "disparity.fill_invalid"),
    ("msfuse.reconstruct", "triangulate", "reconstruct.triangulate"),
    ("msfuse.reconstruct", "export_ply", "reconstruct.export_ply"),
]

# Which end-to-end metric each layer's metrics should move, and where.
PREDICTIONS = {
    "wls": "op_s_p50/mpix_per_s on pair-rdot-256x192, less on "
           "pair-layered-160x120-d96; peak_rss_mib on pair-rdot-256x192 for a "
           "direct solver",
    "cost": "op_s_p50 and peak_rss_mib on pair-layered-160x120-d96; "
            "less on pair-rdot-256x192 (17 disparities, not 96)",
    "aggregate": "as cost",
    "fusion": "as cost",
    "pipeline": "op_s_p50 on both workloads",
    "disparity": "err1_px on pair-layered-160x120-d96",
    "reconstruct": "op_s_p50 on pair-rdot-256x192",
    "core/cli": "op_s_p50 on both workloads, little",
}

MIB = 2.0**20
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes():
    """Current resident set of this process, or None where /proc is absent."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return None


def _maxrss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Span:
    __slots__ = ("sid", "name", "parent", "tid", "t0", "t1", "rss0", "maxrss0",
                 "peak", "info")

    def __init__(self, sid, name, parent, tid):
        self.sid, self.name, self.parent, self.tid = sid, name, parent, tid
        self.t1 = None
        self.info = {}
        self.maxrss0 = _maxrss_bytes()
        self.rss0 = self.peak = _rss_bytes()
        self.t0 = time.perf_counter()

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "tid": self.tid, "start": self.t0, "end": self.t1,
                "rss_rise_mib": self.rss_rise_mib(), **self.info}

    def rss_rise_mib(self):
        """Peak RSS inside the span above the RSS at its start. Where the
        process high-water mark rose during the span, that mark is the
        peak; otherwise the highest RSS sampled at span boundaries is."""
        if self.rss0 is None:
            return None
        return (self.peak - self.rss0) / MIB


class Tracer:
    """Install with ``install()``, run the operation, then ``uninstall()``."""

    def __init__(self):
        self.spans = []
        self.attached = []  # "module.name" bindings that were replaced
        self.missing = []   # TARGETS whose function no longer exists
        self._patches = []
        self._stacks = {}
        self._open = {}
        self._lock = threading.Lock()
        self._root_tid = None

    # -- span bookkeeping ------------------------------------------------

    def _sample(self):
        rss = _rss_bytes()
        if rss is not None:
            for span in list(self._open.values()):
                span.peak = max(span.peak, rss)

    def _begin(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].sid
        else:
            root = self._stacks.get(self._root_tid)
            parent = root[-1].sid if root else None
        self._sample()
        with self._lock:
            span = Span(len(self.spans), name, parent, tid)
            self.spans.append(span)
        stack.append(span)
        self._open[span.sid] = span
        return span

    def _end(self, span):
        span.t1 = time.perf_counter()
        maxrss = _maxrss_bytes()
        self._stacks[span.tid].pop()
        del self._open[span.sid]
        if span.rss0 is not None:
            rss = _rss_bytes()
            span.peak = maxrss if maxrss > span.maxrss0 else max(span.peak, rss)
        self._sample()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        call = _CALLS.get(name)
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = call(span, fn, args, kwargs) if call else fn(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
                return result
            finally:
                self._end(span)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self._root_tid = threading.get_ident()
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "msfuse" or key.startswith("msfuse."))]
        for module_name, attr, span_name in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)
                        self.attached.append(f"{module.__name__}.{key}")

    def uninstall(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()


# -- per-function notes, taken outside the timed call where possible -------

def _traced_cg(span, cg, args, kwargs):
    """Count iterations through cg's callback and record the true relative
    residual of the returned solution."""
    user_callback = kwargs.pop("callback", None)
    iterations = 0

    def callback(xk):
        nonlocal iterations
        iterations += 1
        if user_callback is not None:
            user_callback(xk)

    result = cg(*args, callback=callback, **kwargs)
    system, b = args[0], args[1]
    b_norm = np.linalg.norm(b)
    span.info["iterations"] = iterations
    span.info["residual"] = (float(np.linalg.norm(system @ result[0] - b) / b_norm)
                             if b_norm else 0.0)
    return result


def _note_match(span, args, kwargs, volume):
    height, width, n_disp = volume.data.shape
    span.info["volume_bytes"] = height * width * n_disp * 8


def _note_fuse(span, args, kwargs, fused):
    height, width, n_disp = fused[0].data.shape
    span.info["cells"] = 4 * height * width * n_disp


def _note_lr(span, args, kwargs, d):
    from msfuse.core import INVALID_DISPARITY
    span.info["valid_pct"] = float(np.mean(d != INVALID_DISPARITY) * 100)


def _note_fill(span, args, kwargs, out):
    from msfuse.core import INVALID_DISPARITY
    before = np.asarray(args[0]) == INVALID_DISPARITY
    span.info["filled_pct"] = float(np.mean(before & (out != INVALID_DISPARITY)) * 100)


def _note_triangulate(span, args, kwargs, cloud):
    span.info["points"] = len(cloud)


def _note_file(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    span.info["bytes"] = os.path.getsize(path)


_CALLS = {"wls.cg": _traced_cg}

_NOTES = {
    "cost.match_cost": _note_match,
    "fusion.fuse_scales": _note_fuse,
    "disparity.lr_consistency": _note_lr,
    "disparity.fill_invalid": _note_fill,
    "reconstruct.triangulate": _note_triangulate,
    "reconstruct.export_ply": _note_file,
    "core.save_image": _note_file,
}


# -- per-layer metrics ------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.sid, [])]
        out[s.sid] = (s.t1 - s.t0) - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def layer_metrics(tracer):
    """Per-layer metrics of one traced operation, keyed by metric name.

    Metrics of a function whose wrapper did not attach are left out.
    """
    spans = [s for s in tracer.spans if s.t1 is not None]
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    present = {name for _, _, name in TARGETS} - set(tracer.missing)
    selfs = self_times(spans)
    m = {}

    def calls(name):
        return len(by_name.get(name, []))

    def secs(name):
        return sum(s.t1 - s.t0 for s in by_name.get(name, []))

    def rise(name):
        rises = [s.rss_rise_mib() for s in by_name.get(name, [])]
        rises = [r for r in rises if r is not None]
        return max(rises, default=0.0)

    def put(metric, needs, value, unit):
        if needs in present:
            m[metric] = (value, unit)

    put("wls.decompose_calls", "wls.decompose", calls("wls.decompose"), "count")
    put("wls.filter_calls", "wls.wls_filter", calls("wls.wls_filter"), "count")
    put("wls.filter_s", "wls.wls_filter", secs("wls.wls_filter"), "s")
    if "wls.cg" in present and "wls.wls_filter" in present:
        # A solve's level is the rank of its wls_filter call within its
        # decompose call (level 1 filters the input image).
        level_of = {}
        filters = {}
        for f in by_name.get("wls.wls_filter", []):
            filters.setdefault(f.parent, []).append(f)
        for group in filters.values():
            for rank, f in enumerate(sorted(group, key=lambda s: s.t0), 1):
                level_of[f.sid] = rank
        for level in (1, 2, 3):
            its = [s.info["iterations"] for s in by_name.get("wls.cg", [])
                   if level_of.get(s.parent) == level]
            m[f"wls.iters_l{level}"] = (float(np.mean(its)) if its else 0.0, "count")
        m["wls.residual_max"] = (max((s.info["residual"] for s in by_name.get("wls.cg", [])),
                                     default=0.0), "1")
    put("wls.rss_rise_mib", "wls.decompose", rise("wls.decompose"), "MiB")

    put("cost.match_calls", "cost.match_cost", calls("cost.match_cost"), "count")
    put("cost.match_s", "cost.match_cost", secs("cost.match_cost"), "s")
    put("cost.census_s", "cost.census_transform", secs("cost.census_transform"), "s")
    put("cost.volume_mib", "cost.match_cost",
        max((s.info["volume_bytes"] for s in by_name.get("cost.match_cost", [])),
            default=0) / MIB, "MiB")

    put("aggregate.calls", "aggregate.aggregate_cost", calls("aggregate.aggregate_cost"), "count")
    put("aggregate.s", "aggregate.aggregate_cost", secs("aggregate.aggregate_cost"), "s")
    put("aggregate.rss_rise_mib", "aggregate.aggregate_cost",
        rise("aggregate.aggregate_cost"), "MiB")

    put("fusion.calls", "fusion.fuse_scales", calls("fusion.fuse_scales"), "count")
    put("fusion.s", "fusion.fuse_scales", secs("fusion.fuse_scales"), "s")
    put("fusion.cells", "fusion.fuse_scales",
        max((s.info["cells"] for s in by_name.get("fusion.fuse_scales", [])), default=0),
        "count")

    put("pipeline.run_s", "pipeline.run", secs("pipeline.run"), "s")
    put("pipeline.self_s", "pipeline.run",
        sum(selfs[s.sid] for s in by_name.get("pipeline.run", [])), "s")
    if {"cost.match_cost", "aggregate.aggregate_cost"} <= present:
        # Summed branch time over the wall time the branches cover:
        # 1.0 means they ran one after another.
        branch = [(s.t0, s.t1) for name in ("cost.match_cost", "aggregate.aggregate_cost")
                  for s in by_name.get(name, [])]
        wall = _union_length(branch)
        m["pipeline.branch_overlap"] = (
            sum(t1 - t0 for t0, t1 in branch) / wall if wall else 0.0, "ratio")

    put("disparity.wta_s", "disparity.wta", secs("disparity.wta"), "s")
    put("disparity.subpixel_s", "disparity.subpixel_refine",
        secs("disparity.subpixel_refine"), "s")
    put("disparity.lr_s", "disparity.lr_consistency", secs("disparity.lr_consistency"), "s")
    put("disparity.fill_s", "disparity.fill_invalid", secs("disparity.fill_invalid"), "s")
    put("disparity.lr_valid_pct", "disparity.lr_consistency",
        float(np.mean([s.info["valid_pct"] for s in by_name.get("disparity.lr_consistency", [])]
                      or [0.0])), "%")
    put("disparity.filled_pct", "disparity.fill_invalid",
        float(np.mean([s.info["filled_pct"] for s in by_name.get("disparity.fill_invalid", [])]
                      or [0.0])), "%")

    put("reconstruct.triangulate_s", "reconstruct.triangulate",
        secs("reconstruct.triangulate"), "s")
    put("reconstruct.export_s", "reconstruct.export_ply", secs("reconstruct.export_ply"), "s")
    put("reconstruct.points", "reconstruct.triangulate",
        sum(s.info["points"] for s in by_name.get("reconstruct.triangulate", [])), "count")
    put("reconstruct.ply_mib", "reconstruct.export_ply",
        sum(s.info["bytes"] for s in by_name.get("reconstruct.export_ply", [])) / MIB, "MiB")

    put("core.load_s", "core.load_image", secs("core.load_image"), "s")
    put("core.save_s", "core.save_image", secs("core.save_image"), "s")
    put("core.bytes_out", "core.save_image",
        sum(s.info["bytes"] for s in by_name.get("core.save_image", [])), "B")
    put("cli.self_s", "cli.main", sum(selfs[s.sid] for s in by_name.get("cli.main", [])), "s")
    return m
