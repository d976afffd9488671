import gc
import os
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from msfuse import aggregate, cost, disparity, fusion, pipeline, wls
from msfuse.aggregate import aggregate_cost
from msfuse.cli import main
from msfuse.config import PipelineConfig
from msfuse.core import INVALID_DISPARITY, CostVolume, load_image, save_image
from msfuse.cost import match_cost
from msfuse.synth import random_dot_pair

STREAM_CONFIG = {"cost.d_max": 16, "gf.radius": 2}  # D = 17


def reference_view(pyr_ref, pyr_other, config):
    """One view pass on whole volumes: the per-scale aggregated volumes,
    summed with the finest fusion weights in scale order, then WTA and
    subpixel refinement. Returns (disparity, per-scale minima)."""
    weights = fusion.finest_weights(config.fusion_params())
    total, minima = None, []
    for s in range(4):
        raw = match_cost(pyr_ref[s], pyr_other[s], config.cost_params())
        agg = aggregate_cost(pyr_ref[s], raw, config.guided_filter_params()).data
        minima.append(agg.min(axis=0))
        agg *= weights[s]
        total = agg if total is None else np.add(total, agg, out=total)
    volume = CostVolume(d_min=raw.d_min, d_max=raw.d_max, data=total)
    return disparity.subpixel_refine(volume, disparity.wta(volume)), minima


def reference_run(left, right, config):
    """pipeline.run assembled from the whole-volume stages: (d, valid,
    left-view per-scale minima)."""
    pyr_l = wls.decompose(left, config.wls_params())
    pyr_r = wls.decompose(right, config.wls_params())
    d_left, minima = reference_view(pyr_l, pyr_r, config)
    flip = lambda pyr: [np.fliplr(x) for x in pyr]
    d_right = np.fliplr(reference_view(flip(pyr_r), flip(pyr_l), config)[0])
    params = config.disparity_params()
    d = disparity.lr_consistency(d_left, d_right, params.lr_threshold)
    valid = d != INVALID_DISPARITY
    return disparity.fill_invalid(d), valid, minima


@pytest.fixture(scope="module")
def stream_case():
    left, right, _ = random_dot_pair(48, 32, 5, 4)
    config = PipelineConfig(STREAM_CONFIG)
    return left, right, config, reference_run(left, right, config)


@pytest.mark.parametrize("threads", ["1", "2", "8"])
@pytest.mark.parametrize("block_slices", [1, 3])
def test_run_equals_whole_volume_reference(stream_case, monkeypatch, threads,
                                           block_slices):
    # 17 blocks of one slice, or 3-slice blocks with a ragged last block;
    # frequent thread switches so that blocks finish out of order
    left, right, config, (d_ref, valid_ref, minima_ref) = stream_case
    monkeypatch.setattr(aggregate, "BLOCK_BYTES", block_slices * left.nbytes)
    monkeypatch.setenv("MSFUSE_THREADS", threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        d, valid, dump = pipeline.run(left, right, config, collect=True)
    finally:
        sys.setswitchinterval(interval)
    assert d.tobytes() == d_ref.tobytes()
    np.testing.assert_array_equal(valid, valid_ref)
    assert set(dump) == {f"{name}_{s}" for name in ("base_left", "base_right", "agg_min")
                         for s in range(4)}
    for s, expected in enumerate(minima_ref):
        assert dump[f"agg_min_{s}"].tobytes() == expected.tobytes()


def test_run_frees_the_passes_before_the_lr_check(monkeypatch):
    # pyramid levels 1-3 and both running winners are freed by reference
    # counting before the consistency check and the fill: with the cyclic
    # collector off, a reference cycle or a lingering name keeps them alive.
    # A winner's arrays die once its pass's last block has folded: with one
    # worker, before the right pass's first fold.
    decompose, lr_consistency = wls.decompose, disparity.lr_consistency

    def recording(image, params):
        layers = decompose(image, params)
        refs.extend(weakref.ref(layer) for layer in layers[1:])
        return layers

    def alive_arrays():
        return [sum(ref() is not None for ref in arrays) for arrays in winner_arrays]

    class RecordedWinner(disparity.RunningWinner):
        def __init__(self, shape):
            super().__init__(shape)
            refs.append(weakref.ref(self))
            winner_arrays.append([weakref.ref(a) for a in (
                self.winners, self.c_zero, self.c_minus, self.c_plus)])

        def fold(self, block):
            folds.append(alive_arrays())
            super().fold(block)

    def checking(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return lr_consistency(*args)

    monkeypatch.setattr(wls, "decompose", recording)
    monkeypatch.setattr(disparity, "RunningWinner", RecordedWinner)
    monkeypatch.setattr(disparity, "lr_consistency", checking)
    left, right, _ = random_dot_pair(48, 32, 5, 0)
    # 17 disparities in blocks of 3, 3, 3, 3, 3 and 2 slices per pass
    monkeypatch.setattr(aggregate, "BLOCK_BYTES", 3 * left.nbytes)
    for threads in ("1", "2"):
        monkeypatch.setenv("MSFUSE_THREADS", threads)
        refs, winner_arrays, folds, alive = [], [], [], []
        gc.disable()
        try:
            pipeline.run(left, right, PipelineConfig(STREAM_CONFIG))
        finally:
            gc.enable()
        assert len(refs) == 8 and alive == [0]
        assert alive_arrays() == [0, 0]
        if threads == "1":
            assert folds == [[4]] * 6 + [[0, 4]] * 6


def test_dumped_minima_equal_reference(tmp_path):
    left, right, _ = random_dot_pair(48, 32, 5, 4)
    for name, img in (("left", left), ("right", right)):
        save_image(img, tmp_path / f"{name}.pgm", format="pgm8")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in STREAM_CONFIG.items()))
    dump = tmp_path / "dump"
    assert main(["reconstruct", str(tmp_path / "left.pgm"), str(tmp_path / "right.pgm"),
                 "--config", str(cfg), "--out-disparity", str(tmp_path / "d.pfm"),
                 "--out-cloud", str(tmp_path / "c.ply"), "--dump-dir", str(dump)]) == 0
    _, _, minima = reference_run(load_image(tmp_path / "left.pgm"),
                                 load_image(tmp_path / "right.pgm"),
                                 PipelineConfig(STREAM_CONFIG))
    for s in range(4):
        save_image(minima[s], tmp_path / "expected.pfm", format="pfm")
        assert ((dump / f"agg_min_{s}.pfm").read_bytes()
                == (tmp_path / "expected.pfm").read_bytes())


def left_view_pass(pool, left, right, config):
    """The left view's disparity from one view pass over the pyramids
    [left] * 4 and [right] * 4, its blocks run on ``pool``."""
    counts = aggregate.window_counts(left.shape, config.guided_filter_params().radius)
    inputs = [pipeline._scale_inputs(left, right, config, counts) for _ in range(4)]
    return pipeline._view_pass(pool, inputs, left.shape, config, False)()[0]


def view_pass_peak(n_disp):
    """tracemalloc peak of one view pass at 160x120 on a one-worker pool."""
    left, right, _ = random_dot_pair(160, 120, 5, 0)
    config = PipelineConfig({"cost.d_max": n_disp - 1})
    with ThreadPoolExecutor(max_workers=1) as pool:
        tracemalloc.start()
        try:
            left_view_pass(pool, left, right, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_view_pass_memory_independent_of_disparity_range():
    assert abs(view_pass_peak(192) - view_pass_peak(96)) < aggregate.BLOCK_BYTES


@pytest.mark.parametrize("size, settings, bound_mib", [
    ((128, 96), {}, 6.05),
    ((160, 120), {"cost.d_max": 95}, 8.3),
], ids=["128x96-d17", "160x120-d96"])
def test_run_memory_bounded(monkeypatch, size, settings, bound_mib):
    # tracemalloc peak of one run on one worker: 5.88 and 8.03 MiB. With
    # each run's padded x-gradients held through both passes, and both
    # running winners until the second pass ended, it read 7.02 and 9.82.
    monkeypatch.setenv("MSFUSE_THREADS", "1")
    pipeline.run(*random_dot_pair(32, 24, 5, 1)[:2], PipelineConfig({}))  # first calls
    left, right, _ = random_dot_pair(*size, 5, 0)
    tracemalloc.start()
    try:
        pipeline.run(left, right, PipelineConfig(settings))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


def test_branches_summed_as_they_finish():
    # one worker: a view pass holds the scale inputs and one block task's
    # buffers, never a whole (D, H, W) volume, let alone one per scale
    left, right, _ = random_dot_pair(160, 120, 5, 0)
    config = PipelineConfig({"cost.d_max": 95})
    volume_bytes = 96 * 120 * 160 * 8
    with ThreadPoolExecutor(max_workers=1) as pool:
        tracemalloc.start()
        try:
            left_view_pass(pool, left, right, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * volume_bytes


def fused_block_calls(monkeypatch, config, size):
    """(c0, n, tracemalloc rise) of each block task of one view pass of a
    random-dot pair of ``size`` on a one-worker pool; the rise is the task's
    traced peak above what was resident when it started."""
    left, right, _ = random_dot_pair(*size, 5, 0)
    calls = []
    fused_block = pipeline._fused_block

    def measured(inputs, config, weights, c0, shape, collect):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fused_block(inputs, config, weights, c0, shape, collect)
        calls.append((c0, shape[0], tracemalloc.get_traced_memory()[1] - base))
        return result

    monkeypatch.setattr(pipeline, "_fused_block", measured)
    with ThreadPoolExecutor(max_workers=1) as pool:
        tracemalloc.start()
        try:
            left_view_pass(pool, left, right, config)
        finally:
            tracemalloc.stop()
    return calls


def test_block_task_holds_four_blocks(monkeypatch):
    # the block total, and the filter's padded buffer (which holds the raw
    # block) and two temporaries, which the cost kernel borrows as its
    # scratch: 4.135 blocks of 7 slices here, 4.173 measured with numpy's
    # ufunc buffers cut to pipeline.UFUNC_BUFSIZE. With numpy's default
    # (8192 elements per operand of a strided call) it reads 4.352.
    config = PipelineConfig({"cost.d_max": 95})
    slice_bytes = 120 * 160 * 8
    calls = fused_block_calls(monkeypatch, config, (160, 120))
    assert max(n for _, n, _ in calls) == 7  # 12 blocks of 7, 2 of 6
    for _, n, rise in calls:
        assert rise < 4.2 * n * slice_bytes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_keeps_the_callers_numpy_settings(monkeypatch, threads):
    monkeypatch.setenv("MSFUSE_THREADS", threads)
    left, right, _ = random_dot_pair(48, 32, 5, 0)
    settings = np.getbufsize(), np.geterr()
    pipeline.run(left, right, PipelineConfig(STREAM_CONFIG))
    assert (np.getbufsize(), np.geterr()) == settings


def test_block_tasks_scope_their_buffer_size():
    # a later task on the same worker, as a WLS solve may be, runs with
    # numpy's default buffer size
    left, right, _ = random_dot_pair(48, 32, 5, 0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        left_view_pass(pool, left, right, PipelineConfig(STREAM_CONFIG))
        assert pool.submit(np.getbufsize).result() == np.getbufsize()


def test_blocks_tile_the_disparity_range_evenly(monkeypatch):
    # 38 disparities in blocks of at most 5 slices: 5 5 5 5 5 5 4 4, not
    # seven of 5 and a last one of 3
    monkeypatch.setattr(aggregate, "BLOCK_BYTES", 5 * 24 * 32 * 8)
    config = PipelineConfig({"cost.d_min": 3, "cost.d_max": 40, "gf.radius": 2})
    plan = [(c0, n) for c0, n, _ in fused_block_calls(monkeypatch, config, (32, 24))]
    assert plan == [(3, 5), (8, 5), (13, 5), (18, 5), (23, 5), (28, 5),
                    (33, 4), (37, 4)]


def cost_calls(monkeypatch, name):
    """The images passed to cost.<name> in one run."""
    calls = []
    function = getattr(cost, name)

    def counting(img, *args):
        calls.append(img)
        return function(img, *args)

    monkeypatch.setattr(cost, name, counting)
    left, right, _ = random_dot_pair(48, 32, 5, 0)
    pipeline.run(left, right, PipelineConfig({}))
    return calls


def test_run_computes_census_once_per_image(monkeypatch):
    # four scales of two images; the right view's pass mirrors the left
    # pass's codes
    assert len(cost_calls(monkeypatch, "census_transform")) == 8



def decompose_calls(monkeypatch, threads):
    """(image, thread, start, end) of each wls.decompose call of one run."""
    calls = []
    decompose = wls.decompose

    def recording(image, params):
        start = time.perf_counter()
        time.sleep(0.2)  # so that calls in parallel threads surely overlap
        layers = decompose(image, params)
        calls.append((image, threading.get_ident(), start, time.perf_counter()))
        return layers

    monkeypatch.setattr(wls, "decompose", recording)
    monkeypatch.setenv("MSFUSE_THREADS", threads)
    left, right, _ = random_dot_pair(48, 32, 5, 0)
    pipeline.run(left, right, PipelineConfig({}))
    return left, right, calls


def test_views_decomposed_concurrently(monkeypatch):
    _, _, calls = decompose_calls(monkeypatch, "2")
    assert len(calls) == 2
    (_, thread_a, start_a, end_a), (_, thread_b, start_b, end_b) = calls
    assert thread_a != thread_b
    assert start_a < end_b and start_b < end_a


def test_auto_threads_count_usable_cpus(monkeypatch):
    # taskset or a cpuset can leave fewer CPUs than os.cpu_count() reports
    monkeypatch.delenv("MSFUSE_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert pipeline.thread_count() == 1


def test_one_thread_decomposes_left_then_right(monkeypatch):
    left, right, calls = decompose_calls(monkeypatch, "1")
    assert len(calls) == 2
    assert calls[0][0] is left and calls[1][0] is right
    assert calls[0][1] == calls[1][1]
    assert calls[0][3] <= calls[1][2]
