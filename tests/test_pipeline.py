import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from msfuse import pipeline, wls
from msfuse.config import PipelineConfig
from msfuse.synth import random_dot_pair


def test_branches_summed_as_they_finish():
    # one worker: the accumulator and the running branch's volume are the
    # only volumes resident, never the four weighted ones at once
    left, right, _ = random_dot_pair(160, 120, 5, 0)
    config = PipelineConfig({"cost.d_max": 95})
    volume_bytes = 96 * 120 * 160 * 8
    with ThreadPoolExecutor(max_workers=1) as pool:
        tracemalloc.start()
        try:
            pipeline.view_disparity(pool, [left] * 4, [right] * 4, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * volume_bytes


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


def test_one_thread_decomposes_left_then_right(monkeypatch):
    left, right, calls = decompose_calls(monkeypatch, "1")
    assert len(calls) == 2
    assert calls[0][0] is left and calls[1][0] is right
    assert calls[0][1] == calls[1][1]
    assert calls[0][3] <= calls[1][2]
