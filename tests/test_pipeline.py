import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from msfuse import pipeline
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
