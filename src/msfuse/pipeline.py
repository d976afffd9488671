"""End-to-end orchestration of the multi-scale matching pipeline.

Each view is decomposed once into a 4-level WLS base-layer stack. A view
pass picks, per pixel, the disparity of least finest fused cost
sum_s w_s * agg_s (w = fusion.finest_weights), agg_s being the
guided-filter aggregation of scale s's fused matching cost. The
right-view disparity for the consistency check runs the same pass on the
horizontally mirrored pyramids with the camera roles swapped: the WLS
filter commutes with mirroring, so these equal the pyramids of the
mirrored images up to solver roundoff.

A view pass streams over disparity blocks of at most
aggregate.block_length slices (aggregate.BLOCK_BYTES rounded up to whole
slices), of lengths that differ by at most one, and never holds a
(D, H, W) volume. Each scale's guide statistics are computed once per
view, and each image's x-gradients and census codes once per run:
the mirrored pass reads the left pass's through np.fliplr
(cost.mirrored_terms), which gives every cost of the mirrored images bit
for bit. One window-count array serves every scale of both views. For
each block, scale by scale in order, the raw cost block is computed into
the interior of the guided filter's padded buffer, with the filter's two
temporaries, idle until the filter runs, as the cost kernel's scratch.
It is filtered there, clamped, weighted and added into the block's
total: the same float operations, in the same order, as on whole
volumes. A block task thus holds four block-sized buffers and no other
scratch: the total, the padded buffer and the filter's two temporaries.
It runs with numpy's ufunc buffers cut to UFUNC_BUFSIZE elements, in its
own np.errstate scope: every strided call would otherwise allocate
buffers of 8192 elements per operand. The totals fold into a running
winner (disparity.RunningWinner) in increasing disparity, so the result
equals winner-take-all and subpixel refinement of the whole fused
volume, bit for bit.

One thread pool (MSFUSE_THREADS, 0 = auto) runs both decompositions,
then the blocks of both view passes, with no barrier between the passes.
The WLS solve takes no inner product from BLAS and makes its LAPACK line
sweeps without the GIL, so the two decompositions run in parallel, and
each one's result does not depend on the threads. A block task waits for
the previous block's fold before folding its own, so the output is
identical for every thread count, and at most one block total per
worker is resident.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import aggregate, cost, disparity, fusion, wls
from .core import INVALID_DISPARITY, CostVolume

# Elements of numpy's iteration buffer per operand in a block task; numpy's
# default, 8192, makes every strided ufunc call on a block allocate 64 KiB
# per float64 operand.
UFUNC_BUFSIZE = 1024


def thread_count():
    """Pool size from MSFUSE_THREADS (0 or unset = auto: the CPUs this
    process may run on, as taskset or a cpuset limits them, at most 4)."""
    raw = os.environ.get("MSFUSE_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"MSFUSE_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("MSFUSE_THREADS must be >= 0")
    if n == 0:
        if hasattr(os, "sched_getaffinity"):
            return min(4, len(os.sched_getaffinity(0)))
        return min(4, os.cpu_count() or 1)
    return n


@dataclass
class ScaleOutputs:
    """Per-scale intermediates kept for dumping/inspection."""

    pyramid_left: list
    pyramid_right: list
    agg_min: list  # 4 left-view aggregated costs, minimum over disparity


def _scale_inputs(ref, other, config, counts):
    """What every disparity block of one scale reads: the cost terms (the
    first is the validated guide) and the guide statistics, which hold the
    shared window ``counts``."""
    terms = cost.cost_terms(ref, other, config.cost_params())
    return terms, aggregate.guide_stats(terms[0], config.guided_filter_params(),
                                        counts)


def _mirrored_scale_inputs(unmirrored, config, counts):
    """_scale_inputs of the mirrored pair (fliplr R, fliplr L), whose cost
    terms are flipped views of the unmirrored pass's: its x-gradients and
    census codes are shared, not recomputed (see cost.mirrored_terms)."""
    # queued before: running or done
    terms = cost.mirrored_terms(unmirrored.result()[0])
    return terms, aggregate.guide_stats(terms[0], config.guided_filter_params(),
                                        counts)


def _fused_block(inputs, config, weights, c0, shape, collect):
    """sum_s w_s * agg_s of the (n, H, W) block of disparities from c0, and
    the per-scale minima of agg_s over the block if ``collect``.

    Per scale, in scale order: the raw cost block, written into the filter's
    padded buffer, filtered there, weighted and added into the total, so
    every cell gets the additions of the whole-volume form in its order.
    The cost kernel's work arrays are the first slices of the filter's two
    temporaries, which it overwrites. The total and the filter's scratch
    (aggregate.block_scratch) are the task's four block buffers."""
    cost_params = config.cost_params()
    gf_params = config.guided_filter_params()
    d_max = c0 + shape[0] - 1
    total = np.empty(shape)
    scratch = aggregate.block_scratch(shape, gf_params.radius)
    block = aggregate.scratch_block(scratch, gf_params.radius)
    work = (scratch[1][0], scratch[2][0])
    minima = []
    for s, scale in enumerate(inputs):
        terms, stats = scale.result()
        cost.cost_block(terms, cost_params, c0, block, work)
        CostVolume(d_min=c0, d_max=d_max, data=block)  # checks the costs
        aggregate.filter_block(terms[0], stats, gf_params, scratch)
        if collect:
            minima.append(block.min(axis=0))
        if s == 0:
            np.multiply(block, weights[0], out=total)
        else:
            block *= weights[s]
            total += block
    CostVolume(d_min=c0, d_max=d_max, data=total)
    return total, minima


def _view_pass(pool, inputs, shape, config, collect):
    """Queue one task per disparity block of a view pass over (H, W) images
    ``shape`` that reads the per-scale ``inputs`` (futures of
    _scale_inputs). Returns a function that waits for the pass and returns
    (disparity, per-scale aggregated-cost minima | None).

    The disparities are split into aggregate.blocks of at most
    aggregate.block_length slices whose lengths differ by at most one, so no
    short last block leaves its worker waiting. Each block task folds its
    total into the running winner once the previous block has, so blocks
    fold in disparity order whatever the thread count. The inputs live as
    long as the tasks that read them.
    """
    cost_params = config.cost_params()
    weights = fusion.finest_weights(config.fusion_params())
    winner = disparity.RunningWinner(shape)
    minima = [np.full(shape, np.inf) for _ in inputs] if collect else []

    def block_task(c0, block_shape, previous):
        with np.errstate():  # scopes the buffer size to this task
            np.setbufsize(UFUNC_BUFSIZE)
            total, block_minima = _fused_block(inputs, config, weights, c0,
                                               block_shape, collect)
        if previous is not None:
            previous.result()  # started before this task: running or done
        winner.fold(total)
        for running, m in zip(minima, block_minima):
            np.minimum(running, m, out=running)

    n_disp = cost_params.d_max - cost_params.d_min + 1
    last = None
    for start, stop in aggregate.blocks(n_disp, aggregate.block_length(shape)):
        last = pool.submit(block_task, cost_params.d_min + start,
                           (stop - start,) + shape, last)

    def finish():
        last.result()
        d = winner.disparity(cost_params.d_min, config.disparity_params().subpixel)
        return d, minima if collect else None

    return finish


def _view_passes(pool, pyr_l, pyr_r, config, collect):
    """Queue the left view pass, then the right one on the mirrored
    pyramids with the camera roles swapped, which reads the left pass's
    x-gradients and census codes mirrored; one window-count array serves
    both. Returns the two passes' finish functions (see _view_pass)."""
    shape = pyr_l[0].shape
    counts = aggregate.window_counts(shape, config.guided_filter_params().radius)
    left = [pool.submit(_scale_inputs, l, r, config, counts)
            for l, r in zip(pyr_l, pyr_r)]
    finish_left = _view_pass(pool, left, shape, config, collect)
    right = [pool.submit(_mirrored_scale_inputs, f, config, counts) for f in left]
    return finish_left, _view_pass(pool, right, shape, config, False)


def run(left, right, config, collect=False):
    """Full pipeline: both decompositions, left disparity, mirrored right
    disparity, left-right consistency and invalid fill. MSFUSE_THREADS
    sizes the pool that runs the decompositions and the disparity blocks
    of both view passes (see thread_count).

    Returns (disparity_map, validity_mask, ScaleOutputs | None).
    """
    disp_params = config.disparity_params()

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        pyramids = [pool.submit(wls.decompose, image, config.wls_params())
                    for image in (left, right)]
        pyr_l, pyr_r = (f.result() for f in pyramids)
        # both passes are queued before either is awaited: no barrier
        passes = _view_passes(pool, pyr_l, pyr_r, config, collect)
        (d_left, agg_min), (d_right_mirrored, _) = (finish() for finish in passes)
    d_right = np.fliplr(d_right_mirrored)

    d = disparity.lr_consistency(d_left, d_right, disp_params.lr_threshold)
    valid = d != INVALID_DISPARITY
    if disp_params.fill_invalid:
        d = disparity.fill_invalid(d)
    extras = ScaleOutputs(pyr_l, pyr_r, agg_min) if collect else None
    return d, valid, extras
