"""End-to-end orchestration of the multi-scale matching pipeline.

Each view is decomposed once into a 4-level WLS base-layer stack. A view
pass picks, per pixel, the disparity of least finest fused cost
sum_s w_s * agg_s (w = fusion.finest_weights), agg_s being the
guided-filter aggregation of scale s's fused matching cost. The
right-view disparity for the consistency check runs the same pass on the
pyramids turned by 180 degrees, with the camera roles swapped, and is
turned back: the WLS filter commutes with the rotation, so these equal
the pyramids of the turned images up to solver roundoff. The turn, like
a mirror, reads every row right to left, and unlike a mirror it keeps
each flattened image a view: the same array read backwards.

A view pass streams over disparity blocks of at most
aggregate.block_length slices (aggregate.BLOCK_BYTES rounded up to whole
slices), of lengths that differ by at most one, and never holds a
(D, H, W) volume. One builder, _scale_inputs, makes both passes' inputs:
the left pass's cost terms come from cost.cost_terms, the right pass's
are their rotated views (cost.mirrored_terms), which give every cost of
the turned images bit for bit. So each image's census codes are
computed once per run and each scale's guide statistics once per view; the x-gradients are formed per block in the cost kernel's scratch.
One window-count array serves every scale of both views. For each
block, scale by scale in order, the raw cost block is computed into the
first of the guided filter's three buffers, with the other two, idle
until the filter runs, as the cost kernel's scratch. It is filtered
there, clamped, weighted and added into the block's total: the same
float operations, in the same order, as on whole volumes. A block task
thus holds four block-sized buffers and no other scratch: the total and
the filter's three buffers. Every block-sized ufunc call of the cost
kernel and the filter's box sums is one contiguous 1-D pass over
flattened arrays. None casts an operand, as a casting call allocates
numpy's iteration buffers, 8192 elements per operand, every time: the
cost kernel copies its uint8 Hamming counts into a float64 work array
before weighting them. The totals fold into a running winner
(disparity.RunningWinner) in increasing disparity, so the result equals
winner-take-all and subpixel refinement of the whole fused volume, bit
for bit.

One thread pool (MSFUSE_THREADS, 0 = auto) runs the stages, and every
task receives resolved arrays: the two decompositions side by side, the
left view's four scale inputs, then the left pass's blocks. The right
pass's scale inputs, made from the left inputs' cost terms, queue behind
those blocks, and the right pass's blocks are queued once they are done;
the left blocks keep the workers busy until then, so there is no barrier
between the passes. The WLS solve takes no inner product from BLAS and
makes its LAPACK line sweeps without the GIL, so the two decompositions
run in parallel, and each one's result does not depend on the threads.
The one wait inside a task is a block task's wait for the previous
block's fold before folding its own, so the output is identical for
every thread count, and at most one block total per worker is resident.
A pass's last block turns its running winner into the pass's disparity
map and drops the winner, so no winner outlives its pass; that block's
future is the pass's result. The pyramids and scale inputs are dropped
before the left-right check and the fill. Besides the disparity map, run
returns the images that ``reconstruct --dump-dir`` writes, by file name:
the validity mask, and with ``collect`` the pyramids and the left pass's
per-scale cost minima.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import aggregate, cost, disparity, fusion, wls
from .core import INVALID_DISPARITY, CostVolume


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


def _scale_inputs(terms, config, counts):
    """What every disparity block of one scale reads: the cost ``terms`` of
    cost.cost_terms or cost.mirrored_terms (the first is the validated
    guide) and the guide statistics, which hold the shared window
    ``counts``."""
    return terms, aggregate.guide_stats(terms[0], config.guided_filter_params(),
                                        counts)


def _fused_block(inputs, config, weights, c0, shape, collect):
    """sum_s w_s * agg_s of the (n, H, W) block of disparities from c0, and
    the per-scale minima of agg_s over the block if ``collect``.

    Per scale, in scale order: the raw cost block, written into the first
    of the filter's buffers, filtered there, weighted and added into the
    total, so every cell gets the additions of the whole-volume form in its
    order. The cost kernel's work arrays are the first slices of the
    filter's other two buffers, which it overwrites. The total and the
    filter's scratch (aggregate.block_scratch) are the task's four block
    buffers."""
    cost_params = config.cost_params()
    gf_params = config.guided_filter_params()
    d_max = c0 + shape[0] - 1
    total = np.empty(shape)
    scratch = aggregate.block_scratch(shape)
    block = scratch[0]
    work = (scratch[1][0], scratch[2][0])
    minima = []
    for s, (terms, stats) in enumerate(inputs):
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
    ``shape`` that reads the per-scale ``inputs``, as _scale_inputs returns
    them. Returns the future of the last block's task, whose result is the
    pass's disparity map and its per-scale aggregated-cost minima (empty
    unless ``collect``).

    The disparities are split into aggregate.blocks of at most
    aggregate.block_length slices whose lengths differ by at most one, so no
    short last block leaves its worker waiting. Each block task folds its
    total into the running winner once the previous block has, so blocks
    fold in disparity order whatever the thread count. The last block's
    task reads the disparity map off the running winner and drops it.
    """
    cost_params = config.cost_params()
    n_disp = cost_params.d_max - cost_params.d_min + 1
    subpixel = config.disparity_params().subpixel
    weights = fusion.finest_weights(config.fusion_params())
    winner = disparity.RunningWinner(shape)
    minima = [np.full(shape, np.inf) for _ in inputs] if collect else []

    def block_task(c0, block_shape, previous):
        nonlocal winner
        total, block_minima = _fused_block(inputs, config, weights, c0,
                                           block_shape, collect)
        if previous is not None:
            previous.result()  # started before this task: running or done
        winner.fold(total)
        for running, m in zip(minima, block_minima):
            np.minimum(running, m, out=running)
        if winner.n == n_disp:
            d, winner = winner.disparity(cost_params.d_min, subpixel), None
            return d, minima

    last = None
    for start, stop in aggregate.blocks(n_disp, aggregate.block_length(shape)):
        last = pool.submit(block_task, cost_params.d_min + start,
                           (stop - start,) + shape, last)
    return last


def run(left, right, config, collect=False):
    """Full pipeline: both decompositions, left disparity, right disparity
    from the rotated pair, left-right consistency and invalid fill. MSFUSE_THREADS
    sizes the pool that runs the decompositions, the scale inputs and the
    disparity blocks of both view passes (see thread_count).

    Returns (disparity_map, outputs). outputs maps each name that
    ``reconstruct --dump-dir`` gives a file to its image: valid (the
    left-right validity mask, bool) always; with ``collect`` also
    base_left_s, base_right_s (the pyramids) and agg_min_s (the left
    view's aggregated cost, minimum over disparity), s = 0..3.
    """
    disp_params = config.disparity_params()

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        pyr_l, pyr_r = pool.map(wls.decompose, (left, right),
                                [config.wls_params()] * 2)
        shape = pyr_l[0].shape
        counts = aggregate.window_counts(shape, config.guided_filter_params().radius)
        inputs = list(pool.map(
            lambda ref, other: _scale_inputs(
                cost.cost_terms(ref, other, config.cost_params()), config, counts),
            pyr_l, pyr_r))
        left_pass = _view_pass(pool, inputs, shape, config, collect)
        # queued behind the left blocks, which keep the workers busy until
        # the right blocks are queued
        inputs = list(pool.map(
            lambda terms: _scale_inputs(cost.mirrored_terms(terms), config, counts),
            [terms for terms, _ in inputs]))
        right_pass = _view_pass(pool, inputs, shape, config, False)
        (d_left, minima), (d_right, _) = left_pass.result(), right_pass.result()
    outputs = {}
    if collect:
        stacks = (("base_left", pyr_l), ("base_right", pyr_r), ("agg_min", minima))
        outputs = {f"{name}_{s}": image for name, stack in stacks
                   for s, image in enumerate(stack)}
    # the consistency check and the fill read none of the passes' arrays
    del pyr_l, pyr_r, counts, inputs, left_pass, right_pass

    d = disparity.lr_consistency(d_left, d_right[::-1, ::-1],
                                 disp_params.lr_threshold)
    outputs["valid"] = d != INVALID_DISPARITY
    if disp_params.fill_invalid:
        d = disparity.fill_invalid(d)
    return d, outputs
