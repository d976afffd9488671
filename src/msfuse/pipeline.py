"""End-to-end orchestration of the multi-scale matching pipeline.

Each view is decomposed once into a 4-level WLS base-layer stack. A view
pass computes, per scale, the fused matching cost and its guided-filter
aggregation, and sums the scales into the finest fused volume
sum_s w_s * agg_s (w = fusion.finest_weights), on which winner-take-all
picks the disparity. The right-view disparity for the consistency check
runs the same pass on the horizontally mirrored pyramids with the camera
roles swapped: the WLS filter commutes with mirroring, so these equal the
pyramids of the mirrored images up to solver roundoff.

The four per-scale branches are pure and run on a thread pool
(MSFUSE_THREADS, 0 = auto); they are summed in scale order, so the output
is identical for every thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import aggregate, cost, disparity, fusion, wls
from .core import INVALID_DISPARITY, CostVolume


def thread_count():
    """Branch parallelism from MSFUSE_THREADS (0 or unset = auto)."""
    raw = os.environ.get("MSFUSE_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"MSFUSE_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("MSFUSE_THREADS must be >= 0")
    if n == 0:
        return min(4, os.cpu_count() or 1)
    return n


@dataclass
class ScaleOutputs:
    """Per-scale intermediates kept for dumping/inspection."""

    pyramid_left: list
    pyramid_right: list
    agg_min: list  # 4 left-view aggregated costs, minimum over disparity


def view_disparity(pool, pyr_ref, pyr_other, config, collect=False):
    """Disparity of the reference view before any consistency filtering.

    Returns (disparity, per-scale aggregated-cost minima | None).
    """
    cost_params = config.cost_params()
    gf_params = config.guided_filter_params()
    weights = fusion.finest_weights(config.fusion_params())

    def branch(s):
        raw = cost.match_cost(pyr_ref[s], pyr_other[s], cost_params)
        agg = aggregate.aggregate_cost(pyr_ref[s], raw, gf_params).data
        agg_min = agg.min(axis=2) if collect else None
        agg *= weights[s]  # in place: one volume fewer per running branch
        return agg, agg_min

    weighted, agg_min = zip(*pool.map(branch, range(4)))
    volume = CostVolume(d_min=cost_params.d_min, d_max=cost_params.d_max,
                        data=sum(weighted))
    d = disparity.wta(volume)
    if config.disparity_params().subpixel:
        d = disparity.subpixel_refine(volume, d)
    return d, list(agg_min) if collect else None


def run(left, right, config, collect=False):
    """Full pipeline: left disparity, mirrored right disparity, left-right
    consistency and invalid fill. MSFUSE_THREADS sizes the branch pool
    (see thread_count).

    Returns (disparity_map, validity_mask, ScaleOutputs | None).
    """
    disp_params = config.disparity_params()
    pyr_l = wls.decompose(left, config.wls_params())
    pyr_r = wls.decompose(right, config.wls_params())
    mirrored = lambda pyr: [np.fliplr(x) for x in pyr]

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        d_left, agg_min = view_disparity(pool, pyr_l, pyr_r, config, collect)
        d_right_mirrored, _ = view_disparity(
            pool, mirrored(pyr_r), mirrored(pyr_l), config
        )
    d_right = np.fliplr(d_right_mirrored)

    d = disparity.lr_consistency(d_left, d_right, disp_params.lr_threshold)
    valid = d != INVALID_DISPARITY
    if disp_params.fill_invalid:
        d = disparity.fill_invalid(d)
    extras = ScaleOutputs(pyr_l, pyr_r, agg_min) if collect else None
    return d, valid, extras
