"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not calibrated."""

import time

import numpy as np
import pytest
import scipy.linalg

from msfuse.aggregate import (
    GuidedFilterParams,
    aggregate_cost,
    guided_filter,
)
from msfuse.cli import main
from msfuse.core import CostVolume, gradient, load_image
from msfuse.cost import CostParams, match_cost
from msfuse.disparity import wta
from msfuse.fusion import FusionParams, fuse_scales, fusion_matrix, solve_fused
from msfuse.metrics import auc, confusion
from msfuse.reconstruct import CameraRig, triangulate
from msfuse.wls import WlsParams, decompose, wls_filter

from test_aggregate import interior_slice, kernel_filter_oracle
from test_metrics import auc_oracle, confusion_oracle
from test_wls import dense_solve, total_variation


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_c1_wls_dense_oracle():
    """20 random 16x16 images, eta in {0.25, 1, 4}: iterative vs dense."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        h = rng.random((16, 16))
        eta = [0.25, 1.0, 4.0][i % 3]
        params = WlsParams(eta=eta)
        delta = np.abs(wls_filter(h, params) - dense_solve(h, params)).max()
        worst = max(worst, delta)
    elapsed = time.perf_counter() - start
    report(
        "C1 WLS oracle equivalence",
        worst <= 1e-6 and elapsed < 1.0,
        f"max |delta| = {worst:.2e}, {elapsed:.2f} s",
    )


def test_c2_wls_limiting_cases():
    rng = np.random.default_rng(102)
    h = rng.random((16, 16))
    identity_ok = np.array_equal(wls_filter(h, WlsParams(eta=0.0)), h)

    const = np.full((16, 16), 0.6)
    const_delta = np.abs(wls_filter(const, WlsParams(eta=2.0)) - 0.6).max()

    tv_ok = True
    for _ in range(10):
        layers = decompose(rng.random((12, 12)), WlsParams(eta=1.0))
        tvs = [total_variation(layer) for layer in layers]
        tv_ok &= all(tvs[s + 1] <= tvs[s] + 1e-9 for s in range(3))

    report(
        "C2 WLS limiting cases",
        identity_ok and const_delta <= 1e-12 and tv_ok,
        f"const |delta| = {const_delta:.2e}, TV monotone = {tv_ok}",
    )


def test_c3_guided_filter_kernel_fidelity():
    rng = np.random.default_rng(103)
    params = GuidedFilterParams(radius=2, xi=1e-4)

    # as stated: 8x8, radius 2 (the strict interior set is empty there, so
    # 12x12 instances are checked as well to make the bound non-vacuous)
    worst = 0.0
    for size in (8, 12):
        ys, xs = interior_slice((size, size), params.radius)
        for _ in range(10):
            guide = rng.random((size, size))
            p = rng.random((size, size))
            fast = guided_filter(guide, p, params)
            oracle = kernel_filter_oracle(guide, p, params)
            if fast[ys, xs].size:
                worst = max(worst, np.abs(fast[ys, xs] - oracle[ys, xs]).max())

    guide = rng.random((8, 8))
    vol = CostVolume(d_min=0, d_max=0, data=np.full((1, 8, 8), 0.4))
    out = aggregate_cost(guide, vol, params)
    const_delta = np.abs(out.data - 0.4).max()

    report(
        "C3 guided-filter kernel fidelity",
        worst <= 1e-10 and const_delta <= 1e-10,
        f"interior |delta| = {worst:.2e}, constant-slice |delta| = {const_delta:.2e}",
    )


def test_c4_fusion():
    rng = np.random.default_rng(104)
    vols = [
        CostVolume(d_min=0, d_max=2, data=rng.random((3, 4, 4))) for _ in range(4)
    ]
    ident = all(
        np.array_equal(a.data, b.data)
        for a, b in zip(fuse_scales(vols, FusionParams(zeta=0.0)), vols)
    )

    const_vols = [
        CostVolume(d_min=0, d_max=0, data=np.full((1, 2, 2), 0.9)) for _ in range(4)
    ]
    const_delta = max(
        np.abs(v.data - 0.9).max()
        for v in fuse_scales(const_vols, FusionParams(zeta=1.3))
    )

    m = fusion_matrix(0.45)
    factor = scipy.linalg.cho_factor(m)
    vectors = rng.random((4, 10_000))
    solve_delta = np.abs(solve_fused(factor, vectors) - np.linalg.solve(m, vectors)).max()

    m1 = fusion_matrix(1.0)
    fixture = np.linalg.solve(m1, np.array([1.0, 2.0, 3.0, 4.0]))
    fixture_delta = np.abs(
        fixture - np.array([11 / 7, 15 / 7, 20 / 7, 24 / 7])
    ).max()
    fused = fuse_scales(
        [
            CostVolume(d_min=0, d_max=0, data=np.full((1, 1, 1), float(s)))
            for s in (1, 2, 3, 4)
        ],
        FusionParams(zeta=1.0),
    )
    fixture_delta = max(
        fixture_delta,
        max(
            abs(v.data[0, 0, 0] - e)
            for v, e in zip(fused, [11 / 7, 15 / 7, 20 / 7, 24 / 7])
        ),
    )

    report(
        "C4 cross-scale fusion",
        ident and const_delta <= 1e-12 and solve_delta <= 1e-12 and fixture_delta <= 1e-12,
        f"const {const_delta:.1e}, solve {solve_delta:.1e}, fixture {fixture_delta:.1e}",
    )


def test_c5_end_to_end_synthetic(tmp_path):
    start = time.perf_counter()
    assert main(
        ["gen-synthetic", "64", "64", "5", "--seed", "7", "--out-prefix", f"{tmp_path}/"]
    ) == 0
    assert main(
        [
            "reconstruct",
            f"{tmp_path}/left.pgm",
            f"{tmp_path}/right.pgm",
            "--out-disparity",
            f"{tmp_path}/d.pfm",
            "--out-cloud",
            f"{tmp_path}/c.ply",
        ]
    ) == 0
    elapsed = time.perf_counter() - start
    d = load_image(f"{tmp_path}/d.pfm")
    inner = d[8:-8, 8:-8]
    frac = float(np.mean(np.abs(inner - 5.0) <= 1.0))
    report(
        "C5 end-to-end synthetic recovery",
        frac >= 0.95 and elapsed < 10.0,
        f"{100 * frac:.1f}% within 1 px, {elapsed:.1f} s",
    )


@pytest.mark.parametrize("k", [2, 7])
def test_c6_shifted_image_exactness(k):
    rng = np.random.default_rng(106)
    left = rng.random((40, 56))
    cost_params = CostParams(d_min=0, d_max=10, census_radius=2)
    gf_params = GuidedFilterParams(radius=2)

    pyramid = decompose(left, WlsParams(eta=1.0))
    vols = [
        aggregate_cost(
            base, match_cost(base, np.roll(base, -k, axis=1), cost_params), gf_params
        )
        for base in pyramid
    ]
    fused = fuse_scales(vols, FusionParams(zeta=0.3))[0]
    d = wta(fused)

    m = cost_params.d_max + cost_params.census_radius + 2 * gf_params.radius + 1
    exact = bool((d[m:-m, m:-m] == k).all())
    report(f"C6 shifted-image exactness (k={k})", exact)


def test_c7_triangulation_roundtrip():
    rig = CameraRig(focal_px=525.0, baseline_m=0.1, cx=31.5, cy=23.5)
    z_plane = 2.0
    d = np.full((48, 64), rig.focal_px * rig.baseline_m / z_plane)
    cloud = triangulate(d, rig)
    xs, ys = cloud.pixels[:, 0], cloud.pixels[:, 1]
    expected = np.column_stack(
        [
            (xs - rig.cx) * z_plane / rig.focal_px,
            (ys - rig.cy) * z_plane / rig.focal_px,
            np.full(xs.size, z_plane),
        ]
    )
    scale = np.abs(expected)
    scale[scale == 0] = 1.0
    rel = np.abs(cloud.points - expected) / scale
    halved = triangulate(d / 2.0, rig)
    doubling_ok = np.array_equal(halved.points[:, 2], 2.0 * cloud.points[:, 2])
    report(
        "C7 triangulation round-trip",
        rel.max() <= 1e-9 and doubling_ok,
        f"max rel err = {rel.max():.2e}, depth doubling exact = {doubling_ok}",
    )


def test_c8_metrics_oracles():
    rng = np.random.default_rng(108)
    count_ok = True
    for _ in range(100):
        pred = (rng.random((16, 16)) < 0.5).astype(float)
        truth = (rng.random((16, 16)) < 0.5).astype(float)
        c = confusion(pred, truth)
        count_ok &= (c.tp, c.tn, c.fp, c.fn) == confusion_oracle(pred, truth)

    auc_ok = True
    invariance_ok = True
    done = 0
    while done < 100:
        scores = rng.integers(0, 20, (16, 16)) / 20.0
        truth = (rng.random((16, 16)) < 0.5).astype(float)
        if truth.min() == truth.max():
            continue
        a = auc(scores, truth)
        auc_ok &= abs(a - auc_oracle(scores, truth)) <= 1e-13
        invariance_ok &= auc(np.exp(3 * scores), truth) == a
        done += 1

    report(
        "C8 metrics oracles",
        count_ok and auc_ok and invariance_ok,
        f"counts {count_ok}, auc {auc_ok}, invariance {invariance_ok}",
    )


def test_c9_determinism(tmp_path, monkeypatch):
    assert main(
        ["gen-synthetic", "48", "32", "3", "--seed", "1", "--out-prefix", f"{tmp_path}/"]
    ) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("cost.d_max = 8\ngf.radius = 2\n")
    outputs = {}
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("MSFUSE_THREADS", threads)
        sub = tmp_path / f"t{threads}"
        sub.mkdir()
        assert main(
            [
                "reconstruct",
                f"{tmp_path}/left.pgm",
                f"{tmp_path}/right.pgm",
                "--config",
                str(cfg),
                "--out-disparity",
                f"{sub}/d.pfm",
                "--out-cloud",
                f"{sub}/c.ply",
            ]
        ) == 0
        outputs[threads] = (
            (sub / "d.pfm").read_bytes(),
            (sub / "c.ply").read_bytes(),
        )
    report("C9 thread-count determinism", outputs["1"] == outputs["2"] == outputs["8"])
