"""Calibrator tests: linear stages, refinement, full pipelines, conversion."""

from __future__ import annotations

import enum
import math
import tracemalloc

import numpy as np
import pytest

import raycalib as rc
from raycalib.fit import (
    _QR_BLOCK,
    _eucm_dist,
    _family_rows,
    _fit_linear_full,
    _fit_ppoint_full,
    _params_of,
    _pass,
    _ppoint_rows,
    _residual_block,
    _row_qr,
    _solve,
    _tangent_basis,
    residual_jacobian,
)

from conftest import (
    ALL_MODEL_STRINGS,
    centered_spec,
    max_param_error,
    residual_jacobian_numeric,
)


def grid_corrs(spec: rc.CameraSpec, stride: int = 8) -> rc.Correspondences:
    return rc.Correspondences.from_spec(spec, stride)


def count_calls(monkeypatch, *names: str) -> list[list]:
    """Wrap each named ``raycalib.fit`` function; one list of call arguments per name."""
    calls = []
    for name in names:
        fn, seen = getattr(rc.fit, name), []

        def wrapped(*args, fn=fn, seen=seen):
            seen.append(args)
            return fn(*args)

        monkeypatch.setattr(f"raycalib.fit.{name}", wrapped)
        calls.append(seen)
    return calls


# ---------------------------------------------------------------------------
# stage 1: principal point and aspect
# ---------------------------------------------------------------------------


class TestFitPpointAspect:
    def test_exact_pinhole_centered(self):
        spec = centered_spec("pinhole", 80.0, 480)
        a, cx, cy = rc.fit_ppoint_aspect(grid_corrs(spec))
        assert a == pytest.approx(1.0, abs=1e-9)
        assert cx == pytest.approx(240.0, abs=1e-9 * 240)
        assert cy == pytest.approx(240.0, abs=1e-9 * 240)

    def test_exact_kb4_off_center_anisotropic(self):
        model = rc.parse_model("kb:4")
        spec = rc.CameraSpec(
            model, 250.0, 300.0, 300.0, 200.0, (0.02, -0.003, 0.0004, -0.0001), 640, 480
        )
        a, cx, cy = rc.fit_ppoint_aspect(grid_corrs(spec))
        assert a == pytest.approx(1.2, rel=1e-9)
        assert cx == pytest.approx(300.0, rel=1e-9)
        assert cy == pytest.approx(200.0, rel=1e-9)

    def test_model_independence(self):
        # the same (a, c) recovered identically from different families
        pin = rc.CameraSpec(rc.parse_model("pinhole"), 400.0, 360.0, 250.0, 210.0, (), 512, 400)
        euc = rc.CameraSpec(
            rc.parse_model("eucm"), 260.0, 234.0, 250.0, 210.0, (0.6, 1.19), 512, 400
        )
        got_pin = rc.fit_ppoint_aspect(grid_corrs(pin))
        got_euc = rc.fit_ppoint_aspect(grid_corrs(euc))
        np.testing.assert_allclose(got_pin, got_euc, rtol=1e-9)
        np.testing.assert_allclose(got_pin, (0.9, 250.0, 210.0), rtol=1e-9)

    def test_degenerate_rows_rejected(self):
        # two usable rows cannot determine three unknowns
        corrs = rc.Correspondences(
            np.array([[10.0, 10.0], [20.0, 20.0], [15.0, 15.0]]),
            np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 0.995], [0.0, 0.1, 0.995]]),
        )
        with pytest.raises(rc.DegenerateGeometry):
            rc.fit_ppoint_aspect(corrs)


# ---------------------------------------------------------------------------
# stage 2: linear rows
# ---------------------------------------------------------------------------


class TestFitLinear:
    def test_pinhole_exact(self):
        spec = centered_spec("pinhole", 70.0, 480)
        got = rc.fit_linear(rc.parse_model("pinhole"), grid_corrs(spec), 1.0, (240.0, 240.0), (480, 480))
        assert got.fx == pytest.approx(spec.fx, rel=1e-9)

    def test_division_reparameterization_undone(self):
        model = rc.parse_model("division:2")
        spec = rc.CameraSpec(model, 500.0, 500.0, 320.0, 240.0, (-0.2, 0.05), 640, 480)
        got = rc.fit_linear(model, grid_corrs(spec), 1.0, (320.0, 240.0), (640, 480))
        assert got.fx == pytest.approx(500.0, rel=1e-6)
        assert got.dist[0] == pytest.approx(-0.2, rel=1e-6)
        assert got.dist[1] == pytest.approx(0.05, rel=1e-6)

    def test_ucm_fig_parameters(self):
        model = rc.parse_model("ucm")
        spec = rc.CameraSpec(model, 616.1, 616.1, 320.0, 240.0, (0.88,), 640, 480)
        got = rc.fit_linear(model, grid_corrs(spec), 1.0, (320.0, 240.0), (640, 480))
        assert got.fx == pytest.approx(616.1, rel=1e-6)
        assert got.dist[0] == pytest.approx(0.88, rel=1e-6)

    def test_ucm_bound_clamp_keeps_xi_nonnegative(self):
        # near-pinhole data with noise can pull xi below zero; the simplified
        # active set clamps it and re-solves the focal
        spec = centered_spec("pinhole", 60.0, 480)
        corrs = grid_corrs(spec)
        rng = np.random.default_rng(3)
        noisy = rc.Correspondences(
            corrs.pixels + rng.normal(0, 0.05, corrs.pixels.shape), corrs.rays
        )
        got = rc.fit_linear(rc.parse_model("ucm"), noisy, 1.0, (240.0, 240.0), (480, 480))
        assert got.dist[0] >= 0.0


def dense_lstsq(rows: np.ndarray) -> np.ndarray:
    """lstsq of [A | b] on the equilibrated columns of A, as the stages solve."""
    scale = np.linalg.norm(rows[:, :-1], axis=0)
    sol, *_ = np.linalg.lstsq(rows[:, :-1] / scale, rows[:, -1], rcond=1e-12)
    return sol / scale


class TestBlockedKernel:
    @pytest.fixture(scope="class")
    def corrs(self):
        # a 180-degree-plus equidistant field on 176x176, four blocks: its
        # corner rays have Z < 0, which the pinhole/radial rows drop; one
        # cell on the principal point has X = Y = 0, which stage 1 drops;
        # three NaN cells are holes
        spec = rc.CameraSpec(rc.parse_model("kb:1"), 56.6, 56.6, 88.5, 88.5, (0.0,), 176, 176)
        theta = rc.add_noise(rc.field_from_spec(spec), 0.2, seed=4).theta.copy()
        theta[88, 88] = 0.0
        theta[3, 5] = theta[100, 17] = theta[175, 175] = np.nan
        corrs = rc.Correspondences.from_field(rc.FovField(theta=theta))
        assert len(corrs) == 176 * 176 - 3 and len(corrs) > 3 * _QR_BLOCK
        assert np.count_nonzero(corrs.rays[:, 2] <= 0.0) > 0
        return corrs

    def test_stage1_matches_dense_lstsq(self, corrs):
        rows = _ppoint_rows(corrs.pixels, corrs.rays)
        assert len(rows) == len(corrs) - 1
        a, a_cx, cy = dense_lstsq(rows)
        residual = np.sqrt(np.mean((rows[:, :-1] @ (a, a_cx, cy) - rows[:, -1]) ** 2))
        got = _fit_ppoint_full(corrs)
        np.testing.assert_allclose(got, (a, a_cx / a, cy, residual), rtol=1e-10)

    @pytest.mark.parametrize("name", ["radial:2", "kb:3", "division:2"])
    def test_stage2_matches_dense_lstsq(self, corrs, name):
        model = rc.parse_model(name)
        a, cx, cy, _ = _fit_ppoint_full(corrs)

        def rows(px, rays):
            return _family_rows(model, px, rays, a, (cx, cy))

        dense = rows(corrs.pixels, corrs.rays)
        if model.family is rc.Family.BROWN_CONRADY:
            assert len(dense) < len(corrs)  # the Z filter dropped rows
        R, m = _row_qr(corrs, rows, model.num_dist + 2)
        assert m == len(dense)
        got = _solve(R, m, name)
        want = dense_lstsq(dense)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10


class TestFitEucm:
    def test_published_sample_parameters(self):
        # alpha = 0.60, beta = 1.19 at a wide field of view; the kb proxy
        # reproduces the focal to 1e-3 and alpha to 1e-4 algebraically
        spec = centered_spec("eucm", 160.0, 512, dist=(0.6, 1.19))
        corrs = rc.Correspondences.from_spec(spec, 4)
        a, cx, cy = rc.fit_ppoint_aspect(corrs)
        got = rc.fit_linear(rc.parse_model("eucm"), corrs, a, (cx, cy), (512, 512))
        assert got.fx == pytest.approx(spec.fx, rel=1e-3)
        assert got.dist[0] == pytest.approx(0.6, abs=1e-4)
        # the proxy-focal error leaks into beta at the algebraic stage; the
        # standard refinement stage brings it within 1e-4
        assert got.dist[1] == pytest.approx(1.19, abs=5e-4)
        refined = rc.refine(got, corrs).spec
        assert refined.dist[0] == pytest.approx(0.6, abs=1e-4)
        assert refined.dist[1] == pytest.approx(1.19, abs=1e-4)
        assert refined.fx == pytest.approx(spec.fx, rel=1e-3)

    def test_gamma_alpha_system_consistent_at_true_focal(self):
        # with the focal held at truth the (gamma, alpha) rows are exactly
        # consistent and recovery is exact
        spec = centered_spec("eucm", 60.0, 512, dist=(0.5, 1.0))
        got = rc.convert_model(spec, rc.parse_model("eucm"), fix_focal=True, stride=8)
        assert got.dist[0] == pytest.approx(0.5, abs=1e-6)
        assert got.dist[1] == pytest.approx(1.0, abs=1e-6)

    def test_pinhole_degenerate_alpha_clamped(self):
        spec = centered_spec("pinhole", 70.0, 480)
        corrs = grid_corrs(spec)
        a, cx, cy = rc.fit_ppoint_aspect(corrs)
        got, bounds = _fit_linear_full(rc.parse_model("eucm"), corrs, a, (cx, cy), (480, 480))
        assert got.dist[0] < 1e-3
        assert got.dist[1] > 0.0
        assert bounds  # at least one bound was clamped
        assert rc.reproj_error(spec, got, grid_stride=8) < 0.1

    def test_bounds_do_not_follow_the_sign_of_roundoff(self):
        # on the grid of test_pinhole_degenerate_alpha_clamped gamma is zero
        # up to roundoff; proxy focals up to 4 ulp apart record the same bounds
        spec = centered_spec("pinhole", 70.0, 480)
        corrs = grid_corrs(spec)
        a, cx, cy = rc.fit_ppoint_aspect(corrs)
        f = _fit_linear_full(rc.parse_model("eucm"), corrs, a, (cx, cy), (480, 480))[0].fx
        focals = [f]
        for direction in (-math.inf, math.inf):
            g = f
            for _ in range(4):
                g = math.nextafter(g, direction)
                focals.append(g)
        bounds = {_eucm_dist(corrs, g, a, (cx, cy))[1] for g in focals}
        assert bounds == {("beta>0",)}

    @pytest.mark.parametrize(
        "pixels, theta, phi, want, dist",
        [
            # alpha > 1 clamps, gamma <= 0 re-solves alpha back inside [0, 1]
            ([[0.01, -0.711], [0.673, 0.43], [0.818, -0.91], [-0.14, 0.188],
              [-0.255, -0.914], [-0.326, 0.99]],
             [0.178, 2.196, 0.748, 0.617, 0.59, 0.621],
             [4.347, 4.395, 4.977, 1.396, 4.365, 4.439],
             ("beta>0",), (0.8894086203661069, 1e-6)),
            # alpha > 1 clamps, and the gamma = 0 re-solve clamps it again
            ([[0.354, -0.866], [0.664, 0.551], [-0.932, 0.402], [-0.42, 0.812],
              [-0.639, -0.043], [0.911, -0.987]],
             [2.359, 2.194, 0.722, 0.626, 0.24, 0.887],
             [0.708, 3.077, 3.458, 0.357, 0.764, 3.662],
             ("alpha<=1", "beta>0"), (1.0, 1e-6)),
        ],
        ids=["resolved-inside", "clamped-twice"],
    )
    def test_bounds_name_each_bound_the_result_is_on(self, pixels, theta, phi, want, dist):
        theta, phi = np.array(theta), np.array(phi)
        s = np.sin(theta)
        rays = np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], -1)
        corrs = rc.Correspondences(np.array(pixels), rays)
        got, bounds = _fit_linear_full(rc.parse_model("eucm"), corrs, 1.0, (0.0, 0.0), (1, 1), 1.0)
        assert bounds == want
        assert got.dist == dist


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


class TestRefine:
    def test_ground_truth_is_fixed_point(self):
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.05, -0.01))
        corrs = rc.Correspondences.from_field(rc.field_from_spec(spec))
        res = rc.refine(spec, corrs)
        assert max_param_error(res.spec, spec) < 1e-10
        assert res.gn_costs[0] < 1e-25

    def test_perturbed_focal_recovers(self):
        spec = centered_spec("pinhole", 75.0, 64)
        corrs = rc.Correspondences.from_field(rc.field_from_spec(spec))
        res = rc.refine(spec.replace(fx=spec.fx * 1.05, fy=spec.fy * 1.05), corrs)
        assert abs(res.spec.fx - spec.fx) / spec.fx < 1e-8
        assert abs(res.spec.fy - spec.fy) / spec.fy < 1e-8

    def test_noisy_costs_non_increasing(self, rng):
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.05, -0.01))
        field = rc.add_noise(rc.field_from_spec(spec), 0.5, seed=11)
        res = rc.calibrate(field, spec.model)
        costs = res.gn_costs
        assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))

    def test_final_cost_never_exceeds_algebraic(self, rng):
        for name in ("pinhole", "radial:1", "kb:3", "ucm", "eucm", "division:2"):
            spec = rc.sample_spec_for_model(rc.parse_model(name), 48, rng)
            field = rc.add_noise(rc.field_from_spec(spec), 0.3, seed=5)
            res = rc.calibrate(field, spec.model)
            assert res.gn_costs[-1] <= res.gn_costs[0]

    def test_refined_spec_is_a_fixed_point(self, rng, monkeypatch):
        # refining a refined noisy spec again leaves it in place, and every
        # call is deterministic
        spec = rc.sample_spec_for_model(rc.parse_model("kb:3"), 64, rng)
        field = rc.add_noise(rc.field_from_spec(spec), 0.3, seed=7)
        corrs = rc.Correspondences.from_field(field)
        first = rc.calibrate(field, spec.model)
        (steps,) = count_calls(monkeypatch, "_pass")
        again = rc.refine(first.spec, corrs)
        costs = again.gn_costs
        assert len(costs) == 6
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert max_param_error(again.spec, first.spec) < 1e-9
        assert rc.refine(first.spec, corrs) == again
        # here the first step is predicted to remove less than _GN_RTOL of
        # the cost, so refine stops before any trial pass: the parameters
        # do not move, and each of the two calls builds one step, in its
        # first residual pass
        assert len(set(costs)) == 1 and len(steps) == 2

    def test_refined_spec_stops_after_one_pass(self, rng, monkeypatch):
        # at the spec of test_refined_spec_is_a_fixed_point the first step is
        # predicted to remove less than _GN_RTOL of the cost, so refine pays
        # no trial pass
        spec = rc.sample_spec_for_model(rc.parse_model("kb:3"), 64, rng)
        field = rc.add_noise(rc.field_from_spec(spec), 0.3, seed=7)
        corrs = rc.Correspondences.from_field(field)
        first = rc.calibrate(field, spec.model)
        (passes,) = count_calls(monkeypatch, "_pass")
        again = rc.refine(first.spec, corrs)
        assert len(passes) == 1
        assert again.spec == first.spec and len(set(again.gn_costs)) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_fit_stops_at_noise_floor(self, seed, monkeypatch):
        spec = rc.sample_spec_for_model(rc.parse_model("kb:2"), 96, np.random.default_rng(seed))
        field = rc.add_noise(rc.field_from_spec(spec), 0.5, seed=seed)
        (passes,) = count_calls(monkeypatch, "_pass")
        costs = rc.calibrate(field, spec.model).gn_costs
        assert len(passes) <= 4
        assert len(costs) == 6
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert costs[-1] == costs[-2]

    def test_fit_peak_memory(self):
        # a fit holds the correspondences, the tangent basis and one block
        # of rows at a time: about 20 MiB on this 384x384 field; stages that
        # build whole-field (n, k) arrays take 46 MiB, twice the bound
        spec = rc.sample_spec_for_model(rc.parse_model("kb:4"), 384, np.random.default_rng(5))
        field = rc.add_noise(rc.field_from_spec(spec), 0.2, seed=5)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rc.calibrate(field, spec.model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 23 * 2**20

    def test_least_squares_blocks_are_f_ordered(self, monkeypatch):
        # every block _tsqr factors is F-ordered: qr copies a C-ordered block
        # into column order first.  The eucm fit builds stage-1 rows, the
        # kb:3 proxy's stage-2 rows, the (gamma, alpha) rows and refinement's
        # leaves; the held-focal conversion builds rows with one column moved
        tsqr, seen = rc.fit._tsqr, []

        def guarded(blocks, width):
            def checked():
                for A in blocks:
                    seen.append(A.flags.f_contiguous)
                    yield A

            return tsqr(checked(), width)

        monkeypatch.setattr("raycalib.fit._tsqr", guarded)
        spec = centered_spec("eucm", 150.0, 128, dist=(0.6, 1.1))
        rc.calibrate(rc.add_noise(rc.field_from_spec(spec), 0.2, seed=1), spec.model)
        rc.convert_model(spec, rc.parse_model("kb:2"), fix_focal=True, stride=2)
        assert len(seen) > 20 and all(seen)

    def test_underdetermined_returns_start_with_warning(self):
        spec = centered_spec("kb:4", 100.0, 64, dist=(0.05, -0.01, 0.001, -0.0001))
        few = rc.Correspondences.from_spec(spec, 40)  # 2x2 grid: 8 rows < 8 params+
        res = rc.refine(spec.replace(fx=spec.fx * 1.1, fy=spec.fy * 1.1), few)
        assert res.warning is not None
        assert res.spec.fx == pytest.approx(spec.fx * 1.1)

    def test_warning_written_to_result_json(self):
        # the refine of test_underdetermined_returns_start_with_warning; only
        # RANSAC fits carry an inlier ratio
        spec = centered_spec("kb:4", 100.0, 64, dist=(0.05, -0.01, 0.001, -0.0001))
        few = rc.Correspondences.from_spec(spec, 40)
        res = rc.refine(spec.replace(fx=spec.fx * 1.1, fy=spec.fy * 1.1), few)
        data = res.to_dict()
        assert data["warning"] == res.warning
        assert data["warning"] == "singular normal matrix; refinement stopped early"
        assert "inlier_ratio" not in data
        assert "warning" not in rc.refine(spec, rc.Correspondences.from_spec(spec, 8)).to_dict()


class TestJacobians:
    @pytest.mark.parametrize(
        "name", ["pinhole", "ucm", "eucm", "division:1", "division:2", "division:3"]
    )
    def test_closed_form_families_match_central_differences(self, name, rng):
        # entries above a relevance floor agree to 1e-5 relative
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        px = rng.uniform(4, 60, size=(100, 2))
        targets, ok = rc.unproject_masked(spec, px)
        px, targets = px[ok], targets[ok]
        pspec = spec.replace(fx=spec.fx * 1.03, cx=spec.cx + 0.5)
        Ja = residual_jacobian(pspec, px, targets)
        b1, b2 = _tangent_basis(targets)
        Jn = residual_jacobian_numeric(
            pspec, px, targets, b1, b2, _params_of(pspec), np.arange(4 + spec.model.num_dist)
        )
        colscale = np.maximum(np.abs(Jn).max(axis=(0, 1)), 1e-12)
        sig = np.abs(Jn) > 1e-3 * colscale
        rel = np.abs(Ja - Jn)[sig] / np.abs(Jn)[sig]
        assert rel.max() < 1e-5

    @pytest.mark.parametrize(
        "name", [f"{fam}:{n}" for fam in ("radial", "kb") for n in range(1, 5)]
    )
    def test_implicit_derivatives_match_differences(self, name, rng):
        # the Newton-inverted families, through the implicit derivatives of
        # the converged solve
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        px = rng.uniform(4, 60, size=(100, 2))
        targets, ok = rc.unproject_masked(spec, px)
        px, targets = px[ok], targets[ok]
        pspec = spec.replace(fx=spec.fx * 1.03, cx=spec.cx + 0.5)
        Ja = residual_jacobian(pspec, px, targets)
        b1, b2 = _tangent_basis(targets)
        kappa = _params_of(pspec)
        Jn = residual_jacobian_numeric(pspec, px, targets, b1, b2, kappa, np.arange(len(kappa)))
        colscale = np.maximum(np.abs(Jn).max(axis=(0, 1)), 1e-12)
        assert np.max(np.abs(Ja - Jn).max(axis=(0, 1)) / colscale) < 1e-5

    def test_blocked_reduction_matches_dense_lstsq(self, rng):
        # a 176x176 field spans four QR blocks; the perturbed fold radius of
        # the radial spec leaves its outer cells invalid, so those rows are
        # zero in both J and e
        spec = rc.sample_spec_for_model(rc.parse_model("radial:2"), 176, rng)
        corrs = rc.Correspondences.from_field(rc.add_noise(rc.field_from_spec(spec), 0.2, seed=3))
        pspec = spec.replace(fx=spec.fx * 1.02, cy=spec.cy - 0.7, dist=(spec.dist[0], -0.3))
        b1, b2 = _tangent_basis(corrs.rays)
        free = np.arange(4 + spec.model.num_dist)
        cost, valid, R, _ = _pass(pspec, corrs, (b1, b2), free)
        assert len(corrs) > 2 * _QR_BLOCK and 0 < valid < len(corrs)
        step = _solve(R, 2 * len(corrs), "step")
        blk = _residual_block(pspec, corrs.pixels, corrs.rays, b1, b2)
        e = np.stack([blk.e1, blk.e2], axis=-1)
        assert cost == pytest.approx(np.sum(e * e) / valid, rel=1e-12)
        J = residual_jacobian(pspec, corrs.pixels, corrs.rays).reshape(-1, len(free))
        scale = np.linalg.norm(J, axis=0)
        dense, *_ = np.linalg.lstsq(J / scale, -e.reshape(-1), rcond=1e-12)
        dense /= scale
        assert np.max(np.abs(step - dense) / np.abs(dense)) < 1e-10

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_pass_matches_dense_algebra(self, name):
        # the pass's blocked kernel against dense algebra on the same rows:
        # a 176x176 field at 0.2 deg spans four blocks, and the spec is
        # perturbed off its optimum.  R matches one dense QR of [J | -e] to
        # 1e-13 of each column's norm once the row signs agree, and the step
        # matches dense lstsq
        rng = np.random.default_rng(sum(map(ord, name)))
        spec = rc.sample_spec_for_model(rc.parse_model(name), 176, rng)
        corrs = rc.Correspondences.from_field(rc.add_noise(rc.field_from_spec(spec), 0.2, seed=3))
        pspec = spec.replace(fx=spec.fx * 1.02, cy=spec.cy - 0.7,
                             dist=tuple(1.01 * k for k in spec.dist))
        basis = _tangent_basis(corrs.rays)
        k = 4 + spec.model.num_dist
        _, valid, R, _ = _pass(pspec, corrs, basis, np.arange(k))
        assert len(corrs) > 3 * _QR_BLOCK and valid > 0
        blk = _residual_block(pspec, corrs.pixels, corrs.rays, *basis)
        J = residual_jacobian(pspec, corrs.pixels, corrs.rays).reshape(-1, k)
        e = np.stack([blk.e1, blk.e2], axis=-1).reshape(-1)
        dense = np.linalg.qr(np.column_stack([J, -e]), mode="r")
        dense *= (np.sign(np.diag(R)) * np.sign(np.diag(dense)))[:, None]
        colnorm = np.linalg.norm(R, axis=0)
        assert np.max(np.abs(R - dense) / colnorm) <= 1e-13
        scale = np.linalg.norm(J, axis=0)
        want, *_ = np.linalg.lstsq(J / scale, -e, rcond=1e-12)
        want /= scale
        step = _solve(R, 2 * len(corrs), "step")
        assert np.max(np.abs(step - want) / np.abs(want)) < 1e-10

    @pytest.mark.parametrize("gap", [1e-6, 1e-10, 1e-14])
    def test_step_rank_rule_matches_lstsq(self, gap):
        # two nearly parallel columns: the step is singular exactly when
        # lstsq, on the equilibrated columns, counts rank 1 at rcond 1e-12
        R = np.array([[1.0, 1.0, 0.5], [0.0, gap, 0.25], [0.0, 0.0, 0.0]])
        J = R[:, :2] / np.linalg.norm(R[:, :2], axis=0)
        rank = np.linalg.lstsq(J, R[:, 2], rcond=1e-12)[2]
        try:
            _solve(R, 3, "step")
            singular = False
        except rc.DegenerateGeometry:
            singular = True
        assert singular == (rank < 2)
        assert rank == (2 if gap > 1e-12 else 1)

# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


class TestCalibrate:
    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_exact_recovery(self, name, rng):
        model = rc.parse_model(name)
        for _ in range(3):
            spec = rc.sample_spec_for_model(model, 64, rng)
            res = rc.calibrate(rc.field_from_spec(spec), model)
            tol = 1e-4 if model.family is rc.Family.EUCM else 1e-6
            assert max_param_error(res.spec, spec) < tol

    def test_pinhole_fits_as_radial_with_zero_coefficient(self):
        spec = centered_spec("pinhole", 70.0, 64)
        res = rc.calibrate(rc.field_from_spec(spec), rc.parse_model("radial:1"))
        assert abs(res.spec.dist[0]) < 1e-6
        assert res.spec.fx == pytest.approx(spec.fx, rel=1e-6)

    def test_kb4_published_parameters(self):
        spec = rc.CameraSpec(
            rc.parse_model("kb:4"), 616.1, 616.1, 256.0, 256.0,
            (0.060, 0.0061, 0.0006, -0.0003), 512, 512,
        )
        res = rc.calibrate(rc.field_from_spec(spec), spec.model)
        assert max_param_error(res.spec, spec) < 1e-6

    def test_strided_calibration(self):
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.05, -0.01))
        res = rc.calibrate(rc.field_from_spec(spec), spec.model, stride=4)
        assert max_param_error(res.spec, spec) < 1e-6

    def test_nan_cell_is_dropped(self):
        # one non-finite cell must not fail the fit of the rest of the field
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.05, -0.01))
        field = rc.field_from_spec(spec)
        theta = field.theta.copy()
        theta[10, 20] = np.nan
        holed = rc.FovField(theta=theta)
        assert len(rc.Correspondences.from_field(holed)) == 64 * 64 - 1
        res = rc.calibrate(holed, spec.model)
        clean = rc.calibrate(field, spec.model)
        assert max_param_error(res.spec, spec) < 1e-6
        assert max_param_error(res.spec, clean.spec) < 1e-6
        assert res.dropped == 1
        assert rc.calibrate_ransac(holed, spec.model, iters=20, seed=4).dropped == 1

    def test_ucm_xi_bound_resolves_focal(self):
        # a pincushion camera pulls the linear xi below zero; the active set
        # clamps it to 0 and re-solves the focal alone
        spec = rc.CameraSpec(rc.parse_model("radial:1"), 200.0, 200.0, 64.0, 64.0, (0.1,), 128, 128)
        res = rc.calibrate(rc.field_from_spec(spec), rc.parse_model("ucm"))
        assert res.active_bounds == ("xi>=0",)
        assert res.spec.dist == (0.0,)
        assert all(b <= a for a, b in zip(res.gn_costs, res.gn_costs[1:]))

    def test_foreign_family_is_not_fitted_as_division(self):
        # a family that is not this package's Family member has no rows here;
        # the same member of a second Family enum must raise, not fall through
        class Foreign(enum.Enum):
            UCM = "ucm"

        spec = rc.sample_spec_for_model(rc.parse_model("ucm"), 96, np.random.default_rng(1))
        model = rc.parse_model("ucm")
        object.__setattr__(model, "family", Foreign.UCM)
        with pytest.raises(rc.UnsupportedFamily):
            rc.calibrate(rc.field_from_spec(spec), model)

    def test_reparameterization_consistency(self):
        # refitting the correspondences of a fitted division spec returns the
        # same coefficients, confirming the k' reparameterization is undone
        spec = centered_spec("division:2", 110.0, 64, dist=(-0.15, 0.02))
        fitted = rc.calibrate(rc.field_from_spec(spec), spec.model).spec
        refit = rc.calibrate(rc.field_from_spec(fitted), spec.model).spec
        for g, w in zip(refit.dist, fitted.dist):
            assert g == pytest.approx(w, abs=1e-8)


class TestRansac:
    def test_noiseless_field_full_consensus(self, rng):
        spec = rc.sample_spec_for_model(rc.parse_model("kb:2"), 64, rng)
        field = rc.field_from_spec(spec)
        plain = rc.calibrate(field, spec.model)
        rans = rc.calibrate_ransac(field, spec.model, iters=20, seed=4)
        assert rans.inlier_ratio == 1.0
        assert max_param_error(rans.spec, plain.spec) < 1e-6

    def test_outlier_cells_handled(self, rng):
        spec = rc.sample_spec_for_model(rc.parse_model("kb:2"), 64, rng)
        field = rc.field_from_spec(spec)
        theta = field.theta.copy().reshape(-1, 2)
        idx = rng.choice(len(theta), int(0.2 * len(theta)), replace=False)
        az = rng.uniform(0, 2 * np.pi, len(idx))
        mag = rng.uniform(0.3, 2.5, len(idx))
        theta[idx] = np.stack([mag * np.cos(az), mag * np.sin(az)], axis=-1)
        corrupt = rc.FovField(theta=theta.reshape(field.theta.shape))
        plain = rc.calibrate(corrupt, spec.model)
        rans = rc.calibrate_ransac(corrupt, spec.model, iters=100, seed=7)
        ae_plain = rc.angular_error(spec, plain.spec, grid_stride=4)
        ae_rans = rc.angular_error(spec, rans.spec, grid_stride=4)
        assert ae_rans < ae_plain

    def test_seed_determinism(self, rng):
        spec = rc.sample_spec_for_model(rc.parse_model("radial:1"), 64, rng)
        field = rc.add_noise(rc.field_from_spec(spec), 0.3, seed=2)
        r1 = rc.calibrate_ransac(field, spec.model, iters=40, seed=9)
        r2 = rc.calibrate_ransac(field, spec.model, iters=40, seed=9)
        assert r1.spec == r2.spec and r1.inlier_ratio == r2.inlier_ratio

    @pytest.mark.parametrize(
        "iters, thresh", [(0, 0.01), (-3, 0.01), (10, 0.0), (10, -0.01), (10, math.nan)]
    )
    def test_invalid_settings_raise_value_error(self, iters, thresh):
        field = rc.field_from_spec(centered_spec("pinhole", 60.0, 16))
        with pytest.raises(ValueError, match="iters >= 1 and thresh > 0"):
            rc.calibrate_ransac(field, rc.parse_model("pinhole"), iters=iters, thresh=thresh)

    def test_no_consensus_raises(self, rng):
        # a field of directionally random cells admits no camera model
        az = rng.uniform(0, 2 * np.pi, (32, 32))
        mag = rng.uniform(0.5, 2.8, (32, 32))
        theta = np.stack([mag * np.cos(az), mag * np.sin(az)], axis=-1)
        with pytest.raises((rc.NoConsensus, rc.DegenerateGeometry)):
            rc.calibrate_ransac(
                rc.FovField(theta=theta), rc.parse_model("pinhole"),
                iters=25, thresh=math.radians(0.05), seed=1,
            )


class TestConvertModel:
    def test_identity_conversion(self):
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.05, -0.01))
        got = rc.convert_model(spec, spec.model, stride=2)
        assert max_param_error(got, spec) < 1e-9

    def test_pinhole_to_kb2_reproduces_tangent_expansion(self):
        spec = centered_spec("pinhole", 60.0, 480)
        got = rc.convert_model(spec, rc.parse_model("kb:2"), stride=4)
        # tan(t) = t + t^3/3 + 2 t^5/15 + ...; the least-squares fit over the
        # 60-degree cone lands near the leading coefficients
        assert got.dist[0] == pytest.approx(1 / 3, abs=0.02)
        assert got.dist[1] == pytest.approx(2 / 15, abs=0.06)
        assert rc.reproj_error(spec, got, grid_stride=4) < 0.05

    def test_pinhole_to_division_exact(self):
        spec = centered_spec("pinhole", 60.0, 480)
        got = rc.convert_model(spec, rc.parse_model("division:1"), stride=4)
        assert rc.angular_error(spec, got, grid_stride=4) < 0.05

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_fixed_focal_holds_parameters(self, name):
        spec = centered_spec("kb:2", 110.0, 128, dist=(0.06, 0.002))
        got = rc.convert_model(spec, rc.parse_model(name), fix_focal=True, stride=4)
        assert got.fx == spec.fx and got.fy == spec.fy
        assert got.cx == spec.cx and got.cy == spec.cy
        assert got.model == rc.parse_model(name)
        assert np.all(np.isfinite(got.dist))
        if got.model.family is rc.Family.UCM:
            assert got.dist[0] >= 0.0

    def test_fixed_focal_eucm_keeps_the_fit_bounds(self):
        # a pincushion source needs alpha < 0 at the held focal; the fit's
        # active set puts alpha at its bound instead of dividing gamma by a
        # clamped alpha^2
        spec = centered_spec("radial:1", 70.0, 128, dist=(0.1,))
        got = rc.convert_model(spec, rc.parse_model("eucm"), fix_focal=True, stride=4)
        assert got.dist[0] < 1e-3 and got.dist[1] <= 1.0
        assert rc.angular_error(spec, got, grid_stride=4) < 1.0

    @pytest.mark.parametrize(
        "name, case",
        [pytest.param(name, (fov, dist), id=f"{name}-{fov}-dist{i}")
         for i, (name, fov, dist) in enumerate(
             [("radial:2", 80.0, (-0.1, 0.01)), ("kb:2", 110.0, (0.06, 0.002)),
              ("ucm", 120.0, (0.8,)), ("eucm", 120.0, (0.6, 1.1)),
              ("division:2", 110.0, (-0.15, 0.02))])]
        + [pytest.param(name, seed, id=f"{name}-seed{seed}")
           for name in ALL_MODEL_STRINGS for seed in range(5)],
    )
    def test_fixed_focal_same_family_is_exact(self, name, case):
        # the held-focal linear rows solve the source's own family exactly: on
        # hand-picked (fov, dist) cameras and on cameras the sampler draws
        if isinstance(case, int):
            spec = rc.sample_spec_for_model(rc.parse_model(name), 128, np.random.default_rng(case))
        else:
            spec = centered_spec(name, case[0], 128, dist=case[1])
        got = rc.convert_model(spec, spec.model, fix_focal=True, stride=4)
        assert max_param_error(got, spec) < 1e-9

    def test_kb_to_ucm_free_matches_published_values(self):
        # the published cross-model sample: mapping the focal too yields a
        # very different f (1331.9) with xi = 1.17
        spec = rc.CameraSpec(
            rc.parse_model("kb:4"), 616.1, 616.1, 876.0, 584.0,
            (0.060, 0.0061, 0.0006, -0.0003), 1752, 1168,
        )
        got = rc.convert_model(spec, rc.parse_model("ucm"), stride=8)
        assert got.fx == pytest.approx(1331.9, rel=0.05)
        assert got.dist[0] == pytest.approx(1.17, abs=0.05)


class TestCorrespondences:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rc.Correspondences(np.zeros((3, 2)), np.zeros((4, 3)))

    def test_from_spec_drops_noninvertible_cells(self):
        # a spec violating its clamp leaves border cells non-invertible
        model = rc.parse_model("radial:1")
        f_min = rc.min_focal(model, (-0.1,), 480, 480)
        bad = rc.CameraSpec(model, 0.8 * f_min, 0.8 * f_min, 240, 240, (-0.1,), 480, 480)
        corrs = rc.Correspondences.from_spec(bad, stride=8)
        assert 0 < len(corrs) < 60 * 60

    def test_masked_variants_flag_instead_of_raising(self):
        spec = centered_spec("pinhole", 70.0, 64)
        rays = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        px, ok = rc.project_masked(spec, rays)
        assert ok.tolist() == [True, False]
        np.testing.assert_allclose(px[0], [32.0, 32.0])
