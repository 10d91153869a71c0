"""Camera model tests: projection, unprojection, validity limits."""

from __future__ import annotations

import math

import numpy as np
import pytest

import raycalib as rc
import raycalib.models
from raycalib.models import (
    _KB_THETA_CAP,
    _corner_norm_radius,
    _division_fold_radius,
    _domain_radius,
    _even_poly,
    _odd_poly_solve,
    _ray_angle,
    _stationary_radius,
    pixel_centers,
    radial_profile,
    theta_max,
)

from conftest import ALL_MODEL_STRINGS, random_unit_rays


def pinhole_spec(f=240.0, c=(240.0, 240.0), size=480):
    return rc.CameraSpec(rc.parse_model("pinhole"), f, f, c[0], c[1], (), size, size)


@pytest.fixture
def newton_evaluations(monkeypatch):
    """The points at which ``models._newton`` evaluates its function."""
    evals = []
    newton = raycalib.models._newton

    def counted(fun, *args):
        def fun_counted(x):
            evals.append(x)
            return fun(x)
        return newton(fun_counted, *args)

    monkeypatch.setattr(raycalib.models, "_newton", counted)
    return evals


def stacked_unproject(spec: rc.CameraSpec, pixels: np.ndarray):
    """Reference unprojection: stacks g, then np.linalg.norm and np.isfinite on the rays."""
    fam = spec.model.family
    mx = (pixels[..., 0] - spec.cx) / spec.fx
    my = (pixels[..., 1] - spec.cy) / spec.fy
    r = np.hypot(mx, my)
    r2 = r * r
    valid = np.isfinite(r)
    one = np.ones_like(mx)
    if fam is rc.Family.PINHOLE:
        g = np.stack([mx, my, one], axis=-1)
    elif fam is rc.Family.BROWN_CONRADY:
        rho, done = _odd_poly_solve(spec.dist, r, 1e9)
        valid &= done
        scale = np.where(r > 1e-12, rho / np.where(r > 1e-12, r, 1.0), 1.0)
        g = np.stack([scale * mx, scale * my, one], axis=-1)
    elif fam is rc.Family.KANNALA_BRANDT:
        theta, done = _odd_poly_solve(spec.dist, r, math.pi - 1e-9)
        valid &= done
        sc = np.where(r > 1e-12, np.sin(theta) / np.where(r > 1e-12, r, 1.0), 1.0)
        g = np.stack([sc * mx, sc * my, np.cos(theta)], axis=-1)
    elif fam is rc.Family.UCM:
        xi = spec.dist[0]
        arg = 1.0 + (1.0 - xi * xi) * r2
        valid &= arg >= 0.0
        s = (xi + np.sqrt(np.maximum(arg, 0.0))) / (1.0 + r2)
        g = np.stack([s * mx, s * my, s - xi], axis=-1)
    elif fam is rc.Family.EUCM:
        alpha, beta = spec.dist
        arg = 1.0 - (2.0 * alpha - 1.0) * beta * r2
        valid &= arg >= 0.0
        den = alpha * np.sqrt(np.maximum(arg, 0.0)) + (1.0 - alpha)
        valid &= den > 1e-12
        mz = (1.0 - beta * alpha * alpha * r2) / np.where(den > 1e-12, den, 1.0)
        g = np.stack([mx, my, mz], axis=-1)
    else:
        valid &= r <= _division_fold_radius(spec.dist)
        g = np.stack([mx, my, _even_poly(spec.dist, r * r)[0]], axis=-1)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    valid &= norm[..., 0] > 1e-12
    rays = g / np.where(norm > 1e-12, norm, 1.0)
    return rays, valid & np.all(np.isfinite(rays), axis=-1)


# ---------------------------------------------------------------------------
# model strings
# ---------------------------------------------------------------------------


class TestModelStrings:
    @pytest.mark.parametrize("text", ALL_MODEL_STRINGS)
    def test_round_trip(self, text):
        assert str(rc.parse_model(text)) == text

    @pytest.mark.parametrize("text", ["radial:0", "radial:5", "kb:5", "division:4"])
    def test_out_of_range_counts(self, text):
        with pytest.raises(ValueError):
            rc.parse_model(text)

    @pytest.mark.parametrize("text", ["pinhole:1", "ucm:2", "kb", "division", "foo"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            rc.parse_model(text)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        px = rc.project(pinhole_spec(), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(px, [240.0, 240.0], atol=1e-12)

    def test_pinhole_45_degrees(self):
        # f = (H/2)/tan(FoV/2) with FoV = 90 deg puts the 45-degree ray at u = W
        ray = np.array([math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4)])
        px = rc.project(pinhole_spec(), ray)
        np.testing.assert_allclose(px, [480.0, 240.0], atol=1e-9)

    def test_kb4_matches_direct_polynomial(self):
        # independent oracle: u - cx = f * (theta + sum k_n theta^(2n+1))
        f = 616.1
        ks = (0.060, 0.0061, 0.0006, -0.0003)
        spec = rc.CameraSpec(rc.parse_model("kb:4"), f, f, 876.0, 584.0, ks, 1752, 1168)
        theta = 0.5
        ray = np.array([math.sin(theta), 0.0, math.cos(theta)])
        expected = f * (
            theta
            + ks[0] * theta**3
            + ks[1] * theta**5
            + ks[2] * theta**7
            + ks[3] * theta**9
        )
        px = rc.project(spec, ray)
        assert px[0] - spec.cx == pytest.approx(expected, abs=1e-9)
        assert px[1] == pytest.approx(spec.cy, abs=1e-9)

    def test_ray_outside_cone_raises(self):
        spec = pinhole_spec()
        with pytest.raises(rc.RayOutsideDomain):
            rc.project(spec, np.array([0.0, 0.0, -1.0]))
        # just beyond the corner angle
        t = theta_max(spec) + 1e-3
        with pytest.raises(rc.RayOutsideDomain):
            rc.project(spec, np.array([math.sin(t), 0.0, math.cos(t)]))

    @pytest.mark.parametrize(
        "name, dist, f, fold",
        [
            ("kb:1", (-0.11021,), 22.02, 1.0 / math.sqrt(3 * 0.11021)),
            ("kb:1", (-0.3,), 10.0, 1.0 / math.sqrt(3 * 0.3)),
            ("radial:1", (-0.1,), 18.0, math.atan(1.0 / math.sqrt(3 * 0.1))),
            ("radial:1", (-0.02,), 4.0, math.atan(1.0 / math.sqrt(3 * 0.02))),
            ("ucm", (1.5,), 10.0, math.acos(-1.0 / 1.5)),
            ("ucm", (3.0,), 5.0, math.acos(-1.0 / 3.0)),
        ],
    )
    def test_theta_max_of_a_folded_camera_is_the_fold(self, name, dist, f, fold):
        spec = rc.CameraSpec(rc.parse_model(name), f, f, 32.0, 32.0, dist, 64, 64)
        _, corner_ok = rc.unproject_masked(spec, np.array([0.0, 0.0]))
        assert not corner_ok  # the image corner lies beyond the fold
        # kb and radial fold where the Newton bracket ends, exactly; the ucm
        # domain ends where a square root's argument reaches 0, so the last
        # radius that unprojects, one ulp short of it, is sqrt(ulp) short in angle
        tol = 1e-9 if name != "ucm" else 1e-9 + 2.0 * math.sqrt(np.finfo(float).eps)
        assert theta_max(spec) == pytest.approx(fold + 1e-9, rel=0.0, abs=tol)


# ---------------------------------------------------------------------------
# unprojection
# ---------------------------------------------------------------------------


class TestUnproject:
    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_principal_point_is_optical_axis(self, name, rng):
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        ray = rc.unproject(spec, np.array([spec.cx, spec.cy]))
        np.testing.assert_allclose(ray, [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_bit_identical_to_stacked_reference(self, name, rng):
        # pixels up to half an image outside it, under the sampled focal and
        # under 0.4 of it, so folds and invalid cells occur; plus the
        # principal point and a NaN pixel
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        px = np.concatenate([
            rng.uniform(-32.0, 96.0, size=(4000, 2)),
            [[spec.cx, spec.cy], [np.nan, 10.0]],
        ]).reshape(2, -1, 2)
        for s in (spec, spec.replace(fx=0.4 * spec.fx, fy=0.4 * spec.fy)):
            rays, ok = rc.unproject_masked(s, px)
            ref_rays, ref_ok = stacked_unproject(s, px)
            np.testing.assert_array_equal(rays, ref_rays)
            np.testing.assert_array_equal(ok, ref_ok)

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_overflowing_pixel_is_invalid(self, name, rng):
        # |g| overflows to inf: the ray is not a direction, whatever g / |g| gives
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            _, ok = rc.unproject_masked(spec, np.array([[1e200, 0.5], [0.5, -1e200]]))
        assert not ok.any()

    def test_pinhole_45_degrees(self):
        ray = rc.unproject(pinhole_spec(), np.array([480.0, 240.0]))
        np.testing.assert_allclose(ray, [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], atol=1e-12)

    def test_ucm_round_trip_fig_parameters(self, rng):
        # 1000 random rays below 60 degrees through the published ucm sample
        spec = rc.CameraSpec(rc.parse_model("ucm"), 616.1, 616.1, 320, 240, (0.88,), 640, 480)
        rays = random_unit_rays(rng, 1000, math.radians(60.0))
        back = rc.unproject(spec, rc.project(spec, rays))
        # atan2 of cross/dot keeps precision for near-identical unit vectors
        ang = np.arctan2(
            np.linalg.norm(np.cross(back, rays), axis=-1),
            np.sum(back * rays, axis=-1),
        )
        assert np.max(ang) < 1e-9

    def test_outside_injective_region_raises(self):
        # strong barrel distortion folds at rho = 1/sqrt(0.3); pixels past the
        # fold radius cannot be unprojected
        model = rc.parse_model("radial:1")
        spec = rc.CameraSpec(model, 100.0, 100.0, 240.0, 240.0, (-0.1,), 480, 480)
        fold_px = 100.0 * radial_profile(
            spec.replace(fx=1.0, fy=1.0), np.array(math.atan(1 / math.sqrt(0.3)))
        )
        with pytest.raises(rc.NonInvertiblePixel):
            rc.unproject(spec, np.array([240.0 + float(fold_px) + 2.0, 240.0]))

    def test_kb_cells_newton_leaves_open_are_bisected(self):
        # every radius lies below h(theta_fold) = 2.441, but Newton from
        # min(r, 0.999 theta_fold), where h' is near 0, leaves 20 cells open
        dist = (0.44933, -0.10482)
        f = 21.596
        spec = rc.CameraSpec(rc.parse_model("kb:2"), f, f, 32.0, 32.0, dist, 64, 64)
        px = pixel_centers(64, 64, 2).reshape(-1, 2)
        r = np.hypot(px[:, 0] - 32.0, px[:, 1] - 32.0) / f
        theta, done = _odd_poly_solve(dist, r, math.pi - 1e-9)
        assert done.all() and rc.unproject_masked(spec, px)[1].all()
        fold = _stationary_radius(dist)
        roots = [np.roots([dist[1], 0.0, dist[0], 0.0, 1.0, -ri]) for ri in r]
        ref = [min(z.real for z in zs if abs(z.imag) < 1e-12 and 0.0 <= z.real <= fold)
               for zs in roots]
        np.testing.assert_allclose(theta, ref, rtol=0.0, atol=1e-9)

    def test_cell_past_the_domain_end_is_invalid_after_one_evaluation(self, newton_evaluations):
        # radial:1 with k = -0.1 folds at rho = 1/sqrt(0.3), where h = 2 rho / 3
        dist, rho = (-0.1,), 1.0 / math.sqrt(0.3)
        x, ok = _odd_poly_solve(dist, np.array([1.001 * 2.0 * rho / 3.0]), 1e9)
        assert len(newton_evaluations) == 1 and not ok.any()
        assert x[0] == _stationary_radius(dist)

    @pytest.mark.parametrize("name, seed", [("radial:1", 0), ("kb:4", 4)])
    def test_theta_max_at_a_stationary_fold_evaluates_once(self, name, seed, newton_evaluations):
        # the corner lies past the fold, so theta_max asks for r = h(fold), the
        # double root where Newton would converge only linearly
        drawn = rc.sample_spec_for_model(rc.parse_model(name), 480, np.random.default_rng(seed))
        spec = drawn.replace(fx=0.2 * drawn.fx, fy=0.2 * drawn.fy)
        kb = spec.model.family is rc.Family.KANNALA_BRANDT
        x = _stationary_radius(spec.dist)  # below the cap: the fold is stationary
        assert x < (_KB_THETA_CAP if kb else 1e9)
        assert _corner_norm_radius(spec) > _domain_radius(spec.model, spec.dist)
        fold = x if kb else math.atan(x)
        assert theta_max(spec) == pytest.approx(fold + 1e-9, rel=0.0, abs=1e-12)
        assert len(newton_evaluations) == 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class TestRoundTripInvariants:
    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_project_unproject_grid(self, name, rng):
        # 32 x 32 pixel grid strictly inside the image round-trips to 1e-9 px
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        u = np.linspace(1.0, spec.width - 1.0, 32)
        v = np.linspace(1.0, spec.height - 1.0, 32)
        uu, vv = np.meshgrid(u, v)
        px = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        rays = rc.unproject(spec, px)
        assert np.max(np.abs(np.linalg.norm(rays, axis=-1) - 1.0)) < 1e-12
        back = rc.project(spec, rays)
        assert np.max(np.linalg.norm(back - px, axis=-1)) < 1e-9

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_radial_monotonicity(self, name, rng):
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        thetas = np.linspace(1e-6, theta_max(spec) - 1e-9, 1000)
        prof = radial_profile(spec, thetas)
        assert np.all(np.isfinite(prof))
        assert np.all(np.diff(prof) > 0)

    def test_kb_zero_coefficients_is_equidistant(self):
        # Newton unprojection must agree with the closed-form theta = r map
        model = rc.parse_model("kb:4")
        spec = rc.CameraSpec(model, 200.0, 200.0, 320.0, 240.0, (0.0, 0.0, 0.0, 0.0), 640, 480)
        px = np.array([[500.0, 300.0], [10.0, 470.0], [320.0, 0.0]])
        got = rc.unproject(spec, px)
        mx = (px[:, 0] - 320.0) / 200.0
        my = (px[:, 1] - 240.0) / 200.0
        r = np.hypot(mx, my)
        expected = np.stack(
            [np.sin(r) * mx / r, np.sin(r) * my / r, np.cos(r)], axis=-1
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# validity limits
# ---------------------------------------------------------------------------


class TestMinFocal:
    def test_nonnegative_radial_coefficient_unconstrained(self):
        assert rc.min_focal(rc.parse_model("radial:1"), (0.1,), 480, 480) == 0.0

    def test_eucm_alpha_half_unconstrained(self):
        assert rc.min_focal(rc.parse_model("eucm"), (0.5, 1.0), 480, 480) == 0.0

    def test_radial_negative_coefficient_formula(self):
        # independent evaluation: rho_max = 1/sqrt(3|k|), f_min = r_im/(rho_max(1+k rho_max^2))
        k = -0.1
        rho_max = 1.0 / math.sqrt(-3.0 * k)
        expected = (0.5 * 480.0 * math.sqrt(2.0)) / (rho_max * (1.0 + k * rho_max**2))
        got = rc.min_focal(rc.parse_model("radial:1"), (k,), 480, 480)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_clamp_marks_injectivity_boundary(self):
        # the pixel radius profile is strictly increasing up to the image
        # corner at f slightly above the clamp and folds below it
        k = -0.1
        model = rc.parse_model("radial:1")
        f_min = rc.min_focal(model, (k,), 480, 480)
        r_im = 0.5 * math.hypot(480, 480)
        for factor, expect_monotone in ((1 + 1e-6, True), (1 - 1e-3, False)):
            spec = rc.CameraSpec(model, f_min * factor, f_min * factor, 240, 240, (k,), 480, 480)
            thetas = np.linspace(1e-4, math.pi / 2 - 1e-6, 4000)
            prof = radial_profile(spec, thetas)
            if expect_monotone:
                # strictly increasing on the prefix up to the corner radius
                end = int(np.argmax(prof >= r_im)) or len(prof)
                assert np.all(np.diff(prof[: end + 1]) > 0)
            else:
                # the profile folds before ever reaching the corner radius
                assert np.any(np.diff(prof) < 0) and np.nanmax(prof) < r_im

    def test_unconstrained_families_return_zero(self):
        assert rc.min_focal(rc.parse_model("pinhole"), (), 480, 480) == 0.0
        assert rc.min_focal(rc.parse_model("kb:2"), (0.1, 0.0), 480, 480) == 0.0
        assert rc.min_focal(rc.parse_model("ucm"), (0.9,), 480, 480) == 0.0
        assert rc.min_focal(rc.parse_model("division:1"), (-0.2,), 480, 480) == 0.0


def square_spec(name: str, dist: tuple, f: float, size: int = 64) -> rc.CameraSpec:
    return rc.CameraSpec(rc.parse_model(name), f, f, size / 2, size / 2, dist, size, size)


# cameras whose 64 x 64 image corner lies past the end of their domain
FOLDED = [
    ("kb:1", (-0.11021,), 22.02),
    ("kb:1", (-0.3,), 10.0),
    ("radial:1", (-0.1,), 18.0),
    ("radial:1", (-0.02,), 4.0),
    ("ucm", (1.5,), 10.0),
    ("ucm", (3.0,), 5.0),
]


class TestDomainRadius:
    @pytest.mark.parametrize(
        "name, dist",
        [
            ("radial:1", (-0.1,)),
            ("radial:2", (0.05, -0.2)),
            ("kb:1", (-0.3,)),
            ("kb:2", (0.05, 0.01)),  # monotone: ends at the polar angle cap
            ("ucm", (1.5,)),
            ("eucm", (0.7, 1.2)),
            ("division:1", (0.3,)),
            ("division:2", (0.1, 0.05)),
        ],
    )
    def test_unprojection_ends_at_the_domain_radius(self, name, dist):
        model = rc.parse_model(name)
        r = _domain_radius(model, dist)
        unit = rc.CameraSpec(model, 1.0, 1.0, 0.0, 0.0, dist, 1, 1)
        _, ok = rc.unproject_masked(unit, np.array([[(1 - 1e-6) * r, 0.0], [(1 + 1e-6) * r, 0.0]]))
        assert ok.tolist() == [True, False]

    @pytest.mark.parametrize(
        "name, dist",
        [("ucm", (1.249,)), ("ucm", (3.324,)), ("eucm", (0.55, 1.8)), ("eucm", (1.0, 3.0)),
         ("division:1", (0.3,)), ("division:2", (0.1, 0.05))],
    )
    def test_validity_is_the_domain_radius_on_a_ring(self, name, dist, rng):
        # pixels within 3 ulps of the image end, in every direction: a pixel
        # unprojects exactly when its normalized radius is at most the end
        model = rc.parse_model(name)
        spec = rc.CameraSpec(model, 37.3, 41.9, 31.7, 29.2, dist, 64, 64)
        end = _domain_radius(model, dist)
        radius = end * (1.0 + rng.integers(-3, 4, 2000) * np.finfo(float).eps)
        phi = rng.uniform(0.0, 2.0 * math.pi, 2000)
        px = np.stack([spec.cx + spec.fx * radius * np.cos(phi),
                       spec.cy + spec.fy * radius * np.sin(phi)], axis=-1)
        _, ok = rc.unproject_masked(spec, px)
        r = np.hypot((px[:, 0] - spec.cx) / spec.fx, (px[:, 1] - spec.cy) / spec.fy)
        assert 0 < np.count_nonzero(ok) < len(ok)
        np.testing.assert_array_equal(ok, r <= end)

    @pytest.mark.parametrize(
        "name, dist",
        [("pinhole", ()), ("radial:1", (0.1,)), ("ucm", (0.9,)), ("ucm", (1.0,)),
         ("eucm", (0.4, 1.0)), ("division:1", (-0.2,)),
         # out of bounds, where the root's argument never reaches 0
         ("eucm", (0.7, 0.0)), ("eucm", (0.7, -1.0))],
    )
    def test_unbounded_domains(self, name, dist):
        assert _domain_radius(rc.parse_model(name), dist) == math.inf

    @pytest.mark.parametrize(
        "name, dist, f, scale",
        [(*case, 1.0) for case in FOLDED]
        + [(name, None, None, scale) for name in ALL_MODEL_STRINGS for scale in (1.0, 0.2)],
    )
    def test_theta_max_makes_one_unprojection(self, name, dist, f, scale, monkeypatch):
        if dist is None:  # a drawn camera, at its own focal or a fifth of it
            spec = rc.sample_spec_for_model(rc.parse_model(name), 64, np.random.default_rng(5))
            dist, f = spec.dist, spec.fx * scale
        calls = []
        unproject_cells = raycalib.models._unproject_cells

        def counted(*args, **kwargs):
            calls.append(args)
            return unproject_cells(*args, **kwargs)

        monkeypatch.setattr(raycalib.models, "_unproject_cells", counted)
        theta_max(square_spec(name, dist, f))
        assert len(calls) == 1

    def test_folded_kb_passes_validate_spec_beyond_its_domain(self):
        # validate_spec clamps only radial and eucm; this kb camera images up
        # to its fold, and the sampler, which keeps every corner inside the
        # domain, never returns it
        spec = square_spec(*FOLDED[0])
        assert rc.validate_spec(spec).ok
        assert _corner_norm_radius(spec) > _domain_radius(spec.model, spec.dist)
        fold = 1.0 / math.sqrt(3 * 0.11021)
        assert theta_max(spec) == pytest.approx(fold + 1e-9, rel=0.0, abs=1e-9)


class TestValidateSpec:
    def test_valid_pinhole(self):
        assert rc.validate_spec(pinhole_spec()).ok

    def test_eucm_alpha_out_of_bounds(self):
        spec = rc.CameraSpec(rc.parse_model("eucm"), 400, 400, 240, 240, (1.2, 1.0), 480, 480)
        report = rc.validate_spec(spec)
        assert not report.ok
        assert any("alpha" in v for v in report.violations)

    def test_radial_focal_below_clamp(self):
        model = rc.parse_model("radial:1")
        f_min = rc.min_focal(model, (-0.1,), 480, 480)
        bad = rc.CameraSpec(model, 0.9 * f_min, 0.9 * f_min, 240, 240, (-0.1,), 480, 480)
        good = rc.CameraSpec(model, 1.01 * f_min, 1.01 * f_min, 240, 240, (-0.1,), 480, 480)
        assert not rc.validate_spec(bad).ok
        assert rc.validate_spec(good).ok

    def test_negative_xi_rejected(self):
        spec = rc.CameraSpec(rc.parse_model("ucm"), 400, 400, 240, 240, (-0.1,), 480, 480)
        assert not rc.validate_spec(spec).ok

    def test_nonpositive_focal_rejected(self):
        spec = pinhole_spec(f=240.0).replace(fx=-1.0)
        assert not rc.validate_spec(spec).ok

    @pytest.mark.parametrize(
        "name, change, violation",
        [("pinhole", {"fy": 0.0}, "fy must be positive, got 0.0"),
         ("pinhole", {"width": 0}, "image size must be positive"),
         ("eucm", {"dist": (0.6, -1.0)}, "beta must be > 0, got -1.0"),
         ("eucm", {"dist": (0.6, 0.0)}, "beta must be > 0, got 0.0"),
         ("radial:1", {"dist": (math.nan,)}, "k1 must be finite, got nan"),
         ("kb:2", {"dist": (math.inf, 0.0)}, "k1 must be finite, got inf"),
         ("ucm", {"dist": (math.nan,)}, "xi must be >= 0, got nan"),
         ("eucm", {"dist": (0.6, math.nan)}, "beta must be > 0, got nan"),
         ("division:1", {"dist": (math.nan,)}, "k1 must be finite, got nan"),
         ("pinhole", {"cx": math.nan}, "cx must be finite, got nan")],
        ids=["fy-0", "width-0", "beta-negative", "beta-0", "radial-k1-nan", "kb-k1-inf",
             "ucm-xi-nan", "eucm-beta-nan", "division-k1-nan", "pinhole-cx-nan"],
    )
    def test_each_violation_is_reported(self, name, change, violation):
        dist = {"eucm": (0.6, 1.1), "ucm": (0.8,), "kb:2": (0.01, 0.0), "radial:1": (-0.1,),
                "division:1": (-0.1,)}.get(name, ())
        spec = rc.CameraSpec(rc.parse_model(name), 400, 400, 240, 240, dist, 480, 480)
        assert rc.validate_spec(spec).ok
        assert rc.validate_spec(spec.replace(**change)).violations == (violation,)

    @pytest.mark.parametrize("name, dist, coefficient", [
        ("eucm", (1.2, 1.0), "alpha"), ("eucm", (0.6, 0.0), "beta"), ("ucm", (-0.1,), "xi"),
        ("kb:2", (math.nan, 0.0), "k1")],
        ids=["eucm-alpha-above-1", "eucm-beta-0", "ucm-xi-negative", "kb-k1-nan"])
    def test_spec_outside_its_box_does_not_unproject(self, name, dist, coefficient):
        # with alpha > 1 the eucm denominator alpha * root + 1 - alpha changes
        # sign inside the image, so no rays there are the model's: a
        # unprojection that floored it flagged 904 of these 4,096 cells valid
        spec = rc.CameraSpec(rc.parse_model(name), 20.0, 20.0, 32.0, 32.0, dist, 64, 64)
        with pytest.raises(ValueError, match=f"{coefficient} must be"):
            rc.unproject_masked(spec, pixel_centers(64, 64))


class TestSpecSerialization:
    @pytest.mark.parametrize("name", ["pinhole", "kb:3", "eucm"])
    def test_dict_round_trip(self, name, rng):
        spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
        assert rc.CameraSpec.from_dict(spec.to_dict()) == spec


class TestRayAngle:
    def test_bit_identical_to_stacked_formula(self, rng):
        # arbitrary pairs plus near-parallel ones, the usual case in scoring
        p = random_unit_rays(rng, 4000, math.pi)
        near = p + rng.normal(0.0, 1e-3, p.shape)
        q = np.concatenate([random_unit_rays(rng, 2000, math.pi), near[2000:]])
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        stacked = np.arctan2(np.linalg.norm(np.cross(p, q), axis=-1), np.sum(p * q, axis=-1))
        assert np.array_equal(_ray_angle(p, q), stacked)
