"""Model-agnostic metric tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

import raycalib as rc
from raycalib.metrics import _grid_errors

from conftest import centered_spec


def pinhole(f, size=480, c=None):
    c = c or (size / 2, size / 2)
    return rc.CameraSpec(rc.parse_model("pinhole"), f, f, c[0], c[1], (), size, size)


class TestAngularError:
    def test_zero_for_identical_specs(self):
        s = pinhole(500.0)
        assert rc.angular_error(s, s, grid_stride=8) == 0.0

    def test_matches_brute_force(self):
        # oracle: naive double loop with explicit arccos of dot products over
        # the same strided grid (centers at ((i + 0.5) s, (j + 0.5) s))
        gt, est = pinhole(500.0, 64), pinhole(550.0, 64)
        got = rc.angular_error(gt, est, grid_stride=4)
        total, count = 0.0, 0
        for j in range(16):
            for i in range(16):
                px = np.array([(i + 0.5) * 4.0, (j + 0.5) * 4.0])
                p = rc.unproject(gt, px)
                q = rc.unproject(est, px)
                total += math.degrees(math.acos(min(1.0, max(-1.0, float(p @ q)))))
                count += 1
        assert got == pytest.approx(total / count, abs=1e-10)

    def test_symmetry(self):
        gt, est = pinhole(500.0, 64), pinhole(540.0, 64)
        assert rc.angular_error(gt, est, 4) == pytest.approx(rc.angular_error(est, gt, 4), abs=1e-12)

    def test_conversion_residual_matches_grid_evaluation(self):
        # a fixed-focal conversion cannot represent the source exactly; the
        # reported error is nonzero and equals an independent grid average
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.06, 0.004))
        conv = rc.convert_model(spec, rc.parse_model("ucm"), fix_focal=True, stride=2)
        (ae, dropped), = _grid_errors(spec, conv, 8, reproj=False)
        assert ae > 0.0
        assert dropped == 0
        total, count = 0.0, 0
        for j in range(8):
            for i in range(8):
                px = np.array([(i + 0.5) * 8.0, (j + 0.5) * 8.0])
                p = rc.unproject(spec, px)
                q = rc.unproject(conv, px)
                total += math.degrees(math.acos(min(1.0, max(-1.0, float(p @ q)))))
                count += 1
        assert ae == pytest.approx(total / count, abs=1e-9)

    def test_size_mismatch_rejected(self):
        with pytest.raises(rc.DimensionMismatch):
            rc.angular_error(pinhole(500.0, 64), pinhole(500.0, 128))

    def test_estimate_that_unprojects_no_cell_raises(self):
        # ucm with xi = 3 unprojects only r <= 1 / sqrt(8) focal units; at
        # f = 1 every pixel centre lies at least 0.5 from the principal point
        est = rc.CameraSpec(rc.parse_model("ucm"), 1.0, 1.0, 32.0, 32.0, (3.0,), 64, 64)
        with pytest.raises(rc.EmptyInput, match="no grid cell is unprojectable"):
            rc.angular_error(pinhole(500.0, 64), est, grid_stride=4)


class TestReprojError:
    def test_zero_for_identical_specs(self):
        s = pinhole(500.0)
        assert rc.reproj_error(s, s, grid_stride=8) < 1e-9

    def test_matches_closed_form_ratio(self):
        # pinhole pair sharing the center: the reprojected radius scales by
        # f_est/f_gt, so the error at each pixel is |f_est/f_gt - 1| * r_c
        gt, est = pinhole(500.0, 64), pinhole(505.0, 64)
        got = rc.reproj_error(gt, est, grid_stride=4)
        u = (np.arange(16) + 0.5) * 4.0
        uu, vv = np.meshgrid(u, u)
        r_c = np.hypot(uu - 32.0, vv - 32.0)
        expected = np.mean(np.abs(505.0 / 500.0 - 1.0) * r_c)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_fit_output_reprojects_exactly(self, rng):
        spec = rc.sample_spec_for_model(rc.parse_model("kb:2"), 64, rng)
        est = rc.calibrate(rc.field_from_spec(spec), spec.model).spec
        assert rc.reproj_error(spec, est, grid_stride=2) < 1e-6

    def test_not_symmetric(self):
        gt = pinhole(500.0, 64)
        est = rc.CameraSpec(rc.parse_model("radial:1"), 480.0, 480.0, 32.0, 32.0, (0.08,), 64, 64)
        a = rc.reproj_error(gt, est, 4)
        b = rc.reproj_error(est, gt, 4)
        assert abs(a - b) > 1e-6

    def test_dropped_cells_counted(self):
        # an estimate with a much narrower valid cone drops border cells
        gt = centered_spec("eucm", 170.0, 64, dist=(0.7, 1.5))
        est = pinhole(32.0, 64)
        (_, dropped), = _grid_errors(gt, est, 1, angles=False)
        assert dropped > 0


class TestFovAgnostic:
    def test_pinhole_closed_form(self):
        h, v = rc.fov_agnostic(pinhole(240.0, 480))
        assert h == pytest.approx(90.0, abs=1e-12)
        assert v == pytest.approx(90.0, abs=1e-12)

    def test_off_center_asymmetric_halves(self):
        # oracle: direct arctangent of the two border offsets
        spec = pinhole(300.0, 480, c=(120.0, 240.0))
        h, _ = rc.fov_agnostic(spec)
        expected = math.degrees(math.atan(120.0 / 300.0) + math.atan(360.0 / 300.0))
        assert h == pytest.approx(expected, abs=1e-12)

    def test_eucm_sampled_range(self, rng):
        for _ in range(10):
            spec = rc.sample_spec_for_model(rc.parse_model("eucm"), 64, rng)
            h, v = rc.fov_agnostic(spec)
            assert 50.0 - 1e-6 <= v <= 180.0 + 1e-6
            assert h > 0.0

    def test_unprojectable_border_raises(self):
        model = rc.parse_model("radial:1")
        f_min = rc.min_focal(model, (-0.1,), 480, 480)
        bad = rc.CameraSpec(model, 0.5 * f_min, 0.5 * f_min, 240, 240, (-0.1,), 480, 480)
        with pytest.raises(rc.BorderUnprojectionFailed):
            rc.fov_agnostic(bad)


class TestAuc:
    def test_all_zero_errors(self):
        assert rc.auc([0.0, 0.0, 0.0]) == [100.0, 100.0, 100.0]

    def test_single_error_at_threshold(self):
        # only the final sweep point counts: 1/101 of full recall
        got = rc.auc([5.0], thresholds=(5.0,))
        assert got[0] == pytest.approx(100.0 / 101.0, abs=1e-9)

    def test_uniform_errors_give_half(self, rng):
        errors = rng.uniform(0.0, 10.0, 20000)
        got = rc.auc(errors, thresholds=(10.0,))
        assert got[0] == pytest.approx(50.0, abs=1.0)

    def test_monotone_in_threshold(self, rng):
        errors = rng.uniform(0.0, 12.0, 500)
        a1, a5, a10 = rc.auc(errors)
        assert a1 <= a5 <= a10

    def test_monotone_under_error_growth(self, rng):
        errors = rng.uniform(0.0, 6.0, 300)
        worse = errors.copy()
        worse[0] += 2.0
        for t_idx in range(3):
            assert rc.auc(worse)[t_idx] <= rc.auc(errors)[t_idx]

    def test_scale_equivariance(self, rng):
        errors = rng.uniform(0.0, 4.0, 400)
        a = rc.auc(errors, thresholds=(2.0,))
        b = rc.auc(errors * 3.0, thresholds=(6.0,))
        assert a[0] == pytest.approx(b[0], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(rc.EmptyInput):
            rc.auc([])


class TestEditedErrors:
    def test_identical(self):
        s = pinhole(500.0)
        assert rc.edited_errors(s, s) == (0.0, 0.0)

    def test_fx_off_by_ten_percent(self):
        gt = pinhole(500.0)
        est = gt.replace(fx=450.0)
        ef, ec = rc.edited_errors(gt, est)
        assert ef == pytest.approx(0.10, abs=1e-12)
        assert ec == 0.0

    def test_cx_off_by_eighth_width(self):
        gt = pinhole(500.0, 480)
        est = gt.replace(cx=gt.cx + 60.0)
        ef, ec = rc.edited_errors(gt, est)
        assert ef == 0.0
        assert ec == pytest.approx(0.25, abs=1e-12)
