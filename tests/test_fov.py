"""Tangent-plane map and field-container tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

import raycalib as rc
from raycalib.fileio import read_field, write_field, write_field_csv
from raycalib.models import _ray_angle, pixel_centers

from conftest import centered_spec


class TestLogMap:
    def test_base_point_maps_to_origin(self):
        np.testing.assert_allclose(rc.log_map(np.array([0.0, 0.0, 1.0])), [0.0, 0.0])

    def test_pure_x_rotation(self):
        ray = np.array([math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4)])
        np.testing.assert_allclose(rc.log_map(ray), [math.pi / 4, 0.0], atol=1e-15)

    def test_norm_is_polar_angle(self, rng):
        # oracle: the norm equals arccos of the z component
        v = rng.normal(size=(5000, 3))
        v[:, 2] = np.abs(v[:, 2]) + 0.05
        rays = v / np.linalg.norm(v, axis=-1, keepdims=True)
        theta2 = rc.log_map(rays)
        np.testing.assert_allclose(
            np.linalg.norm(theta2, axis=-1), np.arccos(rays[:, 2]), atol=1e-12
        )

    def test_antipode_rejected(self):
        with pytest.raises(rc.AntipodalRay):
            rc.log_map(np.array([0.0, 0.0, -1.0]))

    def test_rays_next_to_the_antipode_round_trip(self):
        # an equidistant kb:1 camera whose corner cells image the polar angle
        # pi - 1e-7, inside kb's domain (up to pi - 1e-9): their rays have
        # Z within 1e-12 of -1 but a defined direction
        f = math.hypot(31.5, 31.5) / (math.pi - 1e-7)
        spec = rc.CameraSpec(rc.parse_model("kb:1"), f, f, 32.0, 32.0, (0.0,), 64, 64)
        assert rc.validate_spec(spec)
        rays = rc.unproject(spec, pixel_centers(64, 64)).reshape(-1, 3)
        assert np.count_nonzero(rays[:, 2] <= -1.0 + 1e-12) == 4
        back = rc.exp_map(rc.field_from_spec(spec).theta).reshape(-1, 3)
        assert _ray_angle(back, rays).max() <= 1e-12


class TestExpMap:
    def test_origin_is_base_point(self):
        np.testing.assert_allclose(rc.exp_map(np.array([0.0, 0.0])), [0.0, 0.0, 1.0])

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            rc.exp_map(np.array([math.pi / 2, 0.0])), [1.0, 0.0, 0.0], atol=1e-15
        )

    def test_domain_boundary_rejected(self):
        with pytest.raises(rc.ThetaOutOfDomain):
            rc.exp_map(np.array([math.pi, 0.0]))

    def test_unit_norm(self, rng):
        theta2 = rng.uniform(-1.8, 1.8, size=(5000, 2))
        rays = rc.exp_map(theta2)
        np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-12)


class TestBijection:
    def test_log_of_exp_identity(self, rng):
        az = rng.uniform(0, 2 * np.pi, 10000)
        mag = rng.uniform(0, 3.0, 10000)
        theta2 = np.stack([mag * np.cos(az), mag * np.sin(az)], axis=-1)
        back = rc.log_map(rc.exp_map(theta2))
        assert np.max(np.abs(back - theta2)) < 1e-12

    def test_exp_of_log_identity(self, rng):
        v = rng.normal(size=(10000, 3))
        rays = v / np.linalg.norm(v, axis=-1, keepdims=True)
        rays = rays[rays[:, 2] > -1 + 1e-6]
        back = rc.exp_map(rc.log_map(rays))
        assert np.max(np.abs(back - rays)) < 1e-12

    def test_small_angle_branch_agreement(self):
        # the series branch (|theta| < 1e-6) and exact branch agree to 1e-12
        mags = np.concatenate(
            [np.geomspace(1e-12, 1e-6, 50), np.geomspace(1e-6, 1e-5, 10)]
        )
        theta2 = np.stack([mags, 0.3 * mags], axis=-1)
        rays = rc.exp_map(theta2)
        exact = np.stack(
            [
                np.sin(np.hypot(mags, 0.3 * mags)) / np.hypot(mags, 0.3 * mags) * mags,
                np.sin(np.hypot(mags, 0.3 * mags)) / np.hypot(mags, 0.3 * mags) * 0.3 * mags,
                np.cos(np.hypot(mags, 0.3 * mags)),
            ],
            axis=-1,
        )
        assert np.max(np.abs(rays - exact)) < 1e-12
        assert np.max(np.abs(rc.log_map(rays) - theta2)) < 1e-12


class TestFieldFromSpec:
    def test_center_cell_near_zero(self):
        spec = centered_spec("pinhole", 90.0, 480)
        f = rc.field_from_spec(spec)
        # cell centers straddle the principal point; the inner 2x2 block is
        # half a pixel away from the axis
        theta_center = f.theta[239:241, 239:241]
        assert np.max(np.abs(theta_center)) <= math.atan(0.5 * math.sqrt(2) / 240) + 1e-12
        # exact zero at the principal point itself
        np.testing.assert_allclose(
            rc.log_map(rc.unproject(spec, np.array([240.0, 240.0]))), [0, 0], atol=1e-15
        )

    def test_border_value_matches_arctangent(self):
        # oracle: closed-form pinhole unprojection plus arctangent
        spec = centered_spec("pinhole", 90.0, 480)
        ray = rc.unproject(spec, np.array([479.5, 240.0]))
        theta2 = rc.log_map(ray)
        assert theta2[0] == pytest.approx(math.atan(239.5 / 240.0), abs=1e-12)
        assert theta2[1] == pytest.approx(0.0, abs=1e-12)
        # the corresponding field cell sits half a pixel off the axis row
        f = rc.field_from_spec(spec)
        cell = f.theta[239, 479]
        expected = rc.log_map(rc.unproject(spec, np.array([479.5, 239.5])))
        np.testing.assert_allclose(cell, expected, atol=1e-15)

    def test_eucm_field_stays_below_pi(self):
        spec = centered_spec("eucm", 178.0, 128, dist=(0.6, 1.19))
        f = rc.field_from_spec(spec)
        norms = np.hypot(f.theta[..., 0], f.theta[..., 1])
        assert np.isfinite(norms).all() and norms.max() < math.pi

    def test_rescale_invariance(self):
        # doubling every length and striding by 2 reproduces the same values
        base = centered_spec("pinhole", 80.0, 64)
        doubled = rc.CameraSpec(
            base.model, 2 * base.fx, 2 * base.fy, 2 * base.cx, 2 * base.cy, (), 128, 128
        )
        f1 = rc.field_from_spec(base, stride=1)
        f2 = rc.field_from_spec(doubled, stride=2)
        np.testing.assert_allclose(f1.theta, f2.theta, atol=1e-14)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            rc.field_from_spec(centered_spec("pinhole", 60.0, 32), stride=0)

    def test_spec_below_min_focal_rejected(self):
        # at 0.6x its injectivity clamp the image corners lie past the fold
        spec = centered_spec("radial:1", 60.0, 64, dist=(-0.1,))
        f_min = rc.min_focal(spec.model, spec.dist, 64, 64)
        with pytest.raises(rc.NonInvertiblePixel):
            rc.field_from_spec(spec.replace(fx=0.6 * f_min, fy=0.6 * f_min))


class TestFieldFiles:
    def test_aff1_round_trip(self, tmp_path, rng):
        theta = rng.uniform(-1.5, 1.5, (13, 9, 2))
        f = rc.FovField(theta=theta)
        path = tmp_path / "field.aff1"
        write_field(path, f)
        back = read_field(path)
        assert back.theta.shape == (13, 9, 2)
        # values survive the f32 storage to f32 precision
        np.testing.assert_allclose(back.theta, theta, atol=2e-7)
        # header check
        raw = path.read_bytes()
        assert raw[:4] == b"AFF1"
        assert int.from_bytes(raw[4:8], "little") == 9
        assert int.from_bytes(raw[8:12], "little") == 13

    def test_csv_round_trip(self, tmp_path, rng):
        theta = rng.uniform(-1.0, 1.0, (6, 8, 2))
        path = tmp_path / "field.csv"
        write_field_csv(path, rc.FovField(theta=theta))
        back = read_field(path)
        np.testing.assert_allclose(back.theta, theta, atol=1e-12)

    def test_csv_nan_cell_reads_back_like_aff1(self, tmp_path):
        spec = centered_spec("kb:2", 100.0, 16, dist=(0.05, -0.01))
        theta = rc.field_from_spec(spec).theta.copy()
        theta[3, 5] = np.nan
        field = rc.FovField(theta=theta)
        write_field(tmp_path / "field.aff1", field)
        write_field_csv(tmp_path / "field.csv", field)
        aff1, csv = read_field(tmp_path / "field.aff1"), read_field(tmp_path / "field.csv")
        assert np.array_equal(np.isnan(csv.theta), np.isnan(aff1.theta))
        assert np.isnan(csv.theta[3, 5]).all() and np.count_nonzero(np.isnan(csv.theta)) == 2
        np.testing.assert_allclose(csv.theta, aff1.theta, atol=2e-7)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:5] + ["0.5,0.5,0.1"] + lines[5:],  # malformed record
            lambda lines: [],  # empty file
            lambda lines: lines[:7] + lines[8:],  # one cell without a record
        ],
        ids=["malformed", "empty", "missing-cell"],
    )
    def test_csv_defects_rejected(self, tmp_path, rng, edit):
        path = tmp_path / "field.csv"
        write_field_csv(path, rc.FovField(theta=rng.uniform(-1.0, 1.0, (4, 5, 2))))
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(rc.DimensionMismatch):
            read_field(path)

    @pytest.mark.parametrize(
        "edit, record",
        [
            (lambda lines: lines[:1] + ["-0.5,0.5,0.1,0.1"] + lines[2:], "-0.5,0.5,0.1,0.1"),
            (lambda lines: lines[:1] + ["1.2,0.5,0.1,0.1"] + lines[2:], "1.2,0.5,0.1,0.1"),
            (lambda lines: lines[:1] + ["inf,0.5,0.1,0.1"] + lines[2:], "inf,0.5,0.1,0.1"),
            (lambda lines: lines[:1] + ["1e300,0.5,0.1,0.1"] + lines[2:], None),
            (lambda lines: lines + ["2.5,1.5,0.1,0.1"], "2.5,1.5,0.1,0.1"),
            (lambda lines: lines[:1] + lines[2:] + ["1.5,0.5,0.1,0.1"], "1.5,0.5,0.1,0.1"),
        ],
        ids=["negative-u", "fractional-u", "infinite-u", "huge-u", "repeated-cell",
             "repeated-instead-of-another"],
    )
    def test_csv_records_off_the_cell_grid_rejected(self, tmp_path, rng, edit, record):
        # the first record is cell (0, 0) and the second cell (1, 0); every
        # defect is named with the file and, where one record is at fault, it
        path = tmp_path / "field.csv"
        write_field_csv(path, rc.FovField(theta=rng.uniform(-1.0, 1.0, (4, 5, 2))))
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
        with pytest.raises(rc.DimensionMismatch) as err:
            read_field(path)
        assert str(path) in str(err.value)
        assert record is None or repr(record) in str(err.value)

    def test_strided_field_reads_back_as_its_cell_grid(self, tmp_path, rng):
        # neither format stores the stride: both read back as the (W/s) x (H/s)
        # cell grid, stride 1
        field = rc.FovField(theta=rng.uniform(-1.0, 1.0, (3, 4, 2)), stride=2)
        write_field(tmp_path / "field.aff1", field)
        write_field_csv(tmp_path / "field.csv", field)
        aff1, csv = read_field(tmp_path / "field.aff1"), read_field(tmp_path / "field.csv")
        assert aff1.stride == csv.stride == 1 and csv.theta.shape == (3, 4, 2)
        np.testing.assert_allclose(csv.theta, field.theta, atol=1e-12)
        np.testing.assert_allclose(csv.theta, aff1.theta, atol=2e-7)
        first = (tmp_path / "field.csv").read_text().splitlines()[1]
        assert first.startswith("0.5,0.5,")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.aff1"
        path.write_bytes(b"AFF1" + (3).to_bytes(4, "little") + (3).to_bytes(4, "little") + b"\0" * 8)
        with pytest.raises(rc.DimensionMismatch):
            read_field(path)


class TestContainers:
    def test_field_shape_validation(self):
        with pytest.raises(rc.DimensionMismatch):
            rc.FovField(theta=np.zeros((4, 5)))

    def test_strided_field_dimensions(self):
        spec = centered_spec("pinhole", 70.0, 64)
        f = rc.field_from_spec(spec, stride=4)
        assert (f.grid_height, f.grid_width) == (16, 16)
        assert (f.width, f.height) == (64, 64)
        grid = f.pixel_grid()
        np.testing.assert_allclose(grid[0, 0], [2.0, 2.0])
        np.testing.assert_allclose(grid[-1, -1], [62.0, 62.0])
