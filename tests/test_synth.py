"""Synthetic generation tests: samplers, focal solving, noise, lens mapping."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import raycalib as rc
from raycalib.synth import (
    _distortion,
    _solve_radial1,
    _truncated_normal,
    load_lensfun_entry,
    parse_lensfun_xml,
)

from conftest import ALL_MODEL_STRINGS


class TestFocalFromFov:
    def test_pinhole_90_degrees(self):
        f = rc.focal_from_fov(rc.parse_model("pinhole"), (), 90.0, 480)
        assert f == pytest.approx(240.0, abs=1e-12)

    def test_eucm_180_degrees_closed_form(self):
        # at 180 degrees R = 1 and Z = 0, so r = 1/(alpha sqrt(beta)) and
        # f = (H/2) alpha sqrt(beta)
        alpha, beta = 0.6, 1.19
        f = rc.focal_from_fov(rc.parse_model("eucm"), (alpha, beta), 180.0, 480)
        assert f == pytest.approx(240.0 * alpha * math.sqrt(beta), rel=1e-12)

    def test_kb_polynomial(self):
        ks = (0.05, -0.002)
        half = math.radians(65.0)
        expected = 240.0 / (half + ks[0] * half**3 + ks[1] * half**5)
        f = rc.focal_from_fov(rc.parse_model("kb:2"), ks, 130.0, 480)
        assert f == pytest.approx(expected, rel=1e-12)

    def test_pinhole_cannot_reach_180(self):
        with pytest.raises(rc.FovOutOfRange):
            rc.focal_from_fov(rc.parse_model("pinhole"), (), 180.0, 480)

    def test_out_of_range_rejected(self):
        with pytest.raises(rc.FovOutOfRange):
            rc.focal_from_fov(rc.parse_model("pinhole"), (), 0.0, 480)
        with pytest.raises(rc.FovOutOfRange):
            rc.focal_from_fov(rc.parse_model("kb:1"), (0.1,), 361.0, 480)

    def test_inverts_fov_agnostic(self, rng):
        # mutual inverse for centered square specs of every family
        for name in ALL_MODEL_STRINGS:
            spec = rc.sample_spec_for_model(rc.parse_model(name), 64, rng)
            _, vfov = rc.fov_agnostic(spec)
            f = rc.focal_from_fov(spec.model, spec.dist, vfov, spec.height)
            assert f == pytest.approx(spec.fx, rel=1e-11), name

    @pytest.mark.parametrize("k_hat, fov, size", [(-0.3, 105.0, 480), (-0.25, 90.0, 64),
                                                  (-0.2, 100.0, 128)])
    def test_radial1_clamp_is_the_min_focal_fixed_point(self, k_hat, fov, size):
        model = rc.parse_model("radial:1")
        f, k = _solve_radial1(k_hat, fov, size)
        assert k == k_hat * f / size
        assert f > rc.focal_from_fov(model, (k,), fov, size)  # the clamp is active
        assert f == pytest.approx(-27.0 * k_hat * size / 8.0, rel=1e-12)
        assert f == pytest.approx(rc.min_focal(model, (k,), size, size), rel=1e-12)


class TestIntrinsicsSampler:
    def test_opp_always_pinhole_in_range(self):
        sampler = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPP, 64, 5))
        for spec in sampler.draw_many(50):
            assert spec.model.family is rc.Family.PINHOLE
            h, v = rc.fov_agnostic(spec)
            assert 20.0 - 1e-9 <= v <= 105.0 + 1e-9
            assert h == pytest.approx(v, abs=1e-9)

    def test_opg_mixture_frequencies(self):
        # 10^4 draws land within +-2% of the 34/33/33 mixture
        sampler = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPG, 64, 11))
        counts = {"pinhole": 0, "radial": 0, "eucm": 0}
        n = 10000
        for spec in sampler.draw_many(n):
            counts[spec.model.family.value] += 1
        assert counts["pinhole"] / n == pytest.approx(0.34, abs=0.02)
        assert counts["radial"] / n == pytest.approx(0.33, abs=0.02)
        assert counts["eucm"] / n == pytest.approx(0.33, abs=0.02)

    def test_radial_normalized_coefficient_in_bounds(self):
        sampler = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPR, 64, 3))
        for spec in sampler.draw_many(200):
            k_hat = spec.dist[0] * spec.height / spec.fx
            assert -0.3 - 1e-9 <= k_hat <= 0.3 + 1e-9

    def test_opr_draws_hit_their_fov_and_khat(self):
        # a mirror of the stream gives each draw's (FoV, khat); every camera
        # whose focal was not raised to min_focal meets both
        n_checked = 0
        for seed in range(5):
            sampler = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPR, 64, seed))
            mirror = np.random.default_rng(seed)
            for _ in range(40):
                spec = sampler.draw()
                fov = mirror.uniform(20.0, 105.0)
                k_hat = _truncated_normal(mirror, 0.07, 0.3)
                assert sampler.rng.bit_generator.state == mirror.bit_generator.state
                if spec.fx <= rc.min_focal(spec.model, spec.dist, 64, 64) * (1 + 1e-4):
                    continue
                _, vfov = rc.fov_agnostic(spec)
                assert vfov == pytest.approx(fov, abs=1e-9)
                assert spec.dist[0] * spec.height / spec.fx == pytest.approx(k_hat, abs=1e-12)
                n_checked += 1
        assert n_checked >= 150

    def test_all_sampled_specs_validate(self):
        for kind in rc.DatasetKind:
            sampler = rc.IntrinsicsSampler(rc.SamplerConfig(kind, 64, 17))
            for spec in sampler.draw_many(50):
                assert rc.validate_spec(spec).ok

    def test_empirical_fov_inside_configured_range(self):
        sampler = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPG, 64, 23))
        for spec in sampler.draw_many(100):
            _, vfov = rc.fov_agnostic(spec)
            if spec.model.family is rc.Family.EUCM:
                assert 50.0 - 1e-6 <= vfov <= 180.0 + 1e-6
            else:
                assert 20.0 - 1e-6 <= vfov <= 105.0 + 1e-6

    def test_determinism(self):
        a = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPD, 64, 99)).draw_many(20)
        b = rc.IntrinsicsSampler(rc.SamplerConfig(rc.DatasetKind.OPD, 64, 99)).draw_many(20)
        assert a == b

    def test_sample_intrinsics_is_first_draw(self):
        cfg = rc.SamplerConfig(rc.DatasetKind.OPG, 64, 123)
        assert rc.sample_intrinsics(cfg) == rc.IntrinsicsSampler(cfg).draw()


class TestAddNoise:
    def test_zero_sigma_identity(self, rng):
        f = rc.FovField(theta=rng.uniform(-1, 1, (8, 8, 2)))
        g = rc.add_noise(f, 0.0, seed=1)
        np.testing.assert_array_equal(f.theta, g.theta)

    def test_noise_statistics(self):
        # 10^6 cells: the realized standard deviation lands within 1%
        f = rc.FovField(theta=np.zeros((1000, 1000, 2)))
        g = rc.add_noise(f, 0.5, seed=42)
        sd = math.degrees(np.std(g.theta - f.theta))
        assert sd == pytest.approx(0.5, rel=0.01)

    def test_seed_determinism(self, rng):
        f = rc.FovField(theta=rng.uniform(-0.5, 0.5, (32, 32, 2)))
        a = rc.add_noise(f, 0.7, seed=9)
        b = rc.add_noise(f, 0.7, seed=9)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            rc.add_noise(rc.FovField(theta=np.zeros((4, 4, 2))), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            rc.add_noise(rc.FovField(theta=np.zeros((16, 16, 2))), sigma, seed=1)

    def test_cells_left_past_pi_raise(self):
        # at sigma = 1e4 deg a redraw lands below pi with probability 1.6e-4
        with pytest.raises(rc.ThetaOutOfDomain):
            rc.add_noise(rc.FovField(theta=np.zeros((16, 16, 2))), 1e4, seed=1)

    def test_cells_stay_below_pi(self, rng):
        theta = rng.uniform(3.0, 3.13, (64, 64, 2)) / math.sqrt(2)
        f = rc.FovField(theta=theta)
        g = rc.add_noise(f, 3.0, seed=2)
        assert np.all(np.hypot(g.theta[..., 0], g.theta[..., 1]) < math.pi)


class TestEdits:
    def test_aspect_in_range_and_crop_bounded(self, rng):
        base = rc.sample_spec_for_model(rc.parse_model("pinhole"), 128, rng)
        for _ in range(30):
            edited = rc.sample_edit(base, rng)
            a = edited.fy / edited.fx
            assert 0.5 - 1e-6 <= a <= 2.0 + 1e-6
            assert rc.validate_spec(edited).ok

    def test_apply_edit_transform(self):
        spec = rc.CameraSpec(rc.parse_model("pinhole"), 100.0, 100.0, 32.0, 32.0, (), 64, 64)
        edited = rc.apply_edit(spec, 2.0, 0.5, 100, 20, 10.0, 3.0)
        assert edited.fx == 200.0 and edited.fy == 50.0
        assert edited.cx == 2 * 32.0 - 10.0 and edited.cy == 0.5 * 32.0 - 3.0
        assert (edited.width, edited.height) == (100, 20)


class TestLensfun:
    def test_identity_poly3_equidistant(self):
        entry = rc.LensfunEntry(
            model_kind="poly3", coefficients=(0.0,), focal_mm=8.0,
            sensor_width_mm=24.0, sensor_height_mm=24.0, projection="equidistant",
        )
        alpha, beta, focal_mm, residual = rc.lensfun_to_eucm(entry, grid_stride=2)
        assert residual < 0.2
        assert 0.0 <= alpha <= 1.0 and beta > 0.0
        assert focal_mm == pytest.approx(8.0, rel=0.02)

    def test_fitted_parameters_always_valid(self, rng):
        for kind, proj in (("poly3", "equisolid"), ("poly5", "stereographic"), ("ptlens", "equidistant")):
            n = {"poly3": 1, "poly5": 2, "ptlens": 3}[kind]
            entry = rc.LensfunEntry(
                model_kind=kind,
                coefficients=tuple(rng.uniform(-0.02, 0.02, n)),
                focal_mm=10.0,
                sensor_width_mm=36.0,
                sensor_height_mm=24.0,
                projection=proj,
            )
            alpha, beta, _, _ = rc.lensfun_to_eucm(entry, grid_stride=4)
            assert 0.0 <= alpha <= 1.0 and beta > 0.0

    def test_sensor_centre_cell_is_dropped(self):
        # stride 3 on a 36 x 24 mm sensor is an 85 x 57 grid, whose middle
        # cell sits on the sensor centre (rd = 0); it agrees with stride 2
        entry = rc.LensfunEntry(
            model_kind="fisheye_equidistant", coefficients=(), focal_mm=8.0,
            sensor_width_mm=36.0, sensor_height_mm=24.0,
        )
        got = rc.lensfun_to_eucm(entry, grid_stride=3)
        alpha, beta, focal_mm, _ = rc.lensfun_to_eucm(entry, grid_stride=2)
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(alpha, abs=1e-3)
        assert got[1] == pytest.approx(beta, abs=1e-3)
        assert got[2] == pytest.approx(focal_mm, rel=1e-4)
        assert got[3] < 0.05

    def test_equisolid_wide_angle_lands_near_published_point(self):
        # idealized stand-in for the published equisolid sample (the exact
        # database coefficients are an external input): the ideal geometry
        # maps within 0.06 of (alpha, beta) = (0.60, 1.19)
        entry = rc.LensfunEntry(
            model_kind="fisheye_equisolid", coefficients=(), focal_mm=8.0,
            sensor_width_mm=36.0, sensor_height_mm=24.0,
        )
        alpha, beta, _, residual = rc.lensfun_to_eucm(entry, grid_stride=2)
        assert alpha == pytest.approx(0.60, abs=0.06)
        assert beta == pytest.approx(1.19, abs=0.05)
        assert residual < 0.2

    @pytest.mark.parametrize(
        "kind, coeffs, rd, slope",
        [
            ("poly3", (0.05,),
             lambda r, k1: r * (1 - k1 + k1 * r * r),
             lambda r, k1: 1 - k1 + 3 * k1 * r * r),
            ("poly5", (0.04, -0.006),
             lambda r, k1, k2: r * (1 + k1 * r * r + k2 * r**4),
             lambda r, k1, k2: 1 + 3 * k1 * r * r + 5 * k2 * r**4),
            ("ptlens", (0.01, -0.03, 0.02),
             lambda r, a, b, c: r * (a * r**3 + b * r * r + c * r + 1 - a - b - c),
             lambda r, a, b, c: 4 * a * r**3 + 3 * b * r * r + 2 * c * r + 1 - a - b - c),
        ],
        ids=["poly3", "poly5", "ptlens"],
    )
    def test_distortion_matches_docstring(self, kind, coeffs, rd, slope):
        # distinct coefficients, so a swapped pair shows at the 1e-14 level
        entry = rc.LensfunEntry(kind, coeffs, 10.0, 36.0, 24.0)
        poly = _distortion(entry)
        r = np.linspace(0.0, 2.0, 50)
        np.testing.assert_allclose(poly(r), rd(r, *coeffs), rtol=1e-14, atol=0)
        np.testing.assert_allclose(poly.deriv()(r), slope(r, *coeffs), rtol=1e-14, atol=0)

    def test_orthographic_entries_map_to_valid_parameters(self):
        for kind, coeffs in (("poly3", (0.01,)), ("fisheye_orthographic", ())):
            entry = rc.LensfunEntry(
                kind, coeffs, 8.0, 36.0, 24.0, projection="orthographic"
            )
            alpha, beta, focal_mm, residual = rc.lensfun_to_eucm(entry, grid_stride=4)
            assert 0.0 <= alpha <= 1.0 and beta > 0.0
            assert focal_mm == pytest.approx(8.0, rel=0.02)
            assert residual < 0.2

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            rc.LensfunEntry("poly5", (0.01,), 8.0, 36.0, 24.0)

    def test_json_fov_deg_drops_cells(self, tmp_path):
        # an 8 mm equidistant lens on 36 x 24 mm sees out to 155 degrees at
        # the corners; a rated FoV leaves the cells beyond it out of the fit
        entry = {"model_kind": "fisheye_equidistant", "focal_mm": 8.0,
                 "sensor_width_mm": 36.0, "sensor_height_mm": 24.0}
        results = []
        for fov in (None, 120.0, 0.5):
            path = tmp_path / f"entry_{fov}.json"
            path.write_text(json.dumps(entry if fov is None else {**entry, "fov_deg": fov}))
            loaded = load_lensfun_entry(path)
            assert loaded.fov_deg == (180.0 if fov is None else fov)
            if fov == 0.5:
                with pytest.raises(rc.DegenerateGeometry):
                    rc.lensfun_to_eucm(loaded, grid_stride=4)
            else:
                results.append(rc.lensfun_to_eucm(loaded, grid_stride=4))
        assert results[0] != results[1]

    def test_xml_file_loading(self, tmp_path):
        rectilinear = """<lens><type>rectilinear</type><cropfactor>1.0</cropfactor></lens>"""
        fisheye = """<lens><type>fisheye</type><cropfactor>1.0</cropfactor><calibration>
            <distortion model="poly3" focal="8" k1="-0.01"/>
            <distortion model="poly5" focal="8" k1="0.01" k2="0.001"/>
          </calibration></lens>"""
        path = tmp_path / "lenses.xml"
        path.write_text(f"<lensdatabase>{rectilinear}{fisheye}</lensdatabase>")
        entry = load_lensfun_entry(path)
        assert (entry.model_kind, entry.projection) == ("poly3", "equidistant")
        assert entry.coefficients == (-0.01,) and entry.focal_mm == 8.0
        path.write_text(f"<lensdatabase>{rectilinear}</lensdatabase>")
        with pytest.raises(rc.UnsupportedFamily):
            load_lensfun_entry(path)

    def test_unsupported_kind_rejected(self):
        with pytest.raises(rc.UnsupportedFamily):
            rc.LensfunEntry(
                model_kind="acm", coefficients=(), focal_mm=8.0,
                sensor_width_mm=36.0, sensor_height_mm=24.0,
            )

    @pytest.mark.parametrize("field", ["focal_mm", "sensor_width_mm", "sensor_height_mm"])
    @pytest.mark.parametrize("value", [0.0, -8.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_size_rejected(self, field, value):
        sizes = {"focal_mm": 8.0, "sensor_width_mm": 36.0, "sensor_height_mm": 24.0}
        with pytest.raises(ValueError, match=field):
            rc.LensfunEntry("poly3", (0.01,), **{**sizes, field: value})

    def test_distortion_row_without_focal_skipped(self, tmp_path):
        no_focal = '<distortion model="poly3" k1="0.01"/>'
        good = '<distortion model="poly5" focal="10" k1="0.01" k2="-0.002"/>'
        lens = "<lens><type>fisheye</type><calibration>{}</calibration></lens>"
        assert parse_lensfun_xml(lens.format(no_focal)) == []
        path = tmp_path / "lenses.xml"
        path.write_text(lens.format(no_focal))
        with pytest.raises(rc.UnsupportedFamily):
            load_lensfun_entry(path)
        # the row with a focal survives its neighbour
        (entry,) = parse_lensfun_xml(lens.format(no_focal + good))
        assert entry.model_kind == "poly5" and entry.focal_mm == 10.0

    def test_xml_parsing(self):
        text = """<lensdatabase>
          <lens>
            <maker>Nikon</maker>
            <model>Fisheye 8mm</model>
            <type>fisheye-equisolid</type>
            <cropfactor>1.0</cropfactor>
            <calibration>
              <distortion model="poly3" focal="8" k1="-0.015"/>
            </calibration>
          </lens>
          <lens>
            <maker>Other</maker>
            <model>Rectilinear 50mm</model>
            <type>rectilinear</type>
            <cropfactor>1.0</cropfactor>
          </lens>
        </lensdatabase>"""
        entries = parse_lensfun_xml(text)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.model_kind == "poly3"
        assert entry.projection == "equisolid"
        assert entry.coefficients == (-0.015,)
        assert entry.focal_mm == 8.0
        assert entry.sensor_width_mm == pytest.approx(36.0)

    def test_xml_fisheye_without_distortion_and_poly_rows(self):
        text = """<lensdatabase>
          <lens>
            <type>fisheye-stereographic</type>
            <cropfactor>2.0</cropfactor>
            <focal>7.5</focal>
          </lens>
          <lens>
            <type>fisheye</type>
            <cropfactor>1.5</cropfactor>
          </lens>
          <lens>
            <type>equisolid</type>
            <calibration>
              <distortion model="poly5" focal="10" k1="0.01" k2="-0.002"/>
              <distortion model="ptlens" real-focal="12" focal="11" a="0.001" b="-0.01" c="0.02"/>
              <distortion model="acm" focal="10"/>
            </calibration>
          </lens>
        </lensdatabase>"""
        stereo, equidistant, poly5, ptlens = parse_lensfun_xml(text)
        # a fisheye type without calibration rows is its ideal projection
        assert (stereo.model_kind, stereo.projection) == ("fisheye_stereographic", "stereographic")
        assert stereo.coefficients == () and stereo.focal_mm == 7.5
        assert (stereo.sensor_width_mm, stereo.sensor_height_mm) == (18.0, 12.0)
        # with no focal given, the focal defaults to half the sensor width
        assert equidistant.model_kind == "fisheye_equidistant"
        assert equidistant.focal_mm == pytest.approx(12.0)
        assert (poly5.model_kind, poly5.projection) == ("poly5", "equisolid")
        assert poly5.coefficients == (0.01, -0.002) and poly5.focal_mm == 10.0
        # the real focal wins over the nominal one
        assert ptlens.model_kind == "ptlens" and ptlens.focal_mm == 12.0
        assert ptlens.coefficients == (0.001, -0.01, 0.02)

    def test_json_loading(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(
            '{"model_kind": "poly5", "coefficients": [0.01, -0.001], "focal_mm": 10,'
            ' "sensor_width_mm": 36, "sensor_height_mm": 24, "projection": "stereographic"}'
        )
        entry = load_lensfun_entry(path)
        assert entry.model_kind == "poly5"
        assert entry.projection == "stereographic"
