"""Property tests over cameras drawn by ``sample_spec_for_model``.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples and writes nothing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import raycalib as rc
from raycalib.fit import _params_of, residual_jacobian
from raycalib.models import (
    _corner_norm_radius,
    _domain_radius,
    pixel_centers,
    radial_profile,
    theta_max,
)

from conftest import ALL_MODEL_STRINGS, max_param_error, residual_jacobian_numeric

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=12)
SIZES = st.integers(48, 96)
SEEDS = st.integers(0, 2**32 - 1)


def draw_spec(name: str, size: int, seed: int) -> rc.CameraSpec:
    return rc.sample_spec_for_model(rc.parse_model(name), size, np.random.default_rng(seed))


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_unproject_project_round_trip(name, size, seed):
    spec = draw_spec(name, size, seed)
    px = pixel_centers(size, size).reshape(-1, 2)
    rays, ok = rc.unproject_masked(spec, px)
    assert ok.all()
    back, ok = rc.project_masked(spec, rays)
    assert ok.all()
    np.testing.assert_allclose(back, px, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_radial_profile_is_projected_x_offset(name, size, seed):
    spec = draw_spec(name, size, seed)
    theta = np.linspace(0.0, theta_max(spec), 65)[:-1]
    rays = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    px, ok = rc.project_masked(spec, rays)
    assert ok.all()
    np.testing.assert_allclose(
        radial_profile(spec, theta), px[:, 0] - spec.cx, rtol=1e-12, atol=1e-9 * spec.fx
    )


@pytest.mark.parametrize("name", [m for m in ALL_MODEL_STRINGS if m.startswith(("radial", "eucm"))])
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_validate_spec_switches_at_min_focal(name, size, seed):
    spec = draw_spec(name, size, seed)
    f_min = rc.min_focal(spec.model, spec.dist, size, size)
    assume(f_min > 0.0)  # the drawn camera folds somewhere
    assert rc.validate_spec(spec.replace(fx=1.001 * f_min, fy=1.001 * f_min)).ok
    below = rc.validate_spec(spec.replace(fx=0.999 * f_min, fy=0.999 * f_min))
    assert len(below.violations) == 1
    assert below.violations[0].startswith("focal below the injectivity clamp")


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_theta_max_is_the_corner_polar_angle(name, size, seed):
    spec = draw_spec(name, size, seed)
    X, Y, Z = rc.unproject(spec, np.array([0.0, 0.0]))
    assert theta_max(spec) == pytest.approx(
        math.atan2(math.hypot(X, Y), Z) + 1e-9, rel=0.0, abs=1e-11
    )


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_log_exp_round_trip_of_the_unprojected_grid(name, size, seed):
    spec = draw_spec(name, size, seed)
    rays = rc.unproject(spec, pixel_centers(size, size))
    np.testing.assert_allclose(rc.exp_map(rc.log_map(rays)), rays, rtol=0.0, atol=1e-12)
    field_rays = rc.exp_map(rc.field_from_spec(spec).theta)
    np.testing.assert_allclose(field_rays, rays, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_drawn_corner_lies_inside_the_domain(name, size, seed):
    spec = draw_spec(name, size, seed)
    assert _corner_norm_radius(spec) <= _domain_radius(spec.model, spec.dist)


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_residual_jacobian_matches_central_differences(name, size, seed):
    spec = draw_spec(name, size, seed)
    px = pixel_centers(size, size, stride=4).reshape(-1, 2)
    targets = rc.unproject(spec, px)
    Ja, _ = residual_jacobian(spec, px, targets)
    kappa = _params_of(spec)
    Jn = residual_jacobian_numeric(spec, px, targets, kappa, np.arange(len(kappa)))
    # criterion 4's rule: relative agreement on entries within two decades
    # of their column's largest, and a bounded column-scaled deviation
    colscale = np.maximum(np.abs(Jn).max(axis=(0, 1)), 1e-12)
    sig = np.abs(Jn) > 1e-2 * colscale
    assert (np.abs(Ja - Jn)[sig] / np.abs(Jn)[sig]).max() <= 1e-5
    assert (np.abs(Ja - Jn).max(axis=(0, 1)) / colscale).max() <= 1e-5


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_calibrate_recovers_the_drawn_spec(name, size, seed):
    # eucm included: refinement corrects its inexact kb:3 proxy focal on a
    # clean field
    spec = draw_spec(name, size, seed)
    got = rc.calibrate(rc.field_from_spec(spec), spec.model).spec
    assert max_param_error(got, spec) <= 1e-6
