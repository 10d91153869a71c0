"""Metamorphic contracts: a fit commutes with symmetries of the image, and a
conversion's round trip A -> B -> A fits B no worse than A does.

Such a contract needs no ground truth, so it catches a fit that stops short
of its minimum on one side only, which per-fixture recovery tests miss.
A mirror leaves every stage symmetric, so mirrored fits agree to roundoff.
A transposition (u <-> v) does not: stage 1 solves for (a, a cx, cy), which
is not symmetric in x and y, so the two fits start apart and agree only as
far as refinement's stop resolves them.  The extended unified model's
transposed fits end further apart than that (ROADMAP item 6).
"""

from __future__ import annotations

import numpy as np
import pytest

import raycalib as rc
from raycalib.fit import _GN_TAU

from conftest import ALL_MODEL_STRINGS

# Mirrored fits sum their cells in another order, so they agree to roundoff
# and not bit for bit.  The parameter bounds sit just above the largest gap
# measured over rng 100-102 and the three mirrors: 5.8e-12 on radial:4 and
# 7.0e-13 on kb:4, whose highest coefficients lie along flat directions of
# the cost where its roundoff moves them furthest, and 8.8e-14 elsewhere.
# The final costs agree within 2.5e-15 (eucm).
_PARAM_RTOL = {"radial:4": 6e-12, "kb:4": 8e-13}
_PARAM_RTOL_DEFAULT = 1e-13
_COST_RTOL = 3e-15


def _params(spec: rc.CameraSpec) -> np.ndarray:
    return np.array([spec.fx, spec.fy, spec.cx, spec.cy, *spec.dist])


def _noisy_fields(model: rc.ModelId):
    for seed in (100, 101, 102):
        spec = rc.sample_spec_for_model(model, 128, np.random.default_rng(seed))
        yield seed, rc.add_noise(rc.field_from_spec(spec), 0.5, seed=seed - 100)


@pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
def test_fit_commutes_with_mirrors(name):
    # mirroring in u maps u -> W - u and theta_x -> -theta_x (v and theta_y
    # likewise), so the mirrored field's fit is the fit with cx -> W - cx
    model = rc.parse_model(name)
    for seed, field in _noisy_fields(model):
        base = rc.calibrate(field, model)
        for flip_u, flip_v in ((True, False), (False, True), (True, True)):
            theta = field.theta.copy()
            if flip_u:
                theta = theta[:, ::-1]
                theta[..., 0] *= -1.0
            if flip_v:
                theta = theta[::-1]
                theta[..., 1] *= -1.0
            res = rc.calibrate(rc.FovField(theta=theta), model)
            s = res.spec
            back = s.replace(cx=s.width - s.cx if flip_u else s.cx,
                             cy=s.height - s.cy if flip_v else s.cy)
            want = _params(base.spec)
            gap = np.max(np.abs(_params(back) - want) / np.abs(want))
            assert gap <= _PARAM_RTOL.get(name, _PARAM_RTOL_DEFAULT), (seed, flip_u, flip_v)
            cost, cost_want = res.gn_costs[-1], base.gn_costs[-1]
            assert abs(cost - cost_want) <= _COST_RTOL * cost_want, (seed, flip_u, flip_v)
            assert (res.warning, res.active_bounds, res.dropped) == (
                base.warning, base.active_bounds, base.dropped)


# Refinement stops once the next step would move the fit by at most _GN_TAU
# standard errors, that is once it would remove at most tau^2 / (2 valid - k)
# of the cost.  The transposed fit starts elsewhere, so where the two stop is
# resolved no finer than that: their parameters may differ along flat
# directions of the cost (2.3e-4 relative on radial:2, well inside the
# stop), and are not compared; their final costs agree within the stop's
# resolution (measured: 1.2e-8 relative at most, on division:2, against a
# bound of about 3.1e-7).  The eucm fits end 3.3e-6 apart (ROADMAP item 6).
@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 6: transposed eucm fits stop 3.3e-6 apart in cost"))
    if n == "eucm" else n
    for n in ALL_MODEL_STRINGS
])
def test_fit_commutes_with_transposition(name):
    # transposing maps u <-> v and theta_x <-> theta_y, so the transposed
    # field's fit is the fit with fx <-> fy and cx <-> cy
    model = rc.parse_model(name)
    k = 4 + model.num_dist
    for seed, field in _noisy_fields(model):
        base = rc.calibrate(field, model)
        res = rc.calibrate(rc.FovField(theta=field.theta.transpose(1, 0, 2)[..., ::-1]), model)
        valid = field.width * field.height - base.dropped
        cost, cost_want = res.gn_costs[-1], base.gn_costs[-1]
        assert abs(cost - cost_want) <= _GN_TAU**2 / (2 * valid - k) * cost_want, seed
        assert (res.warning, res.active_bounds, res.dropped) == (
            base.warning, base.active_bounds, base.dropped), seed


# The round trip A -> B -> A (convert_model) on clean 128x128 cameras drawn
# with rng 200-202, each conversion at stride 4.  B cannot represent
# everything A images, and the way back cannot restore what was lost, so the
# two A cameras differ: each bound (angular_error, degrees) sits just above
# the largest gap measured, and pins the conversion's accuracy.  A pair whose
# two models image the same rays comes back to roundoff (pinhole -> ucm, with
# xi = 0).  Whatever B is, the way back fits B's grid at least as well as A
# does, since A is one of the cameras it chooses from: refinement stops
# within _GN_TAU standard errors of its optimum, at most
# tau^2 / (2 valid - k) above it in cost, and 1e-30 is its roundoff level.
_ROUND_TRIP_GAP_DEG = {
    ("ucm", "pinhole"): 8.5, ("ucm", "radial:1"): 1.3, ("ucm", "kb:2"): 2.7e-3,
    ("ucm", "division:1"): 0.038, ("eucm", "pinhole"): 8.6, ("eucm", "radial:1"): 14.0,
    ("eucm", "kb:2"): 0.019, ("eucm", "division:1"): 0.96, ("pinhole", "ucm"): 1e-13,
    ("radial:1", "ucm"): 3.6e-3, ("kb:2", "ucm"): 0.38, ("division:1", "ucm"): 0.040,
    ("pinhole", "eucm"): 1.6e-5, ("radial:1", "eucm"): 0.45, ("kb:2", "eucm"): 2.4e-3,
    ("division:1", "eucm"): 1.95,
}


@pytest.mark.parametrize("a, b", [
    pytest.param(a, b, id=f"{a}->{b}", marks=[pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 6: the eucm fit of the radial:1 camera stops at alpha = 0 on a "
               "singular step, at 40-94 times the cost of A")] if a == "eucm" and b == "radial:1"
        else [])
    for a, b in _ROUND_TRIP_GAP_DEG
])
def test_round_trip_comes_back(a, b):
    model_a, model_b = rc.parse_model(a), rc.parse_model(b)
    for seed in (200, 201, 202):
        spec = rc.sample_spec_for_model(model_a, 128, np.random.default_rng(seed))
        there = rc.convert_model(spec, model_b, stride=4)
        back = rc.convert_model(there, model_a, stride=4)
        corrs = rc.Correspondences.from_spec(there, 4)
        cost, cost_back = (rc.refine(s, corrs).gn_costs[0] for s in (spec, back))
        k = 4 + model_a.num_dist
        assert cost_back <= cost * (1.0 + _GN_TAU**2 / (2 * len(corrs) - k)) + 1e-30, seed
        assert rc.angular_error(spec, back, grid_stride=4) <= _ROUND_TRIP_GAP_DEG[a, b], seed
