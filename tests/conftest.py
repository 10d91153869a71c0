"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import raycalib as rc
from raycalib.fit import _spec_of, residual_jacobian

ALL_MODEL_STRINGS = [
    "pinhole",
    "radial:1",
    "radial:2",
    "radial:3",
    "radial:4",
    "kb:1",
    "kb:2",
    "kb:3",
    "kb:4",
    "ucm",
    "eucm",
    "division:1",
    "division:2",
    "division:3",
]

# distortion coefficients are drawn from zero-centered laws, so a pure
# relative comparison degenerates when a true coefficient lands near zero;
# deviations on such coefficients are measured against this absolute floor
DIST_FLOOR = 1e-3


def param_errors(got: rc.CameraSpec, want: rc.CameraSpec) -> dict[str, float]:
    errs = {
        "fx": abs(got.fx - want.fx) / want.fx,
        "fy": abs(got.fy - want.fy) / want.fy,
        "cx": abs(got.cx - want.cx) / max(abs(want.cx), 1.0),
        "cy": abs(got.cy - want.cy) / max(abs(want.cy), 1.0),
    }
    for n, (g, w) in enumerate(zip(got.dist, want.dist), start=1):
        errs[f"k{n}"] = abs(g - w) / max(abs(w), DIST_FLOOR)
    return errs


def max_param_error(got: rc.CameraSpec, want: rc.CameraSpec) -> float:
    return max(param_errors(got, want).values())


def recovery_error(got: rc.CameraSpec, want: rc.CameraSpec) -> float:
    """Criterion 1's error of a noise-free fit, held to 1e-6: the largest
    parameter error, with the extended unified model's focal and (alpha,
    beta) allowed 1e-3 and 1e-4 (its proxy-focal stage is not exact)."""
    errs = param_errors(got, want)
    if got.model.family is rc.Family.EUCM:
        return max(errs["fx"] / 1e-3, errs["fy"] / 1e-3, errs["cx"], errs["cy"],
                   errs["k1"] / 1e-4, errs["k2"] / 1e-4) * 1e-6
    return max(errs.values())


def centered_spec(model_str: str, fov_deg: float, size: int, dist=()) -> rc.CameraSpec:
    """Centered square spec with the focal solved from the field of view."""
    model = rc.parse_model(model_str)
    f = rc.focal_from_fov(model, tuple(dist), fov_deg, size)
    f_min = rc.min_focal(model, tuple(dist), size, size)
    f = max(f, f_min * (1 + 1e-6))
    return rc.CameraSpec(
        model=model,
        fx=f,
        fy=f,
        cx=size / 2.0,
        cy=size / 2.0,
        dist=tuple(dist),
        width=size,
        height=size,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_rays(rng: np.random.Generator, n: int, theta_max: float) -> np.ndarray:
    """Uniform-azimuth rays with polar angle uniform in (0, theta_max)."""
    theta = rng.uniform(0.0, theta_max, n)
    az = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack(
        [np.sin(theta) * np.cos(az), np.sin(theta) * np.sin(az), np.cos(theta)],
        axis=-1,
    )


# each oracle column is stepped so that the residuals move by about this
# many radians.  One relative step for every column leaves a column as flat as
# radial:4's k4 (2e-6 rad per unit) to the quotient's roundoff and a steep
# kb:3 column to its truncation error.  A move of 1e-6 rad still leaves the
# small nonzero residuals of a perturbed spec to their roundoff: on
# TestJacobians' division:3 camera its cy column reads 1.1e-5 against the
# analytic Jacobian, 2.6e-7 at 1e-5 rad, 2.2e-8 at 1e-4 rad and 1.9e-9 with a
# five-point difference at 1e-3 rad, an error that falls as the step grows.
_ORACLE_MOVE = 1e-5


def residual_jacobian_numeric(
    spec: rc.CameraSpec,
    pixels: np.ndarray,
    targets: np.ndarray,
    kappa: np.ndarray,
    free_idx: np.ndarray,
) -> np.ndarray:
    """Central-difference oracle for ``residual_jacobian``: (n, 2, len(kappa)).

    Parameter j is stepped by ``_ORACLE_MOVE`` / s_j, where s_j is the largest
    entry of its column in a pilot difference at the step
    1e-6 max(1, |kappa_j|).  Columns outside ``free_idx`` stay zero.
    """

    def column(j: int, h: float) -> np.ndarray:
        kp, km = kappa.copy(), kappa.copy()
        kp[j] += h
        km[j] -= h
        _, ep = residual_jacobian(_spec_of(spec, kp), pixels, targets)
        _, em = residual_jacobian(_spec_of(spec, km), pixels, targets)
        return (ep - em) / (2.0 * h)

    J = np.zeros((len(pixels), 2, len(kappa)))
    for j in free_idx:
        pilot = column(j, 1e-6 * max(1.0, abs(float(kappa[j]))))
        J[:, :, j] = column(j, _ORACLE_MOVE / max(float(np.abs(pilot).max()), 1e-12))
    return J
