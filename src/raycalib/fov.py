"""Tangent-plane FoV fields and their bijection with unit ray directions.

A FoV field stores, per pixel, the 2-vector theta = (theta_x, theta_y) of the
pixel's viewing ray expressed in the tangent plane of the unit sphere at the
optical axis z1 = [0, 0, 1].  The maps between rays and tangent vectors are

    log:  theta = (t / sin t) * (X, Y),   t = arccos(Z)
    exp:  p = [(sin t / t) * theta_x, (sin t / t) * theta_y, cos t],  t = |theta|

so |theta| equals the polar angle of the ray exactly.  Both maps switch to
their series limit below t = 1e-6, where the ratio t/sin(t) is 1 to double
precision.  The log map is defined for every ray but the antipode, where the
direction of theta is undefined (X = Y = 0 with Z < 0), and |theta| must
stay below pi for the exp map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalRay,
    DimensionMismatch,
    NonInvertiblePixel,
    ThetaOutOfDomain,
)
from .models import (
    CameraSpec,
    _grid_blocks,
    _unproject_cells,
    pixel_axes,
    pixel_centers,
)

_SERIES_CUTOVER = 1e-6


def log_map(rays: np.ndarray) -> np.ndarray:
    """Map unit rays (..., 3) to tangent-plane 2-vectors (..., 2).

    A ray next to the antipode keeps its direction: kb unprojection reaches
    polar angles up to pi - 1e-9.

    Raises:
        AntipodalRay: if any ray has X = Y = 0 with Z < 0.
    """
    rays = np.asarray(rays, dtype=np.float64)
    z = rays[..., 2]
    sin_theta = np.hypot(rays[..., 0], rays[..., 1])
    if np.any((sin_theta == 0.0) & (z < 0.0)):
        raise AntipodalRay("log map undefined at [0, 0, -1]")
    # atan2 keeps full precision near the axis, where arccos(z) loses
    # ~eps/theta absolute accuracy; both equal the polar angle
    theta = np.arctan2(sin_theta, z)
    small = theta < _SERIES_CUTOVER
    scale = np.where(
        small, 1.0, theta / np.where(small, 1.0, np.maximum(sin_theta, 1e-300))
    )
    return rays[..., :2] * scale[..., None]


def exp_map(theta2: np.ndarray) -> np.ndarray:
    """Map tangent-plane 2-vectors (..., 2) to unit rays (..., 3).

    Raises:
        ThetaOutOfDomain: if any |theta| >= pi.
    """
    theta2 = np.asarray(theta2, dtype=np.float64)
    t = np.hypot(theta2[..., 0], theta2[..., 1])
    if np.any(t >= np.pi):
        raise ThetaOutOfDomain("|theta| must be < pi")
    small = t < _SERIES_CUTOVER
    sinc = np.where(small, 1.0, np.sin(t) / np.where(small, 1.0, t))
    rays = np.empty(t.shape + (3,))
    np.multiply(theta2, sinc[..., None], out=rays[..., :2])
    np.cos(t, out=rays[..., 2])
    # the small-angle branch is off unit norm by O(t^4); renormalize once,
    # summing the squares in np.linalg.norm's order
    x, y, z = rays[..., 0], rays[..., 1], rays[..., 2]
    rays /= np.sqrt(x * x + y * y + z * z)[..., None]
    return rays


@dataclass(frozen=True)
class FovField:
    """Dense grid of tangent-plane 2-vectors, one per sampled pixel center.

    ``theta`` has shape (grid_h, grid_w, 2), row-major with the top-left cell
    first.  Cell (j, i) corresponds to pixel center ((i + 0.5) * stride,
    (j + 0.5) * stride); a stride of 1 (the default) makes the grid per-pixel
    for a width x height image.  The file formats store no stride, so a field
    read from a file has stride 1: a grid written at stride s (``eval
    --dump-per-pixel`` writes at its ``--stride``) reads back as a
    (W/s) x (H/s) field.
    """

    theta: np.ndarray
    stride: int = 1

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 3 or theta.shape[-1] != 2:
            raise DimensionMismatch(f"theta must be (h, w, 2), got {theta.shape}")
        object.__setattr__(self, "theta", theta)

    @property
    def grid_height(self) -> int:
        return self.theta.shape[0]

    @property
    def grid_width(self) -> int:
        return self.theta.shape[1]

    @property
    def width(self) -> int:
        return self.grid_width * self.stride

    @property
    def height(self) -> int:
        return self.grid_height * self.stride

    def pixel_grid(self) -> np.ndarray:
        """(h, w, 2) array of the pixel-center coordinates of each cell."""
        return pixel_centers(self.width, self.height, self.stride)


def _log_grid(spec: CameraSpec, stride: int) -> tuple[np.ndarray, int]:
    """The (h, w, 2) tangent vectors of a camera's pixel-center grid (NaN at
    every cell it cannot unproject) and the count of those cells, unprojected
    and log-mapped block by block (``_grid_blocks``)."""
    u, v = pixel_axes(spec.width, spec.height, stride)
    theta = np.full((len(v) * len(u), 2), np.nan)
    n_bad = 0
    for sl, px in _grid_blocks(u, v):
        # the per-cell state goes at once, not held while the block is log-mapped
        rays, ok = _unproject_cells(spec, px)[:2]
        n_bad += ok.size - int(np.count_nonzero(ok))
        if ok.all():  # a masked copy costs as much as the log map itself
            theta[sl] = log_map(rays)
        else:
            theta[sl][ok] = log_map(np.compress(ok, rays, axis=0))
    return theta.reshape(len(v), len(u), 2), n_bad


def field_from_spec(spec: CameraSpec, stride: int = 1) -> FovField:
    """Ground-truth FoV field of a camera, sampled at pixel centers
    (``_log_grid``).

    With ``stride`` > 1 every block of stride x stride pixels contributes one
    cell at its center, so the grid covers the same image extent at a coarser
    pitch.

    Raises:
        ValueError: if ``stride`` is below 1.
        NonInvertiblePixel: if any sampled pixel cannot be unprojected.
    """
    theta, n_bad = _log_grid(spec, stride)
    if n_bad:
        raise NonInvertiblePixel(f"{n_bad} grid pixels not invertible for {spec.model}")
    return FovField(theta=theta, stride=stride)
