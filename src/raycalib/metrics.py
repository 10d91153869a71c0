"""Model-agnostic evaluation of calibrations.

All comparisons run over a uniform grid of pixel centers so that cameras
expressed in different model families can be scored against each other:

- angular error: mean angle between the two unprojections of each pixel;
- reprojection error: ground-truth unprojections re-projected through the
  estimate, mean pixel distance to the original pixel;
- FoV: border rays through the principal point row/column, summed per side;
- AUC: recall-vs-threshold area, swept over 101 points per threshold;
- edited-image errors: infinity norms of the relative focal and principal
  point offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BorderUnprojectionFailed, DimensionMismatch, EmptyInput
from .models import (
    CameraSpec,
    _grid_blocks,
    _project_cells,
    _ray_angle,
    _unproject_cells,
    pixel_axes,
    theta_max,
    unproject_masked,
)

DEFAULT_AUC_THRESHOLDS = (1.0, 5.0, 10.0)


@dataclass(frozen=True)
class EvalReport:
    """Per-image evaluation record; all fields nonnegative, degrees/pixels/ratios."""

    ae_mean: float
    re_mean: float
    hfov_err: float
    vfov_err: float
    ef: float
    ec: float
    dropped_ae: int = 0
    dropped_re: int = 0

    # the error keys of ``to_dict``, in the order of report.json's medians
    # and report.csv's columns
    KEYS = ("ae_mean_deg", "re_mean_px", "hfov_err_deg", "vfov_err_deg", "ef", "ec")

    def to_dict(self) -> dict:
        errors = (self.ae_mean, self.re_mean, self.hfov_err, self.vfov_err, self.ef, self.ec)
        return {**dict(zip(self.KEYS, errors)),
                "dropped_ae": self.dropped_ae, "dropped_re": self.dropped_re}


def _check_same_size(gt: CameraSpec, est: CameraSpec) -> None:
    if (gt.width, gt.height) != (est.width, est.height):
        raise DimensionMismatch(
            f"image sizes differ: {gt.width}x{gt.height} vs {est.width}x{est.height}"
        )


def _grid_errors(
    gt: CameraSpec, est: CameraSpec, grid_stride: int, angles: bool = True, reproj: bool = True
) -> list[tuple[float, int]]:
    """Mean and dropped-cell count of each error asked for, in this order: the
    angle (degrees) between the two unprojections, and the pixel distance of
    the ground-truth ray re-projected through ``est``.

    The grid is scored block by block (``_grid_blocks``), with one
    ground-truth unprojection per block for both errors; each block's valid
    errors are appended to one array per error, so no whole-grid mask is
    held and each mean sums them in grid order.

    Raises:
        EmptyInput: if no cell has an error asked for.
    """
    _check_same_size(gt, est)
    u, v = pixel_axes(gt.width, gt.height, grid_stride)
    n = len(u) * len(v)
    ang = np.empty(n) if angles else None
    dist = np.empty(n) if reproj else None
    na = nr = 0  # valid cells of each error so far
    tmax = theta_max(est) if reproj else None
    for _, px in _grid_blocks(u, v):
        p, ok_g, _ = _unproject_cells(gt, px)
        if angles:
            q, ok_e, _ = _unproject_cells(est, px)
            kept = np.compress(ok_g & ok_e, np.degrees(_ray_angle(p, q)))
            ang[na : na + len(kept)] = kept
            na += len(kept)
        if reproj:
            pu, pv, ok_e = _project_cells(est, p, tmax)
            du, dv = pu - px[:, 0], pv - px[:, 1]
            kept = np.compress(ok_g & ok_e, np.sqrt(du * du + dv * dv))
            dist[nr : nr + len(kept)] = kept
            nr += len(kept)
    out = []
    for err, valid, empty in (
        (ang, na, "no grid cell is unprojectable under both cameras"),
        (dist, nr, "no grid cell survives the reprojection round trip"),
    ):
        if err is not None:
            if not valid:
                raise EmptyInput(empty)
            out.append((float(np.mean(err[:valid])), n - valid))
    return out


def angular_error(
    gt: CameraSpec, est: CameraSpec, grid_stride: int = 1
) -> float:
    """Mean angle (degrees) between the two unprojections over the pixel grid.

    Pixels that either camera cannot unproject are dropped from the mean.
    """
    return _grid_errors(gt, est, grid_stride, reproj=False)[0][0]


def reproj_error(gt: CameraSpec, est: CameraSpec, grid_stride: int = 1) -> float:
    """Mean pixel distance of ground-truth rays re-projected through ``est``.

    Direction convention: unproject under the ground truth, project under the
    estimate; cells where either step is undefined are dropped.
    """
    return _grid_errors(gt, est, grid_stride, angles=False)[0][0]


def fov_agnostic(spec: CameraSpec) -> tuple[float, float]:
    """(hFoV, vFoV) in degrees from border rays through the principal point.

    The horizontal FoV sums the angles of the rays at the exact left/right
    image edges (u = 0 and u = W) at v = cy; vertical analogously.
    """
    borders = np.array(
        [
            [0.0, spec.cy],
            [spec.width, spec.cy],
            [spec.cx, 0.0],
            [spec.cx, spec.height],
        ]
    )
    rays, ok = unproject_masked(spec, borders)
    if not ok.all():
        raise BorderUnprojectionFailed(
            "border pixel cannot be unprojected; spec likely violates its clamps"
        )
    angles = np.degrees(np.arccos(np.clip(rays[:, 2], -1.0, 1.0)))
    return float(angles[0] + angles[1]), float(angles[2] + angles[3])


def auc(
    errors: np.ndarray | list[float],
    thresholds: tuple[float, ...] = DEFAULT_AUC_THRESHOLDS,
) -> list[float]:
    """Area under the recall curve (percent) up to each threshold.

    For each threshold t the recall (fraction of errors <= s) is averaged
    over 101 uniform sweep points s in [0, t].
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise EmptyInput("auc of an empty error list")
    out = []
    for t in thresholds:
        sweep = np.linspace(0.0, t, 101)
        recall = np.mean(errors[:, None] <= sweep[None, :], axis=0)
        out.append(float(np.mean(recall) * 100.0))
    return out


def edited_errors(gt: CameraSpec, est: CameraSpec) -> tuple[float, float]:
    """Relative focal and principal-point errors for edited-image evaluation.

    ef is the infinity norm of the elementwise relative focal error;
    ec is twice the infinity norm of the principal point offset divided
    elementwise by the image size.
    """
    _check_same_size(gt, est)
    ef = max(
        abs((gt.fx - est.fx) / gt.fx),
        abs((gt.fy - est.fy) / gt.fy),
    )
    ec = 2.0 * max(
        abs((gt.cx - est.cx) / gt.width),
        abs((gt.cy - est.cy) / gt.height),
    )
    return float(ef), float(ec)


def evaluate(
    gt: CameraSpec, est: CameraSpec, grid_stride: int = 1
) -> EvalReport:
    """Full per-image report combining all metrics."""
    (ae, ndrop_ae), (re, ndrop_re) = _grid_errors(gt, est, grid_stride)
    h_gt, v_gt = fov_agnostic(gt)
    h_est, v_est = fov_agnostic(est)
    ef, ec = edited_errors(gt, est)
    return EvalReport(
        ae_mean=ae,
        re_mean=re,
        hfov_err=abs(h_gt - h_est),
        vfov_err=abs(v_gt - v_est),
        ef=ef,
        ec=ec,
        dropped_ae=ndrop_ae,
        dropped_re=ndrop_re,
    )

