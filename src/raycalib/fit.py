"""Closed-form intrinsics recovery from 2D-3D correspondences plus refinement.

The pipeline factors the recovery into stages that stay linear in the
unknowns:

1. principal point and pixel aspect ratio from the model-independent
   constraint  u*Y*a - Y*a*cx + X*cy = v*X,  solved for (a, a*cx, cy);
2. the remaining intrinsics from family-specific rows that are linear once
   (a, c) are known (with the reparameterizations g = 1/f for radial/kb and
   k'_n = k_n * f^(2n-1) for the division model);
3. for the extended unified model, whose rows are not linear in f, the focal
   is first estimated with a kb:3 proxy fit and the constraint
   r^2 R^2 gamma + 2 r Z (r Z - R) alpha = (R - r Z)^2  is then solved for
   (gamma, alpha) with gamma = alpha^2 beta, enforcing the parameter bounds
   with a simplified active set (solve unconstrained, clamp violated bounds,
   re-solve the free unknowns);
4. up to five Gauss-Newton iterations on the mean squared tangent-plane
   residual between the target rays and the unprojections of the current
   intrinsics.  The Jacobian is built per cell from the derivatives of the
   unnormalized ray with respect to (mx, my, dist), reusing the state of the
   residual pass, and reduced block by block with a tall-skinny QR, so no
   n x P matrix is ever formed.  The factor R of [J | -e] gives the share of
   |e|^2 the linearized step removes, |R[:k, k]|^2 of |R[:k, k]|^2 +
   R[k, k]^2; below _GN_RTOL = 1e-14, under the roundoff of the cost sum,
   refinement stops without a trial pass (relative-reduction test, Nocedal &
   Wright, Numerical Optimization, 10.3).  Each step is halved up to four
   times if the cost would increase, so the recorded per-iteration costs
   never increase; a step rejected at every length leaves the intrinsics
   unchanged, so the refinement stops there too, exactly where further
   iterations would repeat it.

All linear stages use orthogonal factorizations, never explicit normal
equations: SVD-backed lstsq for the closed-form stages, and for each
Gauss-Newton step the blocked QR of [J | -e] followed by an SVD of its small
triangular factor, with lstsq's column equilibration and rank rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import BoundInfeasible, DegenerateGeometry, InvalidFocal, NoConsensus
from .fov import FovField, exp_map
from .models import (
    CameraSpec,
    Family,
    ModelId,
    _ray_angle,
    _ray_derivatives,
    _unproject_cells,
    pixel_centers,
    unproject_masked,
)

EUCM_PROXY_ORDER = 3  # kb order used to estimate the extended model's focal

_RCOND = 1e-12
_GN_RTOL = 1e-14  # stop once a step is predicted to remove less of the cost
_GN_ITERATIONS = 5
_GN_MAX_HALVINGS = 4
_QR_BLOCK = 8192  # cells per QR block: 16,384 residual rows, about 1 MiB per block
_EPS_XY = 1e-9  # rows with |X| and |Y| both below this are dropped
_EPS_Z = 1e-6  # pinhole / radial rows require Z above this


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------



@dataclass(frozen=True)
class Correspondences:
    """Paired pixel coordinates (n, 2) and unit rays (n, 3)."""

    pixels: np.ndarray
    rays: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        rays = np.asarray(self.rays, dtype=np.float64).reshape(-1, 3)
        if len(px) != len(rays):
            raise ValueError("pixels and rays must have equal length")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "rays", rays)

    def __len__(self) -> int:
        return len(self.pixels)

    def subset(self, idx: np.ndarray) -> "Correspondences":
        return Correspondences(self.pixels[idx], self.rays[idx])

    @classmethod
    def from_field(cls, fov_field: FovField, stride: int = 1) -> "Correspondences":
        """Pixel centers and exp-mapped rays of a field's finite cells, optionally strided."""
        theta = fov_field.theta[::stride, ::stride].reshape(-1, 2)
        px = fov_field.pixel_grid()[::stride, ::stride].reshape(-1, 2)
        ok = np.isfinite(theta).all(axis=-1)
        return cls(px[ok], exp_map(theta[ok]))

    @classmethod
    def from_spec(cls, spec: CameraSpec, stride: int = 1) -> "Correspondences":
        """Unprojection grid of a camera, dropping non-invertible cells."""
        px = pixel_centers(spec.width, spec.height, stride).reshape(-1, 2)
        rays, ok = unproject_masked(spec, px)
        return cls(px[ok], rays[ok])



@dataclass(frozen=True)
class CalibrationResult:
    """A fitted spec plus per-stage diagnostics.

    ``gn_costs[0]`` is the mean squared tangent residual (radians^2) of the
    algebraic solution; each later entry is the cost after one Gauss-Newton
    iteration, so the sequence is non-increasing, and after refinement stops
    the last cost repeats.  ``dropped`` counts the correspondences the
    refined spec cannot unproject and, for a fit of a field, the field's
    non-finite cells.
    """

    spec: CameraSpec
    algebraic_spec: CameraSpec
    gn_costs: tuple[float, ...]
    ppoint_residual: float = float("nan")
    active_bounds: tuple[str, ...] = ()
    warning: str | None = None
    inlier_ratio: float | None = None
    dropped: int = 0

    def to_dict(self) -> dict:
        out = self.spec.to_dict()
        out["gn_costs"] = list(self.gn_costs)
        out["active_bounds"] = list(self.active_bounds)
        out["ppoint_residual"] = self.ppoint_residual
        out["algebraic"] = self.algebraic_spec.to_dict()
        if self.warning is not None:
            out["warning"] = self.warning
        if self.inlier_ratio is not None:
            out["inlier_ratio"] = self.inlier_ratio
        out["dropped"] = self.dropped
        return out



def _lstsq(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    if A.shape[0] < A.shape[1]:
        raise DegenerateGeometry(
            f"{what}: {A.shape[0]} rows cannot determine {A.shape[1]} unknowns"
        )
    # equilibrate columns so power-basis systems are not rank-truncated
    scale = np.linalg.norm(A, axis=0)
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        raise DegenerateGeometry(f"{what}: zero or non-finite column")
    sol, _, rank, _ = np.linalg.lstsq(A / scale, b, rcond=_RCOND)
    if rank < A.shape[1]:
        raise DegenerateGeometry(f"{what}: rank {rank} < {A.shape[1]} unknowns")
    return sol / scale


# ---------------------------------------------------------------------------
# stage 1: principal point and aspect ratio
# ---------------------------------------------------------------------------



def _fit_ppoint_full(corrs: Correspondences) -> tuple[float, float, float, float]:
    X, Y = corrs.rays[:, 0], corrs.rays[:, 1]
    u, v = corrs.pixels[:, 0], corrs.pixels[:, 1]
    keep = (np.abs(X) >= _EPS_XY) | (np.abs(Y) >= _EPS_XY)
    if np.count_nonzero(keep) < 3:
        raise DegenerateGeometry("need at least 3 off-axis correspondences")
    X, Y, u, v = X[keep], Y[keep], u[keep], v[keep]
    A = np.stack([u * Y, -Y, X], axis=-1)
    b = v * X
    sol = _lstsq(A, b, "principal point / aspect solve")
    a, a_cx, cy = sol
    if a <= 0:
        raise DegenerateGeometry(f"recovered nonpositive aspect ratio {a:.6g}")
    residual = float(np.sqrt(np.mean((A @ sol - b) ** 2)))
    return float(a), float(a_cx / a), float(cy), residual



def fit_ppoint_aspect(corrs: Correspondences) -> tuple[float, float, float]:
    """Recover (aspect, cx, cy) from the model-independent linear constraint."""
    a, cx, cy, _ = _fit_ppoint_full(corrs)
    return a, cx, cy


# ---------------------------------------------------------------------------
# stage 2: family-specific linear rows
# ---------------------------------------------------------------------------



def _identity_dist(ks: np.ndarray, f: float) -> tuple[float, ...]:
    return tuple(ks)


def _division_dist(ks: np.ndarray, f: float) -> tuple[float, ...]:
    return tuple(k * f ** (2 * n - 1) for n, k in enumerate(ks, start=1))


def _family_rows(model: ModelId, corrs: Correspondences, a: float, c: tuple[float, float]):
    """Linear rows of a family once (a, c) are known.

    Returns ``(focal_col, dist_cols, rhs, inverse, dist_of)``.  Each row reads
    focal_col * f + sum_n dist_cols[n] * k'_n = rhs, with 1/f in place of f
    when ``inverse`` (radial, kb).  ``dist_of(k', f)`` maps the solved
    distortion unknowns to the family's coefficients.  Pinhole and radial
    rows keep only rays with Z above _EPS_Z.  The extended unified model is
    not linear in f and has its own rows (``_eucm_rows``).
    """
    fam = model.family
    X, Y, Z = corrs.rays[:, 0], corrs.rays[:, 1], corrs.rays[:, 2]
    du = corrs.pixels[:, 0] - c[0]
    dv = corrs.pixels[:, 1] - c[1]
    if fam in (Family.PINHOLE, Family.BROWN_CONRADY):
        keep = Z > _EPS_Z
        X, Y, Z, du, dv = X[keep], Y[keep], Z[keep], du[keep], dv[keep]
    R = np.hypot(X, Y)
    Ra = np.sqrt(X * X + a * a * Y * Y)
    rc = np.hypot(du, dv)
    orders = range(1, model.num_dist + 1)
    if fam is Family.PINHOLE:
        return Ra, [], rc * Z, False, _identity_dist
    if fam is Family.BROWN_CONRADY:
        rho2 = (R / Z) ** 2
        return rc * Z, [-Ra * rho2**n for n in orders], Ra, True, _identity_dist
    if fam is Family.KANNALA_BRANDT:
        theta = np.arctan2(R, Z)
        cols = [-Ra * theta ** (2 * n + 1) for n in orders]
        return R * rc, cols, Ra * theta, True, _identity_dist
    if fam is Family.UCM:
        d = np.sqrt(X * X + Y * Y + Z * Z)
        return Ra, [-rc * d], rc * Z, False, _identity_dist
    rca2 = du * du + (dv / a) ** 2  # division
    return Ra, [Ra * rca2**n for n in orders], rc * Z, False, _division_dist


def _eucm_rows(corrs: Correspondences, f: float, a: float, c: tuple[float, float]):
    """(col_g, col_a, rhs) of the extended unified model at a known focal."""
    X, Y, Z = corrs.rays[:, 0], corrs.rays[:, 1], corrs.rays[:, 2]
    R = np.hypot(X, Y)
    mx = (corrs.pixels[:, 0] - c[0]) / f
    my = (corrs.pixels[:, 1] - c[1]) / (a * f)
    r = np.hypot(mx, my)
    return r * r * R * R, 2.0 * r * Z * (r * Z - R), (R - r * Z) ** 2



def _make_spec(
    model: ModelId,
    f: float,
    a: float,
    c: tuple[float, float],
    dist: tuple[float, ...],
    size: tuple[int, int],
) -> CameraSpec:
    if f <= 0 or not math.isfinite(f):
        raise InvalidFocal(f"solved focal length {f:.6g} is not positive")
    return CameraSpec(
        model=model,
        fx=f,
        fy=a * f,
        cx=c[0],
        cy=c[1],
        dist=dist,
        width=size[0],
        height=size[1],
    )



def _fit_linear_full(
    model: ModelId,
    corrs: Correspondences,
    a: float,
    c: tuple[float, float],
    size: tuple[int, int],
) -> tuple[CameraSpec, tuple[str, ...]]:
    if model.family is Family.EUCM:
        return _fit_eucm_full(corrs, a, c, size)
    focal_col, dist_cols, rhs, inverse, dist_of = _family_rows(model, corrs, a, c)
    A = np.stack([focal_col, *dist_cols], axis=-1)
    sol = _lstsq(A, rhs, f"{model.family.value} linear solve")
    f, ks = float(sol[0]), sol[1:]
    if inverse:
        if f <= 0:
            raise InvalidFocal(f"solved inverse focal {f:.6g} is not positive")
        f = 1.0 / f
    bounds: tuple[str, ...] = ()
    if model.family is Family.UCM and ks[0] < 0.0:
        ks, bounds = (0.0,), ("xi>=0",)
        f = float(_lstsq(focal_col[:, None], rhs, "ucm re-solve with xi=0")[0])
    return _make_spec(model, f, a, c, dist_of(ks, f), size), bounds



def fit_linear(
    model: ModelId,
    corrs: Correspondences,
    a: float,
    c: tuple[float, float],
    size: tuple[int, int],
) -> CameraSpec:
    """Solve the family's linear rows for the remaining intrinsics.

    ``size`` is the (width, height) recorded on the returned spec.
    """
    spec, _ = _fit_linear_full(model, corrs, a, c, size)
    return spec



def _eucm_dist(
    corrs: Correspondences, f: float, a: float, c: tuple[float, float]
) -> tuple[tuple[float, float], tuple[str, ...]]:
    """(alpha, beta) of the extended unified model at a known focal, solved
    from the (gamma, alpha) rows with the active set, and the bounds it hit."""
    col_g, col_a, rhs = _eucm_rows(corrs, f, a, c)

    gamma, alpha = _lstsq(np.stack([col_g, col_a], axis=-1), rhs, "eucm (gamma, alpha) solve")
    bounds: list[str] = []

    def resolve(col: np.ndarray, b: np.ndarray, what: str) -> float:
        denom = float(col @ col)
        if denom <= 0.0:
            raise BoundInfeasible(f"{what}: no free unknown left to re-solve")
        return float(col @ b) / denom

    if alpha < 0.0:
        alpha = 0.0
        bounds.append("alpha>=0")
        gamma = resolve(col_g, rhs, "eucm re-solve gamma at alpha=0")
    elif alpha > 1.0:
        alpha = 1.0
        bounds.append("alpha<=1")
        gamma = resolve(col_g, rhs - col_a, "eucm re-solve gamma at alpha=1")

    if gamma <= 0.0 and alpha > 0.0:
        gamma = 0.0
        bounds.append("beta>0")
        alpha = resolve(col_a, rhs, "eucm re-solve alpha at gamma=0")
        if alpha < 0.0:
            alpha = 0.0
            bounds.append("alpha>=0")
        elif alpha > 1.0:
            alpha = 1.0
            bounds.append("alpha<=1")

    if alpha < 1e-9:
        # alpha = 0 reduces the model to a pinhole: beta is unidentifiable
        alpha, beta = 0.0, 1.0
        if "alpha>=0" not in bounds:
            bounds.append("alpha>=0")
    elif gamma <= 0.0:
        beta = 1e-6
    else:
        beta = float(gamma) / float(alpha) ** 2
    return (float(alpha), float(beta)), tuple(bounds)


def _fit_eucm_full(
    corrs: Correspondences,
    a: float,
    c: tuple[float, float],
    size: tuple[int, int],
) -> tuple[CameraSpec, tuple[str, ...]]:
    proxy, _ = _fit_linear_full(
        ModelId(Family.KANNALA_BRANDT, EUCM_PROXY_ORDER), corrs, a, c, size
    )
    dist, bounds = _eucm_dist(corrs, proxy.fx, a, c)
    return _make_spec(ModelId(Family.EUCM, 2), proxy.fx, a, c, dist, size), bounds



def fit_eucm(
    corrs: Correspondences,
    a: float,
    c: tuple[float, float],
    size: tuple[int, int],
) -> CameraSpec:
    """Fit the extended unified model: proxy focal, then (gamma, alpha) rows."""
    spec, _ = _fit_eucm_full(corrs, a, c, size)
    return spec


# ---------------------------------------------------------------------------
# stage 3: Gauss-Newton refinement on tangent-plane residuals
# ---------------------------------------------------------------------------



def _params_of(spec: CameraSpec) -> np.ndarray:
    return np.array([spec.fx, spec.fy, spec.cx, spec.cy, *spec.dist])


def _spec_of(template: CameraSpec, kappa: np.ndarray) -> CameraSpec:
    return template.replace(
        fx=float(kappa[0]),
        fy=float(kappa[1]),
        cx=float(kappa[2]),
        cy=float(kappa[3]),
        dist=tuple(float(k) for k in kappa[4:]),
    )


def _clamp_params(model: ModelId, kappa: np.ndarray) -> np.ndarray:
    kappa = kappa.copy()
    if model.family is Family.EUCM:
        kappa[4] = min(max(kappa[4], 1e-6), 1.0 - 1e-6)
        kappa[5] = max(kappa[5], 1e-6)
    elif model.family is Family.UCM:
        kappa[4] = max(kappa[4], 0.0)
    return kappa


def _tangent_basis(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the tangent plane at each unit vector p (n, 3)."""
    ref = np.where(np.abs(p[:, 2:3]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    b1 = np.cross(ref, p)
    b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = np.cross(p, b1)
    return b1, b2


def _arc_factor(c: np.ndarray) -> np.ndarray:
    """theta / sin(theta) expressed through c = cos(theta), series near 1."""
    s2 = np.maximum(1.0 - c * c, 0.0)
    small = s2 < 1e-16
    return np.where(
        small, 1.0, np.arccos(np.clip(c, -1.0, 1.0)) / np.sqrt(np.where(small, 1.0, s2))
    )


def _arc_factor_deriv(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d/dc of the arc factor: (c w - 1) / (1 - c^2), -> -1/3 as c -> 1."""
    s2 = 1.0 - c * c
    small = s2 < 1e-8
    return np.where(small, -1.0 / 3.0, (c * w - 1.0) / np.where(small, 1.0, s2))


def _dot(v, d) -> np.ndarray:
    """sum_i v[i] * d[i] over three components; a d[i] may be the constant 0.0 or 1.0."""
    terms = [vi * di if np.ndim(di) else vi for vi, di in zip(v, d) if np.ndim(di) or di]
    return sum(terms[1:], terms[0])


class _Cells(NamedTuple):
    """Per-cell state of one residual pass; the Jacobian reuses it."""

    mx: np.ndarray
    my: np.ndarray
    r: np.ndarray
    norm: np.ndarray  # |g| of the unnormalized ray
    sol: np.ndarray | None  # Newton solution: rho (radial), theta (kb)
    q: np.ndarray  # (n, 3) unit ray
    c: np.ndarray  # target . q
    w: np.ndarray  # arc factor of c
    b1q: np.ndarray
    b2q: np.ndarray
    ok: np.ndarray

    def rows(self, sl: slice) -> "_Cells":
        """The state of the cells in ``sl``."""
        return _Cells(*(x if x is None else x[sl] for x in self))


def _residuals(
    spec: CameraSpec,
    pixels: np.ndarray,
    targets: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
) -> tuple[np.ndarray, _Cells]:
    """Tangent residuals (n, 2) and their cell state: invalid rows come back
    zeroed, with ``ok`` False."""
    q, ok, (mx, my, r, norm, sol) = _unproject_cells(spec, pixels)
    c = _dot(targets.T, q.T)
    w = _arc_factor(c)
    b1q, b2q = _dot(b1.T, q.T), _dot(b2.T, q.T)
    e = np.where(ok[:, None], np.stack([w * b1q, w * b2q], axis=-1), 0.0)
    return e, _Cells(mx, my, r, norm, sol, q, c, w, b1q, b2q, ok)


def _mean_cost(e: np.ndarray, ok: np.ndarray) -> float:
    n = int(np.count_nonzero(ok))
    if n == 0:
        return math.inf
    return float(np.sum(e * e) / n)


def _jacobian_columns(
    spec: CameraSpec, cells: _Cells, b1: np.ndarray, b2: np.ndarray, targets: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """d(e1, e2)/d(fx, fy, cx, cy, *dist): one pair of (n,) columns per parameter.

    The residual e_i = w(c) (b_i . q) of q = g / |g| and c = target . q has the
    gradient (w b_i - (b_i . q) h) / |g| with respect to g, where
    h = (w + c w') q - w' target; each ray derivative dg enters through it.
    The intrinsics enter g only through m = ((u - cx) / fx, (v - cy) / fy).
    Rows the residual pass marked invalid are zero.
    """
    w, c, norm, ok = cells.w, cells.c, cells.norm, cells.ok
    dw = _arc_factor_deriv(c, w)
    h = (w + c * dw) * cells.q.T - dw * targets.T
    grads = [(w * b.T - bq * h) / norm for b, bq in ((b1, cells.b1q), (b2, cells.b2q))]
    dgs = _ray_derivatives(spec, cells.mx, cells.my, cells.r, cells.sol)
    cols = [tuple(_dot(gr, dg) for gr in grads) for dg in dgs]
    if not ok.all():
        cols = [(np.where(ok, j1, 0.0), np.where(ok, j2, 0.0)) for j1, j2 in cols]
    (x1, x2), (y1, y2) = cols[:2]
    fx, fy = spec.fx, spec.fy
    sx, sy = -cells.mx / fx, -cells.my / fy
    return [(x1 * sx, x2 * sx), (y1 * sy, y2 * sy),
            (x1 / -fx, x2 / -fx), (y1 / -fy, y2 / -fy), *cols[2:]]


def residual_jacobian(
    spec: CameraSpec, pixels: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Analytic Jacobian of the tangent residuals w.r.t. (fx, fy, cx, cy, *dist).

    Every family is differentiated in closed form; the Newton-inverted ones
    (radial, kb) through implicit derivatives of the converged solve.
    Shape (n, 2, 4 + num_dist).
    """
    b1, b2 = _tangent_basis(targets)
    _, cells = _residuals(spec, pixels, targets, b1, b2)
    cols = _jacobian_columns(spec, cells, b1, b2, targets)
    return np.stack([np.stack(col, axis=-1) for col in cols], axis=-1)


def _reduced_system(
    spec: CameraSpec,
    cells: _Cells,
    e: np.ndarray,
    basis: tuple[np.ndarray, np.ndarray, np.ndarray],
    free_idx: np.ndarray,
) -> np.ndarray:
    """Triangular factor R of [J_free | -e], never building the whole matrix.

    Each block of _QR_BLOCK cells is factored on its own (mode "r"), and the
    stacked block factors once more, tall-skinny-QR style.
    """
    k = len(free_idx)
    factors = [np.empty((0, k + 1))]
    for lo in range(0, len(e), _QR_BLOCK):
        sl = slice(lo, lo + _QR_BLOCK)
        cols = _jacobian_columns(spec, cells.rows(sl), *(v[sl] for v in basis))
        m = len(e[sl])
        A = np.empty((2 * m, k + 1), order="F")
        for j, idx in enumerate(free_idx):
            A[:m, j], A[m:, j] = cols[idx]
        A[:m, k], A[m:, k] = -e[sl, 0], -e[sl, 1]
        factors.append(np.linalg.qr(A, mode="r"))
    return np.linalg.qr(np.vstack(factors), mode="r")


def _gn_step(R: np.ndarray, k: int) -> np.ndarray | None:
    """Least-squares step from the factor R of [J | -e], or None if J is singular.

    As in lstsq, the columns are equilibrated and singular values at or below
    _RCOND times the largest count as zero.
    """
    scale = np.linalg.norm(R[:, :k], axis=0)
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        return None
    U, s, Vt = np.linalg.svd(R[:k, :k] / scale, full_matrices=False)
    if np.count_nonzero(s > _RCOND * s[0]) < k:
        return None
    delta = Vt.T @ ((U.T @ R[:k, k]) / s) / scale
    return delta if np.all(np.isfinite(delta)) else None


def refine(
    spec0: CameraSpec, corrs: Correspondences, free: np.ndarray | None = None
) -> CalibrationResult:
    """Polish intrinsics with up to five Gauss-Newton iterations on tangent residuals.

    Minimizes the mean squared tangent-plane distance between the target rays
    and the unprojections of the current intrinsics, over the parameters
    (fx, fy, cx, cy, *dist) indexed by ``free`` (default: all of them).  Steps
    that would increase the cost are halved up to four times and rejected if
    still worse, so ``gn_costs`` never increases.  Refinement stops at a
    cost at roundoff level, a singular step, a step predicted to remove at
    most _GN_RTOL of the cost (no trial cost could tell it from roundoff) or
    a rejected step (the parameters did not move, so every later iteration
    would repeat it); the remaining ``gn_costs`` entries repeat the last cost.
    """
    pixels, targets = corrs.pixels, corrs.rays
    b1, b2 = _tangent_basis(targets)
    kappa = _params_of(spec0)
    free_idx = np.arange(len(kappa)) if free is None else np.asarray(free, dtype=int)
    k = len(free_idx)

    e, cells = _residuals(spec0, pixels, targets, b1, b2)
    cost = _mean_cost(e, cells.ok)
    costs = [cost]
    warning = None

    for _ in range(_GN_ITERATIONS):
        if cost <= 1e-30:  # further iterations would only shuffle roundoff
            break
        R = _reduced_system(_spec_of(spec0, kappa), cells, e, (b1, b2, targets), free_idx)
        try:
            delta = _gn_step(R, k)
        except np.linalg.LinAlgError:
            delta = None
        if delta is None:
            warning = "singular normal matrix; refinement stopped early"
            break
        if R.shape[0] > k:
            # the step removes |R[:k, k]|^2 of |e|^2 = |R[:k, k]|^2 + R[k, k]^2
            pred = float(R[:k, k] @ R[:k, k])
            if pred <= _GN_RTOL * (pred + float(R[k, k]) ** 2):
                break

        step = 1.0
        for _ in range(_GN_MAX_HALVINGS + 1):
            cand = kappa.copy()
            cand[free_idx] += step * delta
            cand = _clamp_params(spec0.model, cand)
            if cand[0] > 0.0 and cand[1] > 0.0:
                e_new, cells_new = _residuals(_spec_of(spec0, cand), pixels, targets, b1, b2)
                cost_new = _mean_cost(e_new, cells_new.ok)
                if cost_new <= cost:
                    kappa, e, cells, cost = cand, e_new, cells_new, cost_new
                    break
            step *= 0.5
        else:
            # every trial was rejected and kappa did not move, so each later
            # iteration would rebuild the same step and reject it again
            break
        costs.append(cost)
    costs.extend([cost] * (_GN_ITERATIONS + 1 - len(costs)))

    return CalibrationResult(
        spec=_spec_of(spec0, kappa),
        algebraic_spec=spec0,
        gn_costs=tuple(costs),
        warning=warning,
        dropped=int(len(pixels) - np.count_nonzero(cells.ok)),
    )


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------



def _fit_corrs(
    model: ModelId, corrs: Correspondences, size: tuple[int, int]
) -> CalibrationResult:
    a, cx, cy, ppoint_residual = _fit_ppoint_full(corrs)
    algebraic, bounds = _fit_linear_full(model, corrs, a, (cx, cy), size)
    result = refine(algebraic, corrs)
    return replace(result, ppoint_residual=ppoint_residual, active_bounds=bounds)


def calibrate(fov_field: FovField, model: ModelId, stride: int = 1) -> CalibrationResult:
    """Recover intrinsics of ``model`` from a FoV field.

    Rays are exp-mapped from the field, paired with their pixel centers
    (optionally strided), and passed through the closed-form stages and the
    Gauss-Newton refinement.
    """
    corrs = Correspondences.from_field(fov_field, stride)
    holes = fov_field.theta[::stride, ::stride].size // 2 - len(corrs)  # non-finite cells
    result = _fit_corrs(model, corrs, (fov_field.width, fov_field.height))
    return replace(result, dropped=result.dropped + holes)


def _angular_residuals(spec: CameraSpec, corrs: Correspondences) -> np.ndarray:
    """Angle (rad) between each target ray and the spec's unprojection; inf if invalid."""
    q, ok = unproject_masked(spec, corrs.pixels)
    return np.where(ok, _ray_angle(q, corrs.rays), np.inf)


def calibrate_ransac(
    fov_field: FovField,
    model: ModelId,
    iters: int = 100,
    thresh: float = math.radians(1.0),
    seed: int = 0,
    stride: int = 1,
) -> CalibrationResult:
    """RANSAC variant: minimal samples, consensus scoring, final refit.

    Each iteration draws a minimal sample (3 unknowns of the aspect/principal
    point stage plus the model unknowns), runs the linear stages, and scores
    inliers by angular residual below ``thresh`` (radians).  The best
    consensus set gets the full linear + refinement treatment.

    Raises:
        NoConsensus: if the best inlier ratio is below 10%.
    """
    corrs = Correspondences.from_field(fov_field, stride)
    size = (fov_field.width, fov_field.height)
    n = len(corrs)
    holes = fov_field.theta[::stride, ::stride].size // 2 - n  # non-finite cells
    sample_size = 3 + 1 + model.num_dist  # (a, cx, cy), then f and dist
    if n < sample_size:
        raise DegenerateGeometry(f"{n} correspondences < minimal sample {sample_size}")
    rng = np.random.default_rng(seed)

    best_mask: np.ndarray | None = None
    best_count = 0
    best_score = math.inf
    for _ in range(iters):
        idx = rng.choice(n, size=sample_size, replace=False)
        sub = corrs.subset(idx)
        try:
            a, cx, cy, _ = _fit_ppoint_full(sub)
            cand, _ = _fit_linear_full(model, sub, a, (cx, cy), size)
        except (DegenerateGeometry, InvalidFocal, BoundInfeasible):
            continue
        ang = _angular_residuals(cand, corrs)
        mask = ang < thresh
        count = int(np.count_nonzero(mask))
        score = float(np.mean(ang[mask])) if count else math.inf
        if count > best_count or (count == best_count and score < best_score):
            best_mask, best_count, best_score = mask, count, score

    if best_mask is None or best_count < 0.1 * n:
        raise NoConsensus(
            f"best inlier count {best_count}/{n} below the 10% consensus floor"
        )
    result = _fit_corrs(model, corrs.subset(best_mask), size)
    return replace(result, inlier_ratio=best_count / n, dropped=result.dropped + holes)


def convert_model(
    src: CameraSpec,
    dst_model: ModelId,
    fix_focal: bool = False,
    stride: int = 1,
) -> CameraSpec:
    """Re-express a camera in another model family.

    Grid correspondences are generated from ``src`` by unprojection and the
    destination model is fitted to them.  With ``fix_focal`` the focal
    lengths and principal point are held at the source values and only the
    distortion coefficients are solved (linearly, then refined with the
    other parameters frozen).
    """
    corrs = Correspondences.from_spec(src, stride)
    size = (src.width, src.height)
    if not fix_focal:
        return _fit_corrs(dst_model, corrs, size).spec

    f, a, c = src.fx, src.aspect, (src.cx, src.cy)
    if dst_model.num_dist == 0:
        return _make_spec(dst_model, f, a, c, (), size)
    if dst_model.family is Family.EUCM:
        dist, _ = _eucm_dist(corrs, f, a, c)
    else:
        # the focal column moves to the right-hand side
        focal_col, dist_cols, rhs, inverse, dist_of = _family_rows(dst_model, corrs, a, c)
        held = rhs - (focal_col / f if inverse else focal_col * f)
        what = f"fixed-focal {dst_model.family.value} solve"
        dist = dist_of(_lstsq(np.stack(dist_cols, axis=-1), held, what), f)

    # xi >= 0 and beta > 0, as the refinement enforces them
    spec0 = _make_spec(dst_model, f, a, c, dist, size)
    spec0 = _spec_of(spec0, _clamp_params(dst_model, _params_of(spec0)))
    free = np.arange(4, 4 + dst_model.num_dist)
    return refine(spec0, corrs, free=free).spec
