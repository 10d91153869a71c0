"""Closed-form intrinsics recovery from 2D-3D correspondences plus refinement.

The pipeline factors the recovery into stages that stay linear in the
unknowns:

1. principal point and pixel aspect ratio from the model-independent
   constraint  u*Y*a - Y*a*cx + X*cy = v*X,  solved for (a, a*cx, cy);
2. the remaining intrinsics from family-specific rows that are linear once
   (a, c) are known (with the reparameterizations g = 1/f for radial/kb and
   k'_n = k_n / f^(2n-1) for the division model), in one solve
   (``_fit_linear_full``) that fitting, fixed-focal conversion and the
   LensFun mapping share; a held focal's column moves to the right-hand side;
3. for the extended unified model, whose rows are not linear in f, the focal
   is held or first estimated with a kb:3 proxy fit and the constraint
   r^2 R^2 gamma + 2 r Z (r Z - R) alpha = (R - r Z)^2  is then solved for
   (gamma, alpha) with gamma = alpha^2 beta, enforcing the eucm box of
   ``models._BOX`` with a simplified active set (solve unconstrained, clamp
   violated bounds, re-solve the free unknowns);
4. up to five Gauss-Newton iterations on the mean squared tangent-plane
   residual between the target rays and the unprojections of the current
   intrinsics.  A residual pass (``_pass``) sweeps the cells once, block by
   block: it unprojects, forms the residuals and their share of the cost,
   and then the Jacobian columns and the block's QR factor of [J | -e].  So
   a pass returns its cost together with the factor R of its step, and an
   accepted trial pass brings the R of the next step.  The factor gives the
   step's length in standard errors of the fit, |R[:k, k]| over the noise
   estimate |R[k, k]| / sqrt(2 valid - k); at _GN_TAU = 0.1 or less the
   data cannot resolve the step, and refinement stops without a trial pass
   (relative offset, Bates & Watts, Technometrics 1981).  Fields of
   _COARSE_MIN_CELLS cells or more are first refined once on every fourth
   grid column and row, counted from the nearer image edge
   (``_coarse_cells``), and the full cells then start from that fit.  Each
   step is halved up to four times if the cost would increase, so the
   recorded per-iteration costs never increase; a step rejected at every
   length leaves the intrinsics unchanged, so the refinement stops there
   too, exactly where further iterations would repeat it.  A pass keeps no
   per-cell state: it depends on the intrinsics, the correspondences and
   the free parameters alone.

One row writer (``_block_rows``) fills a block's rows [J | -e] for
refinement and ``residual_jacobian``: it unprojects the block, forms the
residuals in the tangent basis of the block's own target rays, and contracts
their gradient with respect to the unnormalized ray g, built once per block,
with dg/dmx, dg/dmy and the one direction d that every distortion
coefficient moves g along (dg/dk_n = scale_n d).  Each family's branch of
``models._unproject_cells`` builds these derivatives next to its ray g.
A pass reads its cells component-major, as views of the arrays a fit holds.

All linear stages share one kernel and never form normal equations: rows
are built block by block (``_BLOCK`` cells) as F-ordered arrays, each
block is reduced to the triangular factor of [A | b] and the stacked factors
once more, a tall-skinny QR (Demmel et al., SIAM J. Sci. Comput. 2012);
refinement hands the e1 rows and the e2 rows of a block over as two leaves,
which factor faster than the block at once.  ``_solve`` then takes the
unknowns from R with lstsq's column equilibration, SVD and rank rule.
Bound re-solves work on columns of R.  Beyond the correspondences, a fit so
holds one block of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DegenerateGeometry, InvalidFocal, NoConsensus, UnsupportedFamily
from .fov import FovField, _exp_map
from .models import (
    _BLOCK,
    CameraSpec,
    Family,
    ModelId,
    _blocks,
    _grid_blocks,
    _in_box,
    _ray_angle,
    _unproject_cells,
    pixel_axes,
    validate_spec,
)

EUCM_PROXY_ORDER = 3  # kb order used to estimate the extended model's focal

_RCOND = 1e-12
_GN_TAU = 0.1  # stop once a step moves the fit by at most this many standard errors
_COARSE_MIN_CELLS = 12544  # 112x112: refine the _coarse_cells subset first from here on
_COARSE_STEP = 4  # the coarse subset's pitch in grid columns and rows; a power of two
_GN_ITERATIONS = 5
_GN_MAX_HALVINGS = 4
_EPS_XY = 1e-9  # rows with |X| and |Y| both below this are dropped
_EPS_Z = 1e-6  # pinhole / radial rows require Z above this
# families whose linear rows solve for 1/f
_INVERSE_FOCAL = (Family.BROWN_CONRADY, Family.KANNALA_BRANDT)


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------



def _kept(keep: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The rows of a that keep marks: a itself when it marks every row, since
    a masked copy of a block costs about as much as the work done on it.
    compress copies the rows many times faster than a[keep]."""
    return a if keep.all() else np.compress(keep, a, axis=0)


@dataclass(frozen=True)
class Correspondences:
    """Paired pixel coordinates (n, 2) and unit rays (n, 3).

    Both are held F-ordered, so that ``pixels.T`` (2, n) and ``rays.T``
    (3, n) are views with contiguous rows, which the per-cell work reads.
    """

    pixels: np.ndarray
    rays: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        rays = np.asarray(self.rays, dtype=np.float64).reshape(-1, 3)
        if len(px) != len(rays):
            raise ValueError("pixels and rays must have equal length")
        object.__setattr__(self, "pixels", np.asfortranarray(px))
        object.__setattr__(self, "rays", np.asfortranarray(rays))

    def __len__(self) -> int:
        return len(self.pixels)

    def subset(self, idx: np.ndarray) -> "Correspondences":
        return Correspondences(self.pixels.T[:, idx].T, self.rays.T[:, idx].T)

    @classmethod
    def _from_grid(
        cls,
        u: np.ndarray,
        v: np.ndarray,
        rays_of: Callable[[slice, np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> "Correspondences":
        """The cells of the grid of columns u and rows v that ``rays_of(cells,
        pixels)`` keeps, in grid order, filled block by block (``_grid_blocks``);
        ``rays_of`` returns the mask of the block's kept cells and their rays."""
        pixels, rays = np.empty((2, len(u) * len(v))), np.empty((3, len(u) * len(v)))
        n = 0
        for sl, px in _grid_blocks(u, v):
            keep, kept = rays_of(sl, px)
            pixels[:, n : n + len(kept)] = _kept(keep, px).T
            rays[:, n : n + len(kept)] = kept.T
            n += len(kept)
        return cls(pixels[:, :n].T, rays[:, :n].T)

    @classmethod
    def from_field(cls, fov_field: FovField, stride: int = 1) -> "Correspondences":
        """Pixel centers and exp-mapped rays of the field cells the exp map
        accepts, |theta| < pi (so no NaN or inf cell), optionally strided, in
        grid order."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        theta = fov_field.theta[::stride, ::stride].reshape(-1, 2)  # a view at stride 1
        u, v = pixel_axes(fov_field.width, fov_field.height, fov_field.stride)

        def in_domain(sl: slice, px: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            block = theta[sl]
            t = np.hypot(block[:, 0], block[:, 1])
            keep = t < np.pi
            return keep, _exp_map(_kept(keep, block), _kept(keep, t))

        return cls._from_grid(u[::stride], v[::stride], in_domain)

    @classmethod
    def from_spec(cls, spec: CameraSpec, stride: int = 1) -> "Correspondences":
        """Unprojection grid of a camera, dropping non-invertible cells."""

        def invertible(sl: slice, px: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            rays, ok, _ = _unproject_cells(spec, px)
            return ok, _kept(ok, rays)

        return cls._from_grid(*pixel_axes(spec.width, spec.height, stride), invertible)


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted spec plus per-stage diagnostics.

    ``gn_costs[0]`` is the mean squared tangent residual (radians^2) where
    full-resolution refinement starts: at the algebraic solution, or, from
    12,544 cells on (``_COARSE_MIN_CELLS``), at the fit of the coarse subset
    (``_coarse_cells``, 1/16 of a grid's cells).
    Each later entry is the cost after one Gauss-Newton iteration, so the
    sequence is non-increasing, and after refinement stops the last cost
    repeats.  ``dropped`` counts the correspondences the refined spec cannot
    unproject and, for a fit of a field, the field's cells outside the exp
    map's domain: those that are not finite or have |theta| >= pi.
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


# ---------------------------------------------------------------------------
# the least-squares kernel
# ---------------------------------------------------------------------------



def _tsqr(blocks: Iterable[np.ndarray], width: int) -> tuple[np.ndarray, int]:
    """Factor R (width, width) of the rows of every block stacked, and their count.

    Each block is factored on its own (mode "r"), and the stacked block
    factors once more: a tall-skinny QR, which never holds more than one
    block of rows.  A leading block of zero rows keeps R square however few
    rows there are; it changes no column norm or inner product of R.
    """
    factors, rows = [np.zeros((width, width))], 0
    for A in blocks:
        rows += len(A)
        factors.append(np.linalg.qr(A, mode="r"))
    return np.linalg.qr(np.vstack(factors), mode="r"), rows


def _row_qr(
    corrs: Correspondences, rows: Callable[[np.ndarray, np.ndarray], np.ndarray], width: int
) -> tuple[np.ndarray, int]:
    """``_tsqr`` of the rows [A | b] that ``rows(pixels, rays)`` builds per block."""
    return _tsqr((rows(corrs.pixels[sl], corrs.rays[sl]) for sl in _blocks(len(corrs))), width)


def _solve(R: np.ndarray, rows: int, what: str) -> np.ndarray:
    """Least-squares solution of A x = b from the factor R of [A | b] (``rows`` rows).

    As in lstsq, the columns are equilibrated and singular values at or below
    _RCOND times the largest count as zero.  Because R = Q^T [A | b], the
    residual norm is |R[k, k]| and the column norms of A are those of R.

    Raises:
        DegenerateGeometry: with fewer rows than unknowns, a zero or
            non-finite column, a rank below the unknowns or a non-finite
            solution.
    """
    k = R.shape[1] - 1
    if rows < k:
        raise DegenerateGeometry(f"{what}: {rows} rows cannot determine {k} unknowns")
    # equilibrate columns so power-basis systems are not rank-truncated
    scale = np.linalg.norm(R[:, :k], axis=0)
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        raise DegenerateGeometry(f"{what}: zero or non-finite column")
    U, s, Vt = np.linalg.svd(R[:k, :k] / scale)
    rank = int(np.count_nonzero(s > _RCOND * s[0]))
    if rank < k:
        raise DegenerateGeometry(f"{what}: rank {rank} < {k} unknowns")
    sol = Vt.T @ ((U.T @ R[:k, k]) / s) / scale
    if not np.all(np.isfinite(sol)):
        raise DegenerateGeometry(f"{what}: non-finite solution")
    return sol


def _resolve(col: np.ndarray, b: np.ndarray) -> float:
    """Least-squares value of one unknown, from its column ``col`` of the factor
    R of [A | b] and a right-hand side ``b`` built from R's columns.

    Because R = Q^T [A | b], inner products of R's columns are those of the
    rows, so a bound re-solve that holds the other unknowns needs no new
    factor.  ``_solve`` has already found R's column norms positive and
    finite, so ``col @ col`` is positive.
    """
    return float(col @ b) / float(col @ col)


# ---------------------------------------------------------------------------
# stage 1: principal point and aspect ratio
# ---------------------------------------------------------------------------



def _ppoint_rows(pixels: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Rows [u Y | -Y | X | v X] of one block's off-axis cells."""
    X, Y = rays[:, 0], rays[:, 1]
    keep = (np.abs(X) >= _EPS_XY) | (np.abs(Y) >= _EPS_XY)
    X, Y, u, v = X[keep], Y[keep], pixels[:, 0][keep], pixels[:, 1][keep]
    return np.stack([u * Y, -Y, X, v * X]).T


def _fit_ppoint_full(corrs: Correspondences) -> tuple[float, float, float, float]:
    R, m = _row_qr(corrs, _ppoint_rows, 4)
    a, a_cx, cy = _solve(R, m, "principal point / aspect solve")
    if a <= 0:
        raise DegenerateGeometry(f"recovered nonpositive aspect ratio {a:.6g}")
    return float(a), float(a_cx / a), float(cy), abs(float(R[3, 3])) / math.sqrt(m)



def fit_ppoint_aspect(corrs: Correspondences) -> tuple[float, float, float]:
    """Recover (aspect, cx, cy) from the model-independent linear constraint."""
    a, cx, cy, _ = _fit_ppoint_full(corrs)
    return a, cx, cy


# ---------------------------------------------------------------------------
# stage 2: family-specific linear rows
# ---------------------------------------------------------------------------



def _family_rows(
    model: ModelId, pixels: np.ndarray, rays: np.ndarray, a: float, c: tuple[float, float]
) -> np.ndarray:
    """Linear rows [focal_col | dist_cols | rhs] of one block, once (a, c) are known.

    Each row reads focal_col * f + sum_n dist_cols[n] * k'_n = rhs, with 1/f
    in place of f for radial and kb (``_INVERSE_FOCAL``); ``_fit_linear_full``
    maps the solved k' to the family's coefficients.  Pinhole and radial rows
    keep only rays with Z above _EPS_Z.  The extended unified model is not
    linear in f and has its own rows (``_eucm_rows``).
    """
    fam = model.family
    X, Y, Z = rays[:, 0], rays[:, 1], rays[:, 2]
    du = pixels[:, 0] - c[0]
    dv = pixels[:, 1] - c[1]
    if fam in (Family.PINHOLE, Family.BROWN_CONRADY):
        keep = Z > _EPS_Z
        X, Y, Z, du, dv = X[keep], Y[keep], Z[keep], du[keep], dv[keep]
    R = np.hypot(X, Y)
    Ra = np.sqrt(X * X + a * a * Y * Y)
    rc = np.hypot(du, dv)
    orders = range(1, model.num_dist + 1)
    if fam is Family.PINHOLE:
        cols = [Ra, rc * Z]
    elif fam is Family.BROWN_CONRADY:
        rho2 = (R / Z) ** 2
        cols = [rc * Z, *(-Ra * rho2**n for n in orders), Ra]
    elif fam is Family.KANNALA_BRANDT:
        theta = np.arctan2(R, Z)
        cols = [R * rc, *(-Ra * theta ** (2 * n + 1) for n in orders), Ra * theta]
    elif fam is Family.UCM:
        d = np.sqrt(X * X + Y * Y + Z * Z)
        cols = [Ra, -rc * d, rc * Z]
    elif fam is Family.DIVISION:
        rca2 = du * du + (dv / a) ** 2
        cols = [Ra, *(Ra * rca2**n for n in orders), rc * Z]
    else:
        raise UnsupportedFamily(f"no linear rows for family {fam!r}")
    return np.stack(cols).T


def _eucm_rows(
    pixels: np.ndarray, rays: np.ndarray, f: float, a: float, c: tuple[float, float]
) -> np.ndarray:
    """Rows [col_g | col_a | rhs] of the extended unified model at a known focal."""
    X, Y, Z = rays[:, 0], rays[:, 1], rays[:, 2]
    R = np.hypot(X, Y)
    mx = (pixels[:, 0] - c[0]) / f
    my = (pixels[:, 1] - c[1]) / (a * f)
    r = np.hypot(mx, my)
    return np.stack([r * r * R * R, 2.0 * r * Z * (r * Z - R), (R - r * Z) ** 2]).T



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
    f: float | None = None,
) -> tuple[CameraSpec, tuple[str, ...]]:
    """The stage-2 solve: the spec the family's rows give once (a, c) are known,
    and the bounds it enforced.  A held focal ``f`` moves its column to the
    right-hand side; eucm takes ``f`` or the focal of a kb:3 proxy fit.  A ucm
    xi outside its box goes to its bound, and a free focal is solved again."""
    fam, held = model.family, f is not None
    if fam is Family.EUCM:
        if not held:
            proxy = ModelId(Family.KANNALA_BRANDT, EUCM_PROXY_ORDER)
            f = _fit_linear_full(proxy, corrs, a, c, size)[0].fx
        dist, bounds = _eucm_dist(corrs, f, a, c)
        return _make_spec(model, f, a, c, dist, size), bounds
    inverse = fam in _INVERSE_FOCAL

    def rows(px: np.ndarray, rays: np.ndarray) -> np.ndarray:
        A = _family_rows(model, px, rays, a, c)
        if not held:
            return A
        # the held focal's column moves to the right-hand side
        A[:, -1] -= A[:, 0] / f if inverse else A[:, 0] * f
        return A[:, 1:]

    R, m = _row_qr(corrs, rows, model.num_dist + (1 if held else 2))
    ks = _solve(R, m, f"fixed-focal {fam.value} solve" if held else f"{fam.value} linear solve")
    if not held:
        f, ks = float(ks[0]), ks[1:]
        if inverse:
            if f <= 0:
                raise InvalidFocal(f"solved inverse focal {f:.6g} is not positive")
            f = 1.0 / f
    ks, bounds, _ = _in_box(fam, ks)  # only ucm's xi has a bound
    if bounds and not held:
        f = _resolve(R[:, 0], R[:, 2] - ks[0] * R[:, 1])
    if fam is Family.DIVISION:  # the rows solve for k'_n = k_n / f^(2n-1)
        ks = [k * f ** (2 * n - 1) for n, k in enumerate(ks, start=1)]
    return _make_spec(model, f, a, c, tuple(ks), size), bounds



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
    """(alpha, beta) at a known focal from the (gamma, alpha) rows, gamma =
    alpha^2 beta, with the active set on the eucm box (``models._BOX``), and
    the bounds it is on.  A clamped unknown is held and the other re-solved.
    """
    alpha_lo = _in_box(Family.EUCM, (-math.inf,))[0][0]  # the box's lowest alpha
    R, m = _row_qr(corrs, lambda px, rays: _eucm_rows(px, rays, f, a, c), 3)
    gamma, alpha = _solve(R, m, "eucm (gamma, alpha) solve")
    col_g, col_a, rhs = R.T

    if (clamped := _in_box(Family.EUCM, (alpha,))[0][0]) != alpha:
        alpha, gamma = clamped, _resolve(col_g, rhs - clamped * col_a)

    # a gamma within the solve's resolution of zero has the sign of roundoff
    tol = _RCOND * float(np.linalg.norm(rhs)) / float(np.linalg.norm(col_g))
    if gamma <= tol and alpha > alpha_lo:
        gamma, alpha = 0.0, _in_box(Family.EUCM, (_resolve(col_a, rhs),))[0][0]

    if alpha < 1e-9:
        # alpha = 0 reduces the model to a pinhole: beta is unidentifiable
        return _in_box(Family.EUCM, (alpha_lo, 1.0))[:2]
    return _in_box(Family.EUCM, (float(alpha), float(gamma) / float(alpha) ** 2))[:2]


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


def _tangent_basis(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis b1, b2 of the tangent plane at each unit vector p
    (m, 3), each as (3, m) rows of components.

    b1 = ref x p / |ref x p| with ref = z, or x where |p_z| >= 0.9, and
    b2 = p x b1.
    """
    x, y, z = p.T
    pole = np.abs(z) >= 0.9
    # z x p = (-y, x, 0) and x x p = (0, -z, y)
    c1, c2, c3 = np.where(pole, 0.0, -y), np.where(pole, -z, x), np.where(pole, y, 0.0)
    norm = np.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    b1 = np.stack([c1, c2, c3]) / norm
    c1, c2, c3 = b1
    return b1, np.stack([y * c3 - z * c2, z * c1 - x * c3, x * c2 - y * c1])


def _arc_factor(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta / sin(theta) expressed through c = cos(theta), and its derivative
    d/dc = (c w - 1) / (1 - c^2); near c = 1 they switch to their limits 1
    and -1/3.  1 - c^2 is formed as (1 - c)(1 + c): 1 - c is exact there, and
    1 - c * c would lose the digits that w and the quotient's small
    numerator c w - 1 depend on."""
    s2 = (1.0 - c) * (1.0 + c)
    small = s2 < 1e-16
    w = np.where(small, 1.0, np.arccos(np.clip(c, -1.0, 1.0)) / np.sqrt(np.where(small, 1.0, s2)))
    small = s2 < 1e-8
    return w, np.where(small, -1.0 / 3.0, (c * w - 1.0) / np.where(small, 1.0, s2))


def _contract(a: np.ndarray, v) -> np.ndarray:
    """sum_i a[..., i, :] * v[i] of a (..., 3, m) and a 3-vector v per cell,
    whose components may be the constants 0.0 and 1.0 (``_RayCells.derivatives``)."""
    terms = [a[..., i, :] * vi if np.ndim(vi) else a[..., i, :] for i, vi in enumerate(v)
             if np.ndim(vi) or vi]
    acc = terms[0] + terms[1] if len(terms) > 1 else terms[0]
    for term in terms[2:]:
        acc += term  # in place: acc is a new array here
    return acc


def _block_rows(
    spec: CameraSpec,
    pixels: np.ndarray,
    targets: np.ndarray,
    free_idx: np.ndarray,
    out: np.ndarray,
) -> tuple[float, int]:
    """Write the rows [J_free | -e] of some cells (targets (m, 3)) into out, a
    (k + 1, 2, m) view: the column pair of d(e1, e2)/d(fx, fy, cx, cy,
    *dist)[free_idx[i]] into out[i] and -(e1, e2) into out[k].  Returns the
    sum of squared residuals and the count of valid cells.

    The residual e_i = w(c) (b_i . q) of q = g / |g| and c = target . q, with
    b1, b2 the tangent basis of the block's own targets, has the gradient
    G_i = (w b_i - (b_i . q) h) / |g| with respect to g, where
    h = (w + c w') q - w' target.  G is built once, as (2, 3, m), and taken
    against three ray derivatives from the unprojection's ``derivatives``
    (``models._RayCells``): dg/dmx, dg/dmy and the direction d of
    dg/dk_n = scale_n d.  The intrinsics enter g only through
    m = ((u - cx) / fx, (v - cy) / fy), so every column is one of the three
    contractions times a per-cell or constant factor.  Invalid cells have
    zero rows.
    """
    q, ok, ray = _unproject_cells(spec, pixels)
    # component rows: views of the component-major rays and correspondences
    q, t = q.T, targets.T
    c = _contract(t, q)
    w, dw = _arc_factor(c)
    b1, b2 = _tangent_basis(targets)
    b1q, b2q = _contract(b1, q), _contract(b2, q)
    e1 = np.where(ok, w * b1q, 0.0)
    e2 = np.where(ok, w * b2q, 0.0)
    k = len(free_idx)
    np.negative(e1, out=out[k, 0])
    np.negative(e2, out=out[k, 1])
    sq = float(e1 @ e1 + e2 @ e2)
    inv = 1.0 / ray.norm
    h = (w + c * dw) * q
    h -= dw * t
    wn = w * inv
    G = np.empty((2, 3, len(ok)))
    for Gi, b, bq in zip(G, (b1, b2), (b1q, b2q)):
        np.multiply(wn, b, out=Gi)
        Gi -= (bq * inv) * h
    # freed before the block's peak: the ray derivatives and contractions
    del e1, e2, q, c, w, dw, b1, b2, b1q, b2q, inv, h, wn
    dgx, dgy, d, scales = ray.derivatives()
    jx, jy = _contract(G, dgx), _contract(G, dgy)
    jd = [] if d is None else [_contract(G, d)] * len(scales)
    sources = [jx, jy, jx, jy, *jd]
    fx, fy = spec.fx, spec.fy
    factors = [-ray.mx / fx, -ray.my / fy, -1.0 / fx, -1.0 / fy, *scales]
    for col, j in zip(out, free_idx):
        np.multiply(sources[j], factors[j], out=col)
    if not ok.all():
        out[:k, :, ~ok] = 0.0
    return sq, int(np.count_nonzero(ok))


def residual_jacobian(
    spec: CameraSpec, pixels: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobian of the tangent residuals w.r.t. (fx, fy, cx, cy, *dist),
    and the residuals: shapes (n, 2, 4 + num_dist) and (n, 2).

    Every family is differentiated in closed form; the Newton-inverted ones
    (radial, kb) through implicit derivatives of the converged solve.  Filled
    block by block with refinement's row writer (``_block_rows``).
    """
    k = 4 + spec.model.num_dist
    rows = np.empty((len(pixels), 2, k + 1))
    every = np.arange(k)
    for sl in _blocks(len(pixels)):
        _block_rows(spec, pixels[sl], targets[sl], every, rows[sl].transpose(2, 1, 0))
    return rows[..., :k], -rows[..., k]


def _pass(
    spec: CameraSpec, corrs: Correspondences, free_idx: np.ndarray
) -> tuple[float, int, np.ndarray]:
    """One residual pass of refinement, block by block.

    Returns the mean squared tangent residual over the valid cells (inf if
    none), their count and the factor R of [J_free | -e].  ``_block_rows``
    writes each block's rows into one buffer of the pass, whose e1 half and
    e2 half are two column-major leaves of ``_tsqr``; each leaf is factored
    before the next block overwrites it, so the pass allocates nothing per
    cell beyond that buffer.
    """
    n, k = len(corrs), len(free_idx)
    total, valid = 0.0, 0  # squared residuals and valid cells so far
    buffer = np.empty((2, k + 1, min(n, _BLOCK)))

    def rows() -> Iterator[np.ndarray]:
        nonlocal total, valid
        for sl in _blocks(n):
            # halves[i].T is the leaf of e_i; its transpose (1, 0, 2) holds
            # column j of both halves at [j], (2, m)
            halves = buffer[:, :, : sl.stop - sl.start]
            sq, block_valid = _block_rows(
                spec, corrs.pixels[sl], corrs.rays[sl], free_idx, halves.transpose(1, 0, 2))
            total += sq
            valid += block_valid
            yield halves[0].T
            yield halves[1].T

    R, _ = _tsqr(rows(), k + 1)
    cost = total / valid if valid else math.inf
    return cost, valid, R


def _coarse_cells(corrs: Correspondences, width: int, height: int) -> np.ndarray:
    """Indices of the cells whose grid column and row, counted from the nearer
    image edge, are multiples of _COARSE_STEP: 1/16 of a full grid (exactly
    so when both sides are multiples of 8 cells).

    The cells come in grid order (``Correspondences._from_grid``), so the
    smallest positive step in u between neighbors of the first block is the
    grid's pitch p, and a cell at distance x from the nearer edge lies in
    column floor(x / p) counted from that edge.  That holds whenever the
    grid's outermost centers lie less than p inside the edges: p / 2 on a
    field's own grid (``pixel_axes``), and up to p - 1/2 at the far end of
    a stride-1 grid sampled at stride p.  A mirror keeps each cell's
    distances to the nearer edges, and a transposition swaps its column
    and row distances, which the rule treats alike, so both map the kept
    cells of a grid onto themselves.  With no such step (a single column)
    every cell is kept.  Built block by block, so the mask holds one byte
    per cell."""
    u, v = corrs.pixels.T
    steps = np.diff(u[:_BLOCK])
    scale = 1.0 / np.min(steps, where=steps > 0.0, initial=np.inf)

    def lines(x: np.ndarray, extent: int) -> np.ndarray:
        return (np.minimum(x, extent - x) * scale).astype(np.intp)

    keep = np.empty(len(corrs), dtype=bool)
    for sl in _blocks(len(corrs)):
        # _COARSE_STEP is a power of two, so the low bits of both indices decide
        np.equal((lines(u[sl], width) | lines(v[sl], height)) & (_COARSE_STEP - 1), 0,
                 out=keep[sl])
    return np.flatnonzero(keep)


def _gauss_newton(
    spec0: CameraSpec, kappa: np.ndarray, corrs: Correspondences, free_idx: np.ndarray
) -> tuple[np.ndarray, tuple[float, ...], int, str | None]:
    """Up to _GN_ITERATIONS Gauss-Newton iterations on corrs from the
    parameters kappa of ``spec0``'s model, with ``refine``'s steps and stops.
    Returns the final parameters, the per-iteration costs, the count of
    valid cells in the last pass and the warning, if any."""
    n, k, family = len(corrs), len(free_idx), spec0.model.family
    cost, valid, R = _pass(_spec_of(spec0, kappa), corrs, free_idx)
    costs = [cost]
    warning = None

    for _ in range(_GN_ITERATIONS):
        if cost <= 1e-30:  # further iterations would only shuffle roundoff
            break
        try:
            delta = _solve(R, 2 * n, "Gauss-Newton step")
        except DegenerateGeometry:
            warning = "singular Gauss-Newton step; refinement stopped early"
            break
        # the step removes |R[:k, k]|^2 of |e|^2 = |R[:k, k]|^2 + R[k, k]^2,
        # and 2 valid - k residual degrees of freedom estimate the noise
        pred, rest = float(R[:k, k] @ R[:k, k]), float(R[k, k]) ** 2
        if 2 * valid > k and pred * (2 * valid - k) <= _GN_TAU**2 * rest:
            break

        step = 1.0
        for _ in range(_GN_MAX_HALVINGS + 1):
            cand = kappa.copy()
            cand[free_idx] += step * delta
            cand[4:] = _in_box(family, cand[4:])[0]
            if cand[0] > 0.0 and cand[1] > 0.0:
                trial = _pass(_spec_of(spec0, cand), corrs, free_idx)
                if trial[0] <= cost:
                    kappa, (cost, valid, R) = cand, trial
                    break
            step *= 0.5
        else:
            # every trial was rejected and kappa did not move, so each later
            # iteration would rebuild the same step and reject it again
            break
        costs.append(cost)
    costs.extend([cost] * (_GN_ITERATIONS + 1 - len(costs)))
    return kappa, tuple(costs), valid, warning


def refine(
    spec0: CameraSpec, corrs: Correspondences, free: np.ndarray | None = None
) -> CalibrationResult:
    """Polish intrinsics with up to five Gauss-Newton iterations on tangent residuals.

    Minimizes the mean squared tangent-plane distance between the target rays
    and the unprojections of the current intrinsics, over the parameters
    (fx, fy, cx, cy, *dist) indexed by ``free`` (default: all of them), with
    the start and every trial clamped into the family's box (``models._BOX``).
    Steps that would increase the cost are halved up to four times and
    rejected if still worse, so ``gn_costs`` never increases.  Refinement
    stops at a cost at roundoff level, a singular step, a step the data
    cannot resolve, or a rejected step (the parameters did not move, so
    every later iteration would repeat it); the remaining ``gn_costs``
    entries repeat the last cost.

    A step the data cannot resolve moves the fit by at most _GN_TAU = 0.1
    standard errors, in the metric of the parameters' covariance (the
    relative-offset criterion of Bates & Watts, Technometrics 23(2), 1981):
    its squared length there is |R[:k, k]|^2 over the residual variance
    R[k, k]^2 / (2 valid - k).  Stopping 0.1 standard errors short adds
    0.01 to the expected squared Mahalanobis error of the fit, which is
    k >= 4 at the optimum, so the fit loses at most 0.25% of its efficiency.
    On a clean field R[k, k] is roundoff, so this stop waits for a step far
    below roundoff, and exact recovery keeps its tolerances.

    From _COARSE_MIN_CELLS correspondences on, refinement first runs once
    on the coarse subset (``_coarse_cells``: every fourth grid column and
    row, counted from the nearer image edge, so that mirrored and
    transposed fields refine the same cells) and then at full resolution
    from that result, with the same stops.  The subset's optimum lies a few
    standard errors of the full data from the full optimum, so one full
    step from there usually ends inside the 0.1-standard-error stop.  The
    threshold comes from a size sweep (14 fits of 7 models x 2 cameras at
    0.3 degrees of noise, CPU time of ``calibrate`` with and without the
    coarse stage, alternated per fit, best of 5, 2 vCPUs); time with it
    over time without it:

        side      64     96    104    112    128    192    256    384
        ratio   1.22   0.91   1.02   0.94   0.91   0.80   0.75   0.79

    The coarse stage cut the cells passed over by 11-33% at every size,
    but below 112x112 = 12,544 cells its own passes' overhead ate the
    saving at some sizes (8.6 to 10.6 ms at 64x64); from there on it saved
    time at every size.  ``gn_costs`` are those of the full-resolution
    stage, starting at the subset's result; ``algebraic_spec`` stays
    ``spec0``.
    """
    kappa = _params_of(spec0)
    kappa[4:] = _in_box(spec0.model.family, kappa[4:])[0]
    free_idx = np.arange(len(kappa)) if free is None else np.asarray(free, dtype=int)
    if len(corrs) >= _COARSE_MIN_CELLS:
        coarse = corrs.subset(_coarse_cells(corrs, spec0.width, spec0.height))
        kappa = _gauss_newton(spec0, kappa, coarse, free_idx)[0]
        del coarse  # so the full-resolution passes do not hold it too
    kappa, costs, valid, warning = _gauss_newton(spec0, kappa, corrs, free_idx)
    return CalibrationResult(
        spec=_spec_of(spec0, kappa),
        algebraic_spec=spec0,
        gn_costs=costs,
        warning=warning,
        dropped=len(corrs) - valid,
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
    invalid = validate_spec(result.spec).violations
    if invalid:
        notes = (result.warning, f"fitted spec invalid: {'; '.join(invalid)}")
        result = replace(result, warning="; ".join(w for w in notes if w))
    return replace(result, ppoint_residual=ppoint_residual, active_bounds=bounds)


def _field_corrs(fov_field: FovField, stride: int) -> tuple[Correspondences, int]:
    """The correspondences of a field's cells that the exp map accepts
    (``Correspondences.from_field``) and the count of the others, both at
    ``stride``."""
    corrs = Correspondences.from_field(fov_field, stride)
    return corrs, fov_field.theta[::stride, ::stride].size // 2 - len(corrs)


def calibrate(fov_field: FovField, model: ModelId, stride: int = 1) -> CalibrationResult:
    """Recover intrinsics of ``model`` from a FoV field.

    Rays are exp-mapped from the field, paired with their pixel centers
    (optionally strided), and passed through the closed-form stages and the
    Gauss-Newton refinement.
    """
    corrs, holes = _field_corrs(fov_field, stride)
    result = _fit_corrs(model, corrs, (fov_field.width, fov_field.height))
    return replace(result, dropped=result.dropped + holes)


def _angular_residuals(spec: CameraSpec, corrs: Correspondences) -> np.ndarray:
    """Angle (rad) between each target ray and the spec's unprojection; inf if
    invalid.  Scored block by block."""
    ang = np.empty(len(corrs))
    for sl in _blocks(len(corrs)):
        q, ok, _ = _unproject_cells(spec, corrs.pixels[sl])
        ang[sl] = np.where(ok, _ray_angle(q, corrs.rays[sl]), np.inf)
    return ang


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
        ValueError: if ``iters`` is below 1 or ``thresh`` is not positive.
        NoConsensus: if the best inlier ratio is below 10%.
    """
    if iters < 1 or not thresh > 0:
        raise ValueError(f"need iters >= 1 and thresh > 0, got {iters} and {thresh}")
    corrs, holes = _field_corrs(fov_field, stride)
    size = (fov_field.width, fov_field.height)
    n = len(corrs)
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
        except (DegenerateGeometry, InvalidFocal):
            continue
        ang = _angular_residuals(cand, corrs)
        mask = ang < thresh
        count = int(np.count_nonzero(mask))
        score = float(np.mean(ang[mask])) if count else math.inf
        if count > best_count or (count == best_count and score < best_score):
            best_mask, best_count, best_score = mask, count, score

    if best_count < 0.1 * n:
        raise NoConsensus(
            f"best inlier count {best_count}/{n} below the 10% consensus floor"
        )
    result = _fit_corrs(model, corrs.subset(np.flatnonzero(best_mask)), size)
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
    size, a, c = (src.width, src.height), src.aspect, (src.cx, src.cy)
    if not fix_focal:
        return _fit_corrs(dst_model, corrs, size).spec
    if dst_model.num_dist == 0:
        return _make_spec(dst_model, src.fx, a, c, (), size)
    spec0, _ = _fit_linear_full(dst_model, corrs, a, c, size, src.fx)
    return refine(spec0, corrs, free=np.arange(4, 4 + dst_model.num_dist)).spec
