"""Camera model families: projection, unprojection and physical-validity limits.

Six families are supported, identified by a model string:

    pinhole                 perspective projection
    radial:N    (N = 1..4)  Brown-Conrady, radial polynomial in (R/Z)^2
    kb:N        (N = 1..4)  Kannala-Brandt, odd polynomial in the polar angle
    ucm                     unified camera model, dist = [xi]
    eucm                    extended unified camera model, dist = [alpha, beta]
    division:N  (N = 1..3)  backward model, psi(r) = 1 + sum_n k_n r^(2n)

All forward models project a unit ray p = [X, Y, Z] as

    [u, v] = fx * phi(R, Z) * [X, (fy/fx) * Y] + [cx, cy],    R = hypot(X, Y)

with the family-specific radial function phi.  The division model is defined
backwards, by its unprojection [X, Y, Z] ~ [m_x, m_y, psi(r)] with
m = ((u - cx)/fx, (v - cy)/fy) and r = |m|; its forward map inverts that
relation with a Newton solve.  Brown-Conrady and Kannala-Brandt
unprojections invert the odd polynomial x + sum_n k_n x^(2n+1) = r, for
x = rho = R/Z and x = theta respectively.  One solver, ``_newton``, serves
these radial/kb unprojections, the division projection and the LensFun
undistortion in ``synth``, with one contract per cell: the root in a bracket
[0, hi], or none (the bracket end first, then Newton, then bisection).

Each family's image ends at one closed-form normalized radius,
``_domain_radius`` (Usenko et al., Double Sphere, 3DV 2018, tabulate these
domains).  Only the ``_CLAMPED`` families, radial and eucm, clamp the focal
to keep the image inside it (``min_focal``); the samplers redraw the other
families' cameras instead.

Pixel coordinates live in the continuous domain [0, W] x [0, H]; sampled
grids use pixel centers (i + 0.5, j + 0.5).

Dense per-cell work is cut into blocks of ``_BLOCK`` cells here, once for
the package (``_blocks``; ``_grid_blocks`` for pixel grids): unprojection,
projection, field generation, the metrics, RANSAC scoring and the fit.
A cell's result does not depend on its block.  A block's freed temporaries
stay resident for the next block (see the buffer freed after ``_BLOCK``);
the cost is up to 8 MiB of freed heap that each malloc arena keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NonInvertiblePixel, RayOutsideDomain, UnsupportedFamily

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 20

# slack added to the valid-cone bound so that rays unprojected from pixels
# exactly on the image border re-project without tripping the domain check
_THETA_MAX_SLACK = 1e-9

_KB_THETA_CAP = math.pi - 1e-9  # largest kb polar angle, short of the antipode

# cells per block of dense per-cell work: one float per cell of a block is
# 64 KiB, and a least-squares block of 16,384 rows is about 1 MiB
_BLOCK = 8192

# Keep one block's working set resident.  glibc's malloc raises its mmap
# threshold to the largest mmapped chunk freed so far, and its trim threshold
# to twice that (mallopt(3)).  A 128x128 fit frees no array above 768 KiB, so
# the trim threshold would stay below one pass's block temporaries (3 to
# 4 MiB), and each block would hand its memory back to the kernel at free()
# for the next block to fault in again: a third of the fit's time.  Freeing
# one untouched buffer of 512 bytes per cell of a block (4 MiB) raises the
# thresholds to 4 and 8 MiB, so freed block temporaries stay in the heap.
# The buffer is never written, so it is never resident.  MALLOC_* settings
# switch the dynamic rule off and stay in force; other allocators ignore it.
np.empty(512 * _BLOCK, dtype=np.uint8)


class Family(Enum):
    PINHOLE = "pinhole"
    BROWN_CONRADY = "radial"
    KANNALA_BRANDT = "kb"
    UCM = "ucm"
    EUCM = "eucm"
    DIVISION = "division"


# allowed number of distortion coefficients per family
_DIST_RANGE: dict[Family, tuple[int, int]] = {
    Family.PINHOLE: (0, 0),
    Family.BROWN_CONRADY: (1, 4),
    Family.KANNALA_BRANDT: (1, 4),
    Family.UCM: (1, 1),
    Family.EUCM: (2, 2),
    Family.DIVISION: (1, 3),
}

_VARIABLE_DIST = {Family.BROWN_CONRADY, Family.KANNALA_BRANDT, Family.DIVISION}

_CLAMPED = (Family.BROWN_CONRADY, Family.EUCM)  # the families whose focal min_focal clamps


@dataclass(frozen=True)
class ModelId:
    """A model family plus its number of distortion coefficients."""

    family: Family
    num_dist: int

    def __post_init__(self) -> None:
        lo, hi = _DIST_RANGE[self.family]
        if not lo <= self.num_dist <= hi:
            raise ValueError(
                f"{self.family.value} supports {lo}..{hi} distortion "
                f"coefficients, got {self.num_dist}"
            )

    def __str__(self) -> str:
        if self.family in _VARIABLE_DIST:
            return f"{self.family.value}:{self.num_dist}"
        return self.family.value


def parse_model(text: str) -> ModelId:
    """Parse a model string such as ``pinhole``, ``kb:4`` or ``division:2``."""
    name, sep, count = text.strip().partition(":")
    try:
        family = Family(name)
    except ValueError:
        raise ValueError(f"unknown camera model {text!r}") from None
    if family in _VARIABLE_DIST:
        if not sep:
            raise ValueError(f"{name} requires a coefficient count, e.g. {name}:2")
        num = int(count)
    else:
        if sep:
            raise ValueError(f"{name} does not take a coefficient count")
        num = _DIST_RANGE[family][0]
    return ModelId(family, num)


@dataclass(frozen=True)
class CameraSpec:
    """Intrinsic parameters of one camera.

    ``dist`` holds the family's coefficients in canonical order: k_1..k_N for
    radial/kb/division, [xi] for ucm, [alpha, beta] for eucm.
    """

    model: ModelId
    fx: float
    fy: float
    cx: float
    cy: float
    dist: tuple[float, ...]
    width: int
    height: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dist", tuple(float(k) for k in self.dist))
        if len(self.dist) != self.model.num_dist:
            raise ValueError(
                f"{self.model} expects {self.model.num_dist} coefficients, "
                f"got {len(self.dist)}"
            )

    @property
    def aspect(self) -> float:
        """Pixel aspect ratio a = fy / fx."""
        return self.fy / self.fx

    def replace(self, **changes) -> "CameraSpec":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "model": str(self.model),
            "width": self.width,
            "height": self.height,
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "dist": list(self.dist),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CameraSpec":
        return cls(
            model=parse_model(data["model"]),
            fx=float(data["fx"]),
            fy=float(data["fy"]),
            cx=float(data["cx"]),
            cy=float(data["cy"]),
            dist=tuple(float(k) for k in data.get("dist", [])),
            width=int(data["width"]),
            height=int(data["height"]),
        )


def pixel_axes(width: int, height: int, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The u coordinates of the grid columns and the v coordinates of its rows:
    cell (j, i) is the center ((i + 0.5) * stride, (j + 0.5) * stride) of its
    stride x stride block.

    Raises:
        ValueError: if ``stride`` is below 1.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    u = (np.arange(width // stride) + 0.5) * stride
    v = (np.arange(height // stride) + 0.5) * stride
    return u, v


def pixel_centers(width: int, height: int, stride: int = 1) -> np.ndarray:
    """(height // stride, width // stride, 2) grid of sampled pixel centers
    (``pixel_axes``)."""
    uu, vv = np.meshgrid(*pixel_axes(width, height, stride))
    return np.stack([uu, vv], axis=-1)


def _blocks(n: int) -> Iterator[slice]:
    """Slices of at most _BLOCK cells covering range(n)."""
    return (slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _grid_blocks(u: np.ndarray, v: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(cells, pixels) of each block of the row-major grid of columns u and
    rows v (``pixel_axes``): the block's slice of the flattened grid and its
    (m, 2) pixel centers, built from the grid rows the block touches."""
    w = len(u)
    for sl in _blocks(w * len(v)):
        j0 = sl.start // w
        px = np.empty((-(-sl.stop // w) - j0, w, 2))
        px[..., 0], px[..., 1] = u, v[j0 : j0 + len(px), None]
        yield sl, px.reshape(-1, 2)[sl.start - j0 * w : sl.stop - j0 * w]


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients k_1..k_N over even powers of the argument)
# ---------------------------------------------------------------------------


def _even_poly(ks: tuple[float, ...], x2: np.ndarray) -> np.ndarray:
    """1 + k_1 x^2 + k_2 x^4 + ... evaluated from x^2 (Horner)."""
    acc = np.zeros_like(x2)
    for k in reversed(ks):
        acc = (acc + k) * x2
    return 1.0 + acc


def _even_poly_deriv(ks: tuple[float, ...], x2: np.ndarray) -> np.ndarray:
    """d/dx2 of ``_even_poly``: sum_n n k_n x^(2n-2)."""
    acc = np.zeros_like(x2)
    for n in range(len(ks), 0, -1):
        acc = acc * x2 + n * ks[n - 1]
    return acc


def _odd_poly(ks: tuple[float, ...], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = x + k_1 x^3 + ... + k_N x^(2N+1) and h' = 1 + 3 k_1 x^2 + ...
    + (2N+1) k_N x^(2N), in one Horner loop sharing x^2 (N >= 1)."""
    x2 = x * x
    acc, acc_p = ks[-1] * x2, (2 * len(ks) + 1) * ks[-1]
    for n in range(len(ks) - 1, 0, -1):
        acc, acc_p = (acc + ks[n - 1]) * x2, acc_p * x2 + (2 * n + 1) * ks[n - 1]
    return x * (1.0 + acc), 1.0 + acc_p * x2


@lru_cache(maxsize=65536)
def _first_positive_root_even(coeffs: tuple[float, ...]) -> float:
    """Smallest positive x with 1 + sum_n coeffs[n-1] x^(2n) = 0, or inf."""
    if all(c >= 0 for c in coeffs):
        return math.inf
    # roots in y = x^2 of 1 + sum coeffs[n-1] y^n
    roots = np.roots(list(reversed([1.0, *coeffs])))
    real = roots[np.abs(roots.imag) < 1e-9].real
    pos = real[real > 0]
    if pos.size == 0:
        return math.inf
    return float(np.sqrt(pos.min()))


def _stationary_radius(ks: tuple[float, ...]) -> float:
    """First stationary point of x * (1 + sum k_n x^(2n)): the fold of forward
    radial polynomials (Brown-Conrady in rho = R/Z, Kannala-Brandt in theta)."""
    return _first_positive_root_even(tuple((2 * n + 1) * k for n, k in enumerate(ks, 1)))


def _division_fold_radius(ks: tuple[float, ...]) -> float:
    """First stationary point of atan2(r, psi(r)): where psi - r psi' hits 0."""
    return _first_positive_root_even(tuple((1 - 2 * n) * k for n, k in enumerate(ks, 1)))


def _newton(fun, target: np.ndarray, x0: np.ndarray, hi) -> tuple[np.ndarray, np.ndarray]:
    """Root of h(x) = g(x) - target in [0, hi] per cell, or none (``rtsafe``'s
    contract, Press et al., Numerical Recipes, 9.4): (x, has_root).

    ``fun(x)`` returns (g, g') elementwise, with g(0) <= target; ``hi`` is one
    finite bound or one per cell.  Cells with h(hi) <= 0 or NaN take x = hi at
    once, a root only if h(hi) = 0.  The others take clipped Newton steps from
    ``x0`` up to their first step of at most NEWTON_TOL; any still open after
    NEWTON_MAX_ITER steps are bisected ceil(log2(hi / NEWTON_TOL)) times.
    """
    h_hi = fun(hi)[0] - target
    valid = h_hi >= 0.0
    done = ~(h_hi > 0.0)
    x = np.where(done, hi, x0)
    for _ in range(NEWTON_MAX_ITER):
        if done.all():
            return x, valid
        g, gp = fun(x)
        step = (g - target) / np.where(np.abs(gp) > 1e-300, gp, 1.0)
        x = np.where(done, x, np.clip(x - step, 0.0, hi))
        done |= np.abs(step) <= NEWTON_TOL
    open_ = ~done
    t = np.broadcast_to(target, x.shape)[open_]
    lo, up = np.zeros(t.shape), np.broadcast_to(hi, x.shape)[open_]
    halvings = np.ceil(np.log2(up / NEWTON_TOL))
    for k in range(int(halvings.max(initial=0.0))):
        mid = 0.5 * (lo + up)
        below = fun(mid)[0] <= t
        go = k < halvings  # a cell halves its own bracket only
        lo, up = np.where(go & below, mid, lo), np.where(go & ~below, mid, up)
    x[open_] = 0.5 * (lo + up)
    return x, valid


# ---------------------------------------------------------------------------
# normalized radial profiles r_m(theta) = phi(sin t, cos t) * sin t
# ---------------------------------------------------------------------------


def radial_profile(spec: CameraSpec, theta: np.ndarray) -> np.ndarray:
    """Projected pixel radius |x - c| at polar angle theta, along the x axis.

    Invalid angles (outside the model's mathematical domain) come back NaN.
    No injectivity check is applied, which makes this the tool for *checking*
    injectivity: the projection is injective over a disc exactly when the
    profile is strictly increasing up to the disc radius.
    """
    theta = np.asarray(theta, dtype=np.float64)
    s = np.sin(theta)
    scale, ok, _ = _projection_scale(spec, s, 0.0, np.cos(theta))
    return spec.fx * np.where(ok, scale * s, np.nan)


def _corner_norm_radius(spec: CameraSpec) -> float:
    """Max normalized radius |m| over the four image corners."""
    mx = (np.array([0.0, spec.width]) - spec.cx) / spec.fx
    my = (np.array([0.0, spec.height]) - spec.cy) / (spec.aspect * spec.fx)
    return float(np.max(np.hypot(mx[:, None], my)))


def theta_max(spec: CameraSpec) -> float:
    """Largest polar angle the camera images: the polar angle of the ray
    unprojected at the image corner's normalized radius, or at the model's
    domain end (``_domain_radius``) if that comes first.

    The ray's validity flag is ignored: at the ucm and eucm domain ends
    roundoff can leave a square root's argument 1 ulp below 0 and flag an
    exact ray.  A slack of 1e-9 rad keeps border pixels round-trippable.
    """
    unit = spec.replace(fx=1.0, fy=1.0, cx=0.0, cy=0.0)  # pixels are normalized radii
    r = min(_corner_norm_radius(spec), _domain_radius(spec.model, spec.dist))
    X, Y, Z = _unproject_cells(unit, np.array([r, 0.0]))[0]
    return math.atan2(math.hypot(X, Y), Z) + _THETA_MAX_SLACK


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _division_forward_radius(
    spec: CameraSpec, R: np.ndarray, Z: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve atan2(r, psi(r)) = theta = atan2(R, Z) for the normalized radius r.

    The angle profile is strictly monotone up to the model's fold radius,
    which ends the ``_newton`` bracket: a ray past the fold angle has no root.
    Newton starts from the pinhole radius.  Without a fold, each cell's
    bracket doubles from 2 theta + 1 until its angle reaches the cell's theta,
    so its radius depends on its ray and the spec alone.  Returns (r, has_root).
    """
    ks = spec.dist
    r_fold = _division_fold_radius(ks)
    if math.isfinite(r_fold):
        hi = 0.999999 * r_fold
    else:
        hi = 2.0 * theta + 1.0
        for _ in range(200):
            short = np.arctan2(hi, _even_poly(ks, hi * hi)) < theta
            if not short.any():
                break
            hi = np.where(short, 2.0 * hi, hi)

    def fun(r):
        r2 = r * r
        psi = _even_poly(ks, r2)
        # d/dr atan2(r, psi) = (psi - r psi') / (r^2 + psi^2), positive on the
        # monotone domain
        gp = (psi - 2.0 * r2 * _even_poly_deriv(ks, r2)) / (r2 + psi * psi)
        return np.arctan2(r, psi), gp

    r0 = np.clip(np.where(Z > 0.2, R / np.where(Z > 0.2, Z, 1.0), theta), 0.0, hi)
    return _newton(fun, theta, r0, hi)


def _projection_scale(spec: CameraSpec, X, Y, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(R, Z) of the forward model, the mask of rays in its domain and the
    polar angle atan2(R, Z).  The valid cone (``theta_max``) is left to the
    caller; the radial profile is phi(sin t, cos t) sin t."""
    fam = spec.model.family
    R = np.hypot(X, Y)
    theta = np.arctan2(R, Z)
    ok = True
    if fam in (Family.PINHOLE, Family.BROWN_CONRADY):
        safe_z = np.where(Z > 1e-12, Z, 1.0)
        scale = 1.0 / safe_z
        if fam is Family.BROWN_CONRADY:
            scale = scale * _even_poly(spec.dist, (R / safe_z) ** 2)
        ok = Z > 1e-12
    elif fam is Family.KANNALA_BRANDT:
        poly = _odd_poly(spec.dist, theta)[0]
        scale = np.where(R > 1e-12, poly / np.where(R > 1e-12, R, 1.0), 1.0)
    elif fam is Family.DIVISION:
        r, ok = _division_forward_radius(spec, R, Z, theta)
        scale = np.where(R > 1e-12, r / np.where(R > 1e-12, R, 1.0), 1.0)
    elif fam in (Family.UCM, Family.EUCM):
        # unified models: phi = 1 / (xi |p| + Z) or 1 / (alpha rho + (1 - alpha) Z)
        if fam is Family.UCM:
            den = spec.dist[0] * np.sqrt(X * X + Y * Y + Z * Z) + Z
        else:
            alpha, beta = spec.dist
            den = alpha * np.sqrt(beta * R * R + Z * Z) + (1.0 - alpha) * Z
        ok = den > 1e-12
        scale = 1.0 / np.where(ok, den, 1.0)
    else:
        raise UnsupportedFamily(f"no projection for family {fam!r}")
    return scale, ok, theta


def _project_cells(
    spec: CameraSpec, rays: np.ndarray, tmax: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel coordinates u and v of some (m, 3) unit rays and the mask of
    those inside the valid cone ``tmax`` (``theta_max``) whose projection
    succeeded."""
    X, Y = rays[:, 0], rays[:, 1]
    scale, ok, theta = _projection_scale(spec, X, Y, rays[:, 2])
    u = spec.fx * scale * X + spec.cx
    v = spec.fx * spec.aspect * scale * Y + spec.cy
    return u, v, (theta <= tmax) & ok & np.isfinite(u) & np.isfinite(v)


def project_masked(spec: CameraSpec, rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project unit rays, returning (pixels, valid_mask) without raising.

    Args:
        rays: (..., 3) unit ray directions.

    Returns:
        pixels (..., 2) and a boolean mask flagging rays inside the model's
        valid cone whose projection succeeded.  Pixel values for invalid rays
        are unspecified.  The rays are projected block by block (``_blocks``).
    """
    rays = np.asarray(rays, dtype=np.float64)
    flat = rays.reshape(-1, 3)
    tmax = theta_max(spec)
    px, valid = np.empty((len(flat), 2)), np.empty(len(flat), dtype=bool)
    for sl in _blocks(len(flat)):
        px[sl, 0], px[sl, 1], valid[sl] = _project_cells(spec, flat[sl], tmax)
    return px.reshape(rays.shape[:-1] + (2,)), valid.reshape(rays.shape[:-1])


def project(spec: CameraSpec, rays: np.ndarray) -> np.ndarray:
    """Project unit rays to pixel coordinates.

    Raises:
        RayOutsideDomain: if any ray exceeds the valid cone of ``spec`` or a
            Newton inversion fails to converge.
    """
    px, ok = project_masked(spec, rays)
    if not ok.all():
        n_bad = int(np.size(ok) - np.count_nonzero(ok))
        raise RayOutsideDomain(f"{n_bad} of {np.size(ok)} rays outside the valid cone")
    return px


# ---------------------------------------------------------------------------
# unprojection
# ---------------------------------------------------------------------------


def _odd_poly_solve(
    dist: tuple[float, ...], r: np.ndarray, cap: float, x0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve x + sum k_n x^(2n+1) = r on [0, hi = min(fold, cap)]: the
    undistorted rho for radial (cap 1e9), the polar angle theta for kb (cap
    ``_KB_THETA_CAP``).

    A cell past the domain end, r > h(hi), has no root; at r = h(hi) it takes
    x = hi with no Newton step.  Newton starts from ``x0`` (default r), clipped
    into [0, 0.999 hi]; a nearby solution, such as that of the same pixels
    under nearly the same coefficients, saves iterations.  Returns (x, has_root).
    """
    hi = min(_stationary_radius(dist), cap)
    x0 = np.clip(r if x0 is None else x0, 0.0, 0.999 * hi)
    return _newton(lambda x: _odd_poly(dist, x), r, x0, hi)


class _RayCells(NamedTuple):
    """Per-cell quantities behind an unprojection, which its derivatives reuse."""

    mx: np.ndarray  # normalized coordinates ((u - cx) / fx, (v - cy) / fy)
    my: np.ndarray
    r: np.ndarray  # hypot(mx, my)
    norm: np.ndarray  # |g| of the unnormalized ray g
    sol: np.ndarray | None  # Newton solution: rho (radial), theta (kb)
    s: np.ndarray | None  # rho (radial), sin(theta) (kb)
    ds: np.ndarray | float | None  # ds/dsol: 1.0 (radial), cos(theta) (kb)


def _unproject_cells(
    spec: CameraSpec, pixels: np.ndarray, x0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, _RayCells]:
    """Unit rays (..., 3), their validity mask and the per-cell quantities
    behind them.  The rays are held component-major: ``rays.T`` is a view
    whose component rows are contiguous.

    ``x0`` is the start of the radial/kb Newton solve (``_odd_poly_solve``).
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    fam = spec.model.family
    mx = (pixels[..., 0] - spec.cx) / spec.fx
    my = (pixels[..., 1] - spec.cy) / spec.fy
    r = np.hypot(mx, my)
    valid = np.isfinite(r)
    sol = s = ds = None

    # g = (gx, gy, gz); a constant component stays a scalar
    if fam is Family.PINHOLE:
        g = (mx, my, 1.0)
    elif fam in (Family.BROWN_CONRADY, Family.KANNALA_BRANDT):
        # g = (s mx / r, s my / r, gz) with s = rho, gz = 1 or s = sin, gz = cos
        kb = fam is Family.KANNALA_BRANDT
        sol, done = _odd_poly_solve(spec.dist, r, _KB_THETA_CAP if kb else 1e9, x0)
        valid &= done
        s, ds = (np.sin(sol), np.cos(sol)) if kb else (sol, 1.0)
        sc = np.where(r > 1e-12, s / np.where(r > 1e-12, r, 1.0), 1.0)
        g = (sc * mx, sc * my, ds)
    elif fam is Family.UCM:
        xi = spec.dist[0]
        r2 = r * r
        arg = 1.0 + (1.0 - xi * xi) * r2
        valid &= arg >= 0.0
        s = (xi + np.sqrt(np.maximum(arg, 0.0))) / (1.0 + r2)
        g = (s * mx, s * my, s - xi)
    elif fam is Family.EUCM:
        alpha, beta = spec.dist
        r2 = r * r
        arg = 1.0 - (2.0 * alpha - 1.0) * beta * r2
        valid &= arg >= 0.0
        den = alpha * np.sqrt(np.maximum(arg, 0.0)) + (1.0 - alpha)
        valid &= den > 1e-12
        g = (mx, my, (1.0 - beta * alpha * alpha * r2) / np.where(den > 1e-12, den, 1.0))
    elif fam is Family.DIVISION:
        valid &= r <= _division_fold_radius(spec.dist)
        g = (mx, my, _even_poly(spec.dist, r * r))
    else:
        raise UnsupportedFamily(f"no unprojection for family {fam!r}")

    # with |g| finite and above 1e-12, every component of g / |g| is finite
    norm = np.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
    valid &= (norm > 1e-12) & (norm < math.inf)
    safe = np.where(norm > 1e-12, norm, 1.0)
    rays = np.empty((3,) + mx.shape)
    for i in range(3):
        np.divide(g[i], safe, out=rays[i, ...])
    return np.moveaxis(rays, 0, -1), valid, _RayCells(mx, my, r, norm, sol, s, ds)


def _ray_derivatives(
    spec: CameraSpec, cells: _RayCells
) -> tuple[tuple, tuple, tuple | None, list]:
    """dg/dmx and dg/dmy of the unnormalized ray g of ``_unproject_cells``,
    and its distortion part as one direction d and one scale per coefficient:
    dg/dk_n = scales[n - 1] * d, so the coefficients share one direction.  A
    vector is an (x, y, z) triple whose components are (n,) arrays or the
    constants 0.0 and 1.0; pinhole has no distortion part (d None)."""
    fam = spec.model.family
    mx, my, r = cells.mx, cells.my, cells.r
    if fam is Family.PINHOLE:
        return (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), None, []
    if fam in (Family.BROWN_CONRADY, Family.KANNALA_BRANDT):
        # sol solves sol + sum k_n sol^(2n+1) = r (rho for radial, theta for
        # kb), so dsol/dr = 1/h' and dsol/dk_n = -sol^(2n+1)/h'.  g is
        # (s mx / r, s my / r, gz) with s = rho, gz = 1 or s = sin, gz = cos,
        # and ds/dsol = gz, so dg/dsol = (ds mx / r, ds my / r, -s or 0)
        kb = fam is Family.KANNALA_BRANDT
        sol, s, ds = cells.sol, cells.s, cells.ds
        hp = _odd_poly(spec.dist, sol)[1]
        hp = np.where(np.abs(hp) > 1e-12, hp, 1e-12)
        tiny = r < 1e-9
        inv_r = np.where(tiny, 0.0, 1.0 / np.where(tiny, 1.0, r))
        u = np.where(tiny, 1.0, s * inv_r)
        a = (ds / hp - u) * inv_r * inv_r  # (du/dr) / r
        dz = -s / hp * inv_r if kb else 0.0  # (dgz/dr) / r
        axy = a * mx * my
        scales, sol2, power = [], sol * sol, sol  # power = sol^(2n+1) by running products
        for _ in range(spec.model.num_dist):
            power = power * sol2
            scales.append(-power / hp)
        ds_r = ds * inv_r
        return ((u + a * mx * mx, axy, dz * mx), (axy, u + a * my * my, dz * my),
                (ds_r * mx, ds_r * my, -s if kb else 0.0), scales)
    r2 = r * r
    if fam is Family.UCM:
        xi = spec.dist[0]
        t = np.sqrt(np.maximum(1.0 + (1.0 - xi * xi) * r2, 1e-12))
        s = (xi + t) / (1.0 + r2)
        ds_dr2 = ((1.0 - xi * xi) / (2.0 * t) * (1.0 + r2) - (xi + t)) / (1.0 + r2) ** 2
        ds_dxi = (1.0 - xi * r2 / t) / (1.0 + r2)
        sx, sy = 2.0 * mx * ds_dr2, 2.0 * my * ds_dr2
        return ((s + mx * sx, my * sx, sx), (mx * sy, s + my * sy, sy),
                (mx * ds_dxi, my * ds_dxi, ds_dxi - 1.0), [1.0])
    # eucm and division move only gz: d = e_z
    if fam is Family.EUCM:
        alpha, beta = spec.dist
        t = np.sqrt(np.maximum(1.0 - (2.0 * alpha - 1.0) * beta * r2, 1e-12))
        den = alpha * t + (1.0 - alpha)
        mz = (1.0 - beta * alpha * alpha * r2) / den
        dt = -(2.0 * alpha - 1.0) / (2.0 * t)  # dt/dr2 = beta dt, dt/dbeta = r2 dt
        dz_dr2 = (-beta * alpha * alpha - mz * alpha * beta * dt) / den
        dmz_da = (-2.0 * alpha * beta * r2 - mz * (t - beta * alpha * r2 / t - 1.0)) / den
        dmz_db = (-alpha * alpha * r2 - mz * alpha * r2 * dt) / den
        scales = [dmz_da, dmz_db]
    elif fam is Family.DIVISION:
        dz_dr2 = _even_poly_deriv(spec.dist, r2)
        scales = [r2**n for n in range(1, spec.model.num_dist + 1)]
    else:
        raise UnsupportedFamily(f"no ray derivatives for family {fam!r}")
    return (1.0, 0.0, 2.0 * mx * dz_dr2), (0.0, 1.0, 2.0 * my * dz_dr2), (0.0, 0.0, 1.0), scales


def _ray_angle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Angle (rad) between the rows of two (n, 3) arrays of unit rays.

    arctan2(|p x q|, p . q), with every sum taken component by component:
    the same bits as np.sum(..., axis=-1) and np.linalg.norm(np.cross(...)),
    without their generic reduction passes.
    """
    (px, py, pz), (qx, qy, qz) = p.T, q.T
    cx, cy, cz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
    return np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), px * qx + py * qy + pz * qz)


def unproject_masked(
    spec: CameraSpec, pixels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unproject pixels (..., 2), returning (unit rays (..., 3), valid_mask)
    without raising.  The pixels are unprojected block by block (``_blocks``)."""
    pixels = np.asarray(pixels, dtype=np.float64)
    flat = pixels.reshape(-1, 2)
    rays, ok = np.empty((len(flat), 3)), np.empty(len(flat), dtype=bool)
    for sl in _blocks(len(flat)):
        rays[sl], ok[sl], _ = _unproject_cells(spec, flat[sl])
    return rays.reshape(pixels.shape[:-1] + (3,)), ok.reshape(pixels.shape[:-1])


def unproject(spec: CameraSpec, pixels: np.ndarray) -> np.ndarray:
    """Unproject pixel coordinates to unit rays.

    Raises:
        NonInvertiblePixel: on Newton divergence or pixels outside the
            injective image region.
    """
    rays, ok = unproject_masked(spec, pixels)
    if not ok.all():
        n_bad = int(np.size(ok) - np.count_nonzero(ok))
        raise NonInvertiblePixel(f"{n_bad} of {np.size(ok)} pixels not invertible")
    return rays


# ---------------------------------------------------------------------------
# validity limits
# ---------------------------------------------------------------------------


def _domain_radius(model: ModelId, dist: tuple[float, ...]) -> float:
    """Normalized image radius at which unprojection ends, or inf: the one end
    of each family's image.  Radial and kb end at the odd polynomial's first
    stationary point, kb capped at ``_KB_THETA_CAP``; eucm folds at
    1/sqrt(beta (2 alpha - 1)) when alpha > 0.5, division where its angle
    profile is stationary; ucm ends with its root 1 + (1 - xi^2) r^2 >= 0."""
    fam = model.family
    if fam in (Family.BROWN_CONRADY, Family.KANNALA_BRANDT):
        cap = _KB_THETA_CAP if fam is Family.KANNALA_BRANDT else math.inf
        x = min(_stationary_radius(dist), cap)
        return float(_odd_poly(dist, np.array(x))[0]) if math.isfinite(x) else math.inf
    if fam is Family.EUCM:
        alpha, beta = dist
        return 1.0 / math.sqrt(beta * (2.0 * alpha - 1.0)) if alpha > 0.5 else math.inf
    if fam is Family.UCM:
        return 1.0 / math.sqrt(dist[0] * dist[0] - 1.0) if dist[0] > 1.0 else math.inf
    if fam is Family.DIVISION:
        return _division_fold_radius(dist)
    if fam is Family.PINHOLE:
        return math.inf
    raise UnsupportedFamily(f"no image end for family {fam!r}")


def min_focal(
    model: ModelId, dist: tuple[float, ...] | list[float], width: int, height: int
) -> float:
    """Smallest focal length keeping the projection injective over the image:
    the half diagonal over the fold radius, 0 for families that do not fold.
    Only ``_CLAMPED`` families have this clamp: kb, division and ucm end at
    ``_domain_radius``, and the samplers redraw a camera whose corner lies
    past it, where a clamp would raise its focal and change the seeded streams.
    """
    if model.family not in _CLAMPED:
        return 0.0
    return 0.5 * math.hypot(width, height) / _domain_radius(model, tuple(float(k) for k in dist))


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of ``validate_spec``: empty ``violations`` means OK."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_spec(spec: CameraSpec) -> ValidityReport:
    """Check parameter bounds and the injectivity clamp for a spec.  The clamp
    is the ``_CLAMPED`` families' only (``min_focal``): a kb, division or ucm
    camera with its corner past ``_domain_radius`` passes and images up to
    that end."""
    bad: list[str] = []
    if not (spec.fx > 0.0 and math.isfinite(spec.fx)):
        bad.append(f"fx must be positive, got {spec.fx}")
    if not (spec.fy > 0.0 and math.isfinite(spec.fy)):
        bad.append(f"fy must be positive, got {spec.fy}")
    if spec.width <= 0 or spec.height <= 0:
        bad.append("image size must be positive")
    fam = spec.model.family
    if fam is Family.UCM and spec.dist[0] < 0.0:
        bad.append(f"xi must be >= 0, got {spec.dist[0]}")
    if fam is Family.EUCM:
        alpha, beta = spec.dist
        if not 0.0 <= alpha <= 1.0:
            bad.append(f"alpha must be in [0, 1], got {alpha}")
        if beta <= 0.0:
            bad.append(f"beta must be > 0, got {beta}")
    if not bad and fam in _CLAMPED:
        # corner-vs-fold check in normalized units; for a centered square spec
        # with unit aspect this is exactly fx >= min_focal(...)
        fold = _domain_radius(spec.model, spec.dist)
        corner = _corner_norm_radius(spec)
        if corner > fold:
            bad.append(
                f"focal below the injectivity clamp: corner radius {corner:.6g} "
                f"exceeds the fold radius {fold:.6g} in normalized units"
            )
    return ValidityReport(tuple(bad))
