"""Synthetic ground-truth generation: intrinsics samplers, noise, lens mapping.

The dataset samplers draw centered square specs (unit aspect, principal point
at the image center) with the focal length derived from a sampled field of
view rather than sampled directly:

    f = (H / 2) / r_m(FoV / 2)

where r_m is the model's normalized radial profile.  Four dataset kinds are
provided:

    opp   100% pinhole,            FoV ~ U(20, 105)
    opr   100% radial:1,           FoV ~ U(20, 105), khat ~ Nt(0, 0.07, +-0.3)
    opd   50% radial:1 / 50% eucm  (eucm: FoV ~ U(50, 180), alpha ~ U(0.5, 0.8),
                                    beta ~ U(0.5, 2))
    opg   34% pinhole / 33% radial:1 / 33% eucm

Every kind draws its model string's spec with ``sample_spec_for_model``, the
one per-model sampler.  The radial:1 coefficient is parameterized as
khat = k * H / f, which couples k and f; the two are resolved jointly in
closed form (the root of a quadratic in k), so a radial:1 camera puts FoV/2
exactly at the half height with k = khat * f / H, unless its focal is raised
to ``min_focal``.
Sampled focals are raised to min_focal * (1 + 1e-4) where they fall below
it, so every sampled spec passes ``validate_spec``; a draw whose image
corner lies past its model's domain end (``_domain_radius``) is drawn again.

LensFun lens entries (polynomial distortion on top of an ideal fisheye
projection) are mapped to the extended unified model by undistorting a
uniform sensor grid with the library's Newton loop, inverting the ideal
projection, and fitting in focal-normalized units.  The grid goes through
the fit's grid builder and the fit's angular residuals score the result.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateGeometry, FovOutOfRange, NewtonDivergence, ThetaOutOfDomain, UnsupportedFamily
)
from .fileio import parse_json_object
from .fit import Correspondences, _angular_residuals, fit_linear, refine
from .fov import FovField
from .models import (
    CameraSpec,
    Family,
    ModelId,
    _corner_norm_radius,
    _domain_radius,
    _json_float,
    _newton,
    _odd_poly,
    min_focal,
    parse_model,
    pixel_axes,
    radial_profile,
    validate_spec,
)

_MAX_RESAMPLE = 100


class DatasetKind(Enum):
    OPP = "opp"
    OPR = "opr"
    OPD = "opd"
    OPG = "opg"


# ---------------------------------------------------------------------------
# focal from field of view
# ---------------------------------------------------------------------------


def focal_from_fov(
    model: ModelId, dist: tuple[float, ...] | list[float], fov_deg: float, height: int
) -> float:
    """Focal length placing the vertical half-extent H/2 at polar angle FoV/2.

    For the pinhole family this is the familiar f = (H/2) / tan(FoV/2).

    Raises:
        FovOutOfRange: if the angle is outside the model's representable range.
    """
    if not 0.0 < fov_deg < 360.0:
        raise FovOutOfRange(f"fov must be in (0, 360) degrees, got {fov_deg}")
    half = math.radians(fov_deg) / 2.0
    probe = _centered_square(model, 1.0, tuple(dist), max(height, 1))
    r = float(radial_profile(probe, np.array(half)))
    if not math.isfinite(r) or r <= 0.0:
        raise FovOutOfRange(f"{model} cannot reach a {fov_deg} degree field of view")
    return (height / 2.0) / r


# ---------------------------------------------------------------------------
# dataset samplers
# ---------------------------------------------------------------------------


def _truncated_normal(rng: np.random.Generator, sigma: float, bound: float) -> float:
    for _ in range(1000):
        x = float(rng.normal(0.0, sigma))
        if -bound <= x <= bound:
            return x
    raise NewtonDivergence("truncated normal rejection failed")  # pragma: no cover


def _centered_square(model: ModelId, f: float, dist: tuple[float, ...], size: int) -> CameraSpec:
    return CameraSpec(model, f, f, size / 2.0, size / 2.0, dist, size, size)


def _solve_radial1(k_hat: float, fov_deg: float, size: int) -> tuple[float, float]:
    """Joint radial:1 focal and coefficient k = khat * f / H, in closed form.

    With t = tan(FoV/2), putting FoV/2 at H/2 means f = H / (2 t (1 + k t^2));
    with k = khat * f / H that is the quadratic 2 t^3 k^2 + 2 t k = khat, whose
    root k = khat / (t (1 + sqrt(1 + 2 t khat))) gives the FoV focal.  The
    clamp focal solves f = min_focal(k) for the same k: f = -27 khat H / 8,
    negative for khat >= 0.  f is the larger of the two, so unless the clamp
    wins, f puts FoV/2 exactly at H/2.
    """
    t = math.tan(math.radians(fov_deg) / 2.0)
    k = k_hat / (t * (1.0 + math.sqrt(1.0 + 2.0 * t * k_hat)))
    f = max(size / (2.0 * t * (1.0 + k * t * t)), -27.0 * k_hat * size / 8.0)
    return f, k_hat * f / size


class IntrinsicsSampler:
    """Deterministic stream of ground-truth specs for one dataset kind."""

    def __init__(self, kind: DatasetKind, size: int, seed: int):
        self.kind, self.size = kind, size
        self.rng = np.random.default_rng(seed)

    def draw(self) -> CameraSpec:
        """Pick the kind's model string (one uniform draw for the mixtures),
        then draw its spec with ``sample_spec_for_model``."""
        kind, rng = self.kind, self.rng
        if kind is DatasetKind.OPP:
            name = "pinhole"
        elif kind is DatasetKind.OPR:
            name = "radial:1"
        elif kind is DatasetKind.OPD:
            name = "radial:1" if rng.uniform() < 0.5 else "eucm"
        else:
            u = rng.uniform()
            name = "pinhole" if u < 0.34 else ("radial:1" if u < 0.67 else "eucm")
        return sample_spec_for_model(parse_model(name), self.size, rng)


def _radial_slope_floor(spec: CameraSpec) -> float:
    """Smallest slope of the model's scalar radial response over the image.

    Multi-coefficient polynomials with mixed signs can flatten mid-image
    while staying monotone; such near-folding cameras are numerically
    hostile and physically implausible, so samplers reject them.
    """
    fam = spec.model.family
    if fam not in (Family.BROWN_CONRADY, Family.KANNALA_BRANDT):
        return 1.0
    # x = theta for kb, x = rho = R/Z for radial; both map by x + sum k_n x^(2n+1)
    x = np.linspace(0.0, 2.2 if fam is Family.KANNALA_BRANDT else 3.0, 256)
    h, slope = _odd_poly(spec.dist, x)
    slope = slope[h <= _corner_norm_radius(spec)]
    return float(np.min(slope)) if slope.size else 1.0


# generic per-model sampler used by tests and benchmarks; families absent from
# the dataset kinds get documented default ranges (wide-angle for fisheye-type
# models), with coefficients normalized by the border radius so that all
# orders contribute comparably at any field of view
def sample_spec_for_model(
    model: ModelId, size: int, rng: np.random.Generator
) -> CameraSpec:
    if size < 1:
        raise ValueError(f"image size must be >= 1, got {size}")
    fam = model.family
    for _ in range(_MAX_RESAMPLE):
        if fam is Family.PINHOLE:
            fov, dist = rng.uniform(20.0, 105.0), ()
        elif fam is Family.BROWN_CONRADY:
            fov = rng.uniform(20.0, 105.0)
            k_hat = _truncated_normal(rng, 0.07, 0.3)
            f, k1 = _solve_radial1(k_hat, fov, size)
            # higher orders use the same focal normalization as k1 with
            # rapidly decaying magnitudes, mirroring real lens calibrations
            dist = (k1, *(
                _truncated_normal(rng, 0.07 * 3.0 ** (1 - n), 0.3 * 3.0 ** (1 - n))
                * (f / size) ** (2 * n - 1)
                for n in range(2, model.num_dist + 1)
            ))
        elif fam in (Family.KANNALA_BRANDT, Family.DIVISION):
            fov = rng.uniform(50.0, 170.0 if fam is Family.KANNALA_BRANDT else 160.0)
            # the border radius, theta for kb and theta-like in scale for division
            r_b = math.radians(fov) / 2.0
            dist = tuple(
                _truncated_normal(rng, 0.05 * 2.0 ** (1 - n), 0.2 * 2.0 ** (1 - n))
                / r_b ** (2 * n)
                for n in range(1, model.num_dist + 1)
            )
        elif fam is Family.UCM:
            fov = rng.uniform(50.0, 170.0)
            dist = (rng.uniform(0.1, 1.5),)
        else:
            fov = rng.uniform(50.0, 180.0)
            dist = (rng.uniform(0.5, 0.8), rng.uniform(0.5, 2.0))  # alpha, beta

        # the focal puts FoV/2 at the half height, raised to min_focal * (1 + 1e-4)
        try:
            f = focal_from_fov(model, dist, fov, size)
        except FovOutOfRange:
            continue
        f = max(f, min_focal(model, dist, size, size) * (1.0 + 1e-4))
        spec = _centered_square(model, f, dist, size)
        if model.num_dist >= 2 and _radial_slope_floor(spec) < 0.15:
            continue
        if _corner_norm_radius(spec) <= _domain_radius(model, dist):
            return spec
    raise NewtonDivergence(f"could not sample a valid {model} spec")


# ---------------------------------------------------------------------------
# noise injection and edit transforms
# ---------------------------------------------------------------------------


def add_noise(fov_field: FovField, sigma_deg: float, seed: int) -> FovField:
    """Add zero-mean Gaussian noise (std ``sigma_deg``) to each component.

    Deterministic for a fixed seed; cells pushed to |theta| >= pi are redrawn.

    Raises:
        ValueError: if ``sigma_deg`` is not finite and >= 0.
        ThetaOutOfDomain: if cells are still at |theta| >= pi after 100 redraws.
    """
    if not 0.0 <= sigma_deg < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma_deg}")
    if sigma_deg == 0:
        return FovField(theta=fov_field.theta.copy(), stride=fov_field.stride)
    rng = np.random.default_rng(seed)
    sigma = math.radians(sigma_deg)
    theta = fov_field.theta + rng.normal(0.0, sigma, fov_field.theta.shape)
    bad = np.hypot(theta[..., 0], theta[..., 1]) >= math.pi
    for _ in range(100):
        if not bad.any():
            break
        theta[bad] = fov_field.theta[bad] + rng.normal(0.0, sigma, (np.count_nonzero(bad), 2))
        bad = np.hypot(theta[..., 0], theta[..., 1]) >= math.pi
    if bad.any():
        n_bad = np.count_nonzero(bad)
        raise ThetaOutOfDomain(f"{n_bad} cells still at |theta| >= pi after 100 redraws")
    return FovField(theta=theta, stride=fov_field.stride)


def apply_edit(
    spec: CameraSpec,
    scale_u: float,
    scale_v: float,
    crop_width: int,
    crop_height: int,
    off_u: float,
    off_v: float,
) -> CameraSpec:
    """Anisotropic resize u' = s_u * u - off_u (v analogously) followed by a crop."""
    return spec.replace(
        fx=spec.fx * scale_u,
        fy=spec.fy * scale_v,
        cx=spec.cx * scale_u - off_u,
        cy=spec.cy * scale_v - off_v,
        width=crop_width,
        height=crop_height,
    )


def sample_edit(spec: CameraSpec, rng: np.random.Generator) -> CameraSpec:
    """Random stretch to a pixel aspect ratio in [0.5, 2] plus a crop of at
    most half the image, re-drawn until the edited spec stays valid."""
    for _ in range(_MAX_RESAMPLE):
        a_t = rng.uniform(0.5, 2.0)
        su, sv = 1.0 / math.sqrt(a_t), math.sqrt(a_t)
        ws, hs = max(2, round(su * spec.width)), max(2, round(sv * spec.height))
        w2 = max(2, round(rng.uniform(0.5, 1.0) * ws))
        h2 = max(2, round(rng.uniform(0.5, 1.0) * hs))
        off_u = float(rng.integers(0, ws - w2 + 1))
        off_v = float(rng.integers(0, hs - h2 + 1))
        su_eff, sv_eff = ws / spec.width, hs / spec.height
        edited = apply_edit(spec, su_eff, sv_eff, w2, h2, off_u, off_v)
        if validate_spec(edited).ok:
            return edited
    raise NewtonDivergence("could not sample a valid edit")  # pragma: no cover


# ---------------------------------------------------------------------------
# LensFun entries -> extended unified model
# ---------------------------------------------------------------------------

# distortion kinds and their coefficient names, in order, as the XML spells them
_POLY_KINDS = {"poly3": ("k1",), "poly5": ("k1", "k2"), "ptlens": ("a", "b", "c")}
_PROJECTIONS = ("equidistant", "equisolid", "orthographic", "stereographic")
_FISHEYE_KINDS = tuple(f"fisheye_{p}" for p in _PROJECTIONS)


@dataclass(frozen=True)
class LensfunEntry:
    """One lens calibration: a distortion polynomial over an ideal fisheye.

    ``model_kind`` is either a polynomial kind (poly3 / poly5 / ptlens), in
    which case ``projection`` names the underlying fisheye geometry
    (defaulting to equidistant, the plain LensFun "fisheye" type), or one of
    the ideal fisheye_* kinds with no polynomial.  The polynomial maps
    undistorted to distorted radii, both normalized by half the smaller
    sensor dimension:

        poly3:  rd = ru * (1 - k1 + k1 ru^2)
        poly5:  rd = ru * (1 + k1 ru^2 + k2 ru^4)
        ptlens: rd = ru * (a ru^3 + b ru^2 + c ru + 1 - a - b - c)
    """

    model_kind: str
    coefficients: tuple[float, ...]
    focal_mm: float
    sensor_width_mm: float
    sensor_height_mm: float
    projection: str = "equidistant"
    fov_deg: float = 180.0  # rated angular extent of the image circle

    def __post_init__(self) -> None:
        if self.model_kind not in (*_POLY_KINDS, *_FISHEYE_KINDS):
            raise UnsupportedFamily(f"unsupported LensFun model kind {self.model_kind!r}")
        for name in ("focal_mm", "sensor_width_mm", "sensor_height_mm", "fov_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        expected = len(_POLY_KINDS.get(self.model_kind, ()))
        if self.model_kind in _POLY_KINDS and len(self.coefficients) != expected:
            raise ValueError(
                f"{self.model_kind} takes {expected} coefficients, "
                f"got {len(self.coefficients)}"
            )
        proj = self.projection
        if self.model_kind in _FISHEYE_KINDS:
            proj = self.model_kind.removeprefix("fisheye_")
        if proj not in _PROJECTIONS:
            raise ValueError(f"unknown fisheye projection {self.projection!r}")
        object.__setattr__(self, "projection", proj)
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )

    @classmethod
    def from_dict(cls, data: dict) -> "LensfunEntry":
        kwargs = dict(
            model_kind=data["model_kind"],
            coefficients=tuple(
                _json_float(c, "coefficients") for c in data.get("coefficients", ())),
            focal_mm=_json_float(data["focal_mm"], "focal_mm"),
            sensor_width_mm=_json_float(data["sensor_width_mm"], "sensor_width_mm"),
            sensor_height_mm=_json_float(data["sensor_height_mm"], "sensor_height_mm"),
        )
        if "projection" in data:
            kwargs["projection"] = data["projection"]
        if "fov_deg" in data:
            kwargs["fov_deg"] = _json_float(data["fov_deg"], "fov_deg")
        return cls(**kwargs)


def _distortion(entry: LensfunEntry) -> np.polynomial.Polynomial:
    """The entry's rd(ru) as a power series; ideal fisheye kinds are rd = ru."""
    k = entry.coefficients
    if entry.model_kind == "poly3":
        series = (0.0, 1.0 - k[0], 0.0, k[0])
    elif entry.model_kind == "poly5":
        series = (0.0, 1.0, 0.0, k[0], 0.0, k[1])
    elif entry.model_kind == "ptlens":
        a, b, c = k
        series = (0.0, 1.0 - a - b - c, c, b, a)
    else:
        series = (0.0, 1.0)
    # numpy loads its polynomial package on this first attribute access
    return np.polynomial.Polynomial(series)


def _invert_fisheye(projection: str, r_over_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar angle of the ideal projection at normalized radius r/f."""
    if projection == "equidistant":
        theta = r_over_f
        ok = theta < math.pi
    elif projection == "equisolid":
        arg = r_over_f / 2.0
        ok = arg <= 1.0
        theta = 2.0 * np.arcsin(np.minimum(arg, 1.0))
    elif projection == "orthographic":
        ok = r_over_f <= 1.0
        theta = np.arcsin(np.minimum(r_over_f, 1.0))
    else:  # stereographic
        theta = 2.0 * np.arctan(r_over_f / 2.0)
        ok = np.ones_like(theta, dtype=bool)
    return theta, ok & (theta < math.pi - 1e-9)


def lensfun_to_eucm(
    entry: LensfunEntry, grid_stride: int = 1
) -> tuple[float, float, float, float]:
    """Map a LensFun entry to (alpha, beta, focal_mm, residual_deg).

    A uniform sensor grid goes through the fit's grid builder, block by
    block: ``_newton`` undistorts it on [0, fold], the fold being the first
    positive root of the distortion's slope (1e9 without one, as radial's
    cap), and the ideal fisheye projection is inverted to obtain rays.  The
    extended unified model is fitted to the (normalized coordinate, ray)
    correspondences; the returned focal is the fitted generalized focal in
    millimetres, the residual the mean of its ``_angular_residuals``.
    """
    if grid_stride < 1:
        raise ValueError(f"grid stride must be >= 1, got {grid_stride}")
    w, h = entry.sensor_width_mm, entry.sensor_height_mm
    n_u = max(4, int(256 / grid_stride))
    n_v = max(4, int(round(n_u * h / w)))
    u, v = pixel_axes(n_u, n_v)
    norm_unit = min(w, h) / 2.0
    distort = _distortion(entry)
    slope = distort.deriv()
    fold = min((z.real for z in slope.roots() if abs(z.imag) < 1e-9 and z.real > 0), default=1e9)

    def ideal_rays(sl: slice, px: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rd = np.hypot(px[:, 0], px[:, 1]) / norm_unit
        keep = rd > 1e-9  # the centre cell has no direction to undistort along
        rd = rd[keep]
        # undistort: solve distort(ru) = rd
        ru, done = _newton(lambda x: (distort(x), slope(x)), rd, rd, fold)
        g_u = np.compress(keep, px, axis=0) * (ru / rd)[:, None]
        theta, ok = _invert_fisheye(entry.projection, np.hypot(*g_u.T) / entry.focal_mm)
        # cells beyond the rated image circle see nothing; drop them
        good = done & ok & (theta <= math.radians(entry.fov_deg) / 2.0 + 1e-9)
        keep[keep] = good
        g_u, theta = g_u[good], theta[good]
        azimuth = g_u / np.hypot(*g_u.T)[:, None]
        return keep, np.column_stack([np.sin(theta)[:, None] * azimuth, np.cos(theta)])

    # the sensor cell centres in mm, origin at the sensor centre
    sensor = Correspondences._from_grid(u / n_u * w - w / 2.0, v / n_v * h - h / 2.0, ideal_rays)
    if len(sensor) < 8:
        raise DegenerateGeometry("too few valid sensor cells to fit the lens")
    # normalized (distorted) image coordinates, origin at the sensor center
    corrs = Correspondences(sensor.pixels / entry.focal_mm, sensor.rays)
    spec0 = fit_linear(ModelId(Family.EUCM, 2), corrs, 1.0, (0.0, 0.0), (1, 1))
    spec = refine(spec0, corrs, free=np.array([0, 1, 4, 5])).spec

    ang = _angular_residuals(spec, corrs)
    residual = float(np.degrees(np.mean(ang[np.isfinite(ang)])))
    alpha, beta = spec.dist
    f_mm = 0.5 * (spec.fx + spec.fy) * entry.focal_mm
    return float(alpha), float(beta), f_mm, residual


def parse_lensfun_xml(text: str) -> list[LensfunEntry]:
    """Extract supported entries from LensFun XML ``<lens>`` elements.

    Only the fields needed for the supported model kinds are read: the lens
    ``<type>`` (fisheye geometries), ``<cropfactor>`` (for the sensor size,
    relative to full frame 36 x 24 mm) and ``<distortion>`` calibration rows.
    Rows of an unsupported model, or with neither ``focal`` nor
    ``real-focal``, are skipped.  A lens without rows is its ideal fisheye at
    its ``<focal>``, or at half the sensor width when ``<focal>`` is missing
    or empty.  A crop factor and a focal must be positive and finite.
    """
    root = ET.fromstring(text)
    lenses = root.iter("lens") if root.tag != "lens" else [root]
    type_map = {
        "fisheye": "equidistant",
        "fisheye-equisolid": "equisolid",
        "fisheye-orthographic": "orthographic",
        "fisheye-stereographic": "stereographic",
        "equisolid": "equisolid",
        "orthographic": "orthographic",
        "stereographic": "stereographic",
    }
    out: list[LensfunEntry] = []
    for lens in lenses:
        lens_type = (lens.findtext("type") or "").strip()
        if lens_type not in type_map:
            continue
        projection = type_map[lens_type]
        crop = float(lens.findtext("cropfactor") or 1.0)
        if not (math.isfinite(crop) and crop > 0.0):
            raise ValueError(f"cropfactor must be positive and finite, got {crop!r}")
        w_mm, h_mm = 36.0 / crop, 24.0 / crop
        rows = lens.findall(".//distortion")
        if not rows:
            focal = (lens.findtext("focal") or "").strip()
            out.append(
                LensfunEntry(
                    model_kind=f"fisheye_{projection}",
                    coefficients=(),
                    focal_mm=float(focal) if focal else w_mm / 2,
                    sensor_width_mm=w_mm,
                    sensor_height_mm=h_mm,
                    projection=projection,
                )
            )
            continue
        for row in rows:
            kind = row.get("model", "")
            focal = row.get("real-focal") or row.get("focal")
            if kind not in _POLY_KINDS or not focal:
                continue
            out.append(
                LensfunEntry(
                    model_kind=kind,
                    coefficients=tuple(float(row.get(c, 0.0)) for c in _POLY_KINDS[kind]),
                    focal_mm=float(focal),
                    sensor_width_mm=w_mm,
                    sensor_height_mm=h_mm,
                    projection=projection,
                )
            )
    return out


def load_lensfun_entry(path: str | Path) -> LensfunEntry:
    """Load one entry from minimal JSON or LensFun XML; XML that is not
    well-formed raises ``ParseError``, and a value it rejects ``ValueError``,
    naming ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("<"):
        try:
            entries = parse_lensfun_xml(text)
        except (ET.ParseError, ValueError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        if not entries:
            raise UnsupportedFamily(f"{path}: no supported lens entry found")
        return entries[0]
    return parse_json_object(path, text, LensfunEntry.from_dict)
