"""Exception types raised by the calibration library.

Every error carries a ``kind`` attribute (its class name) so CLI consumers can
report machine-readable error kinds without string parsing.
"""

from __future__ import annotations


class CalibError(Exception):
    """Base class for all library errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class RayOutsideDomain(CalibError):
    """A ray falls outside the model's valid projection cone."""


class NonInvertiblePixel(CalibError):
    """A pixel cannot be unprojected (Newton divergence or outside the injective region)."""


class AntipodalRay(CalibError):
    """The tangent-plane log map is undefined at the antipode [0, 0, -1]."""


class ThetaOutOfDomain(CalibError):
    """A tangent-plane vector has norm >= pi."""


class DimensionMismatch(CalibError):
    """Grids or arrays that must share a shape do not."""


class DegenerateGeometry(CalibError):
    """A linear system built from correspondences is rank deficient."""


class InvalidFocal(CalibError):
    """A linear solve produced a nonpositive focal length."""


class NoConsensus(CalibError):
    """RANSAC found no sample with a sufficient inlier ratio."""


class FovOutOfRange(CalibError):
    """A requested field of view is outside the model's representable range."""


class UnsupportedFamily(CalibError):
    """The requested operation is not defined for this model family."""


class BorderUnprojectionFailed(CalibError):
    """A border pixel needed for the FoV computation cannot be unprojected."""


class EmptyInput(CalibError):
    """An aggregate operation received no data."""


class NewtonDivergence(CalibError):
    """A sampler ran out of redraws without a valid draw (a spec, an edit or
    a truncated-normal value)."""
