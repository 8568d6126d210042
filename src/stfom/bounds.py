"""Mapping figures of merit onto dimensionless diffusion-model bounds.

Two phenomenological models of classical-quantum gravitational coupling
are supported.  In the ultra-local discrete model the dimensionless
coupling scales like FOM * r_N^4 / (m_N * G^2); in the non-local
continuous model it scales like FOM * r_N^3 / G^2.  For each model a
published reference point (anchor) fixes the absolute normalisation, so
bounds from new figures of merit follow by pure proportionality:

    bound(fom) = bound_ref * fom / fom_ref

The anchored path is authoritative; si_bound() evaluates the raw SI
combinations, which bounds.txt prints beside each anchored bound.
"""

from __future__ import annotations

import enum
import math
from types import MappingProxyType
from typing import NamedTuple

from . import _EXPORTS
from .errors import _PRINT_MAX, OutOfRangeError, _Checked
from .quantities import _DEFAULT_CONSTANTS, Constants

__all__ = list(_EXPORTS["bounds"])

# Figure of merit of the classic Cavendish torsion balance, the baseline
# against which orders of improvement are counted.
CAVENDISH_FOM = 1.0e14


class ModelId(enum.Enum):
    """The two diffusion models a bound can belong to."""

    ULTRA_LOCAL_DISCRETE = "ultra-local-discrete"
    NON_LOCAL_CONTINUOUS = "non-local-continuous"


class _AnchorFields(NamedTuple):
    model: ModelId
    fom_ref: float
    bound_ref: float
    lower_bound: float


class BoundAnchor(_Checked, _AnchorFields):
    """Reference point tying a model's bound scale to a known experiment.

    fom_ref is the figure of merit of the anchoring experiment, bound_ref
    the dimensionless bound it established, and lower_bound the value
    below which the model is already excluded by decoherence arguments.
    """

    __slots__ = ()

    def _check(self) -> None:
        for name in ("fom_ref", "bound_ref", "lower_bound"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise OutOfRangeError(name, value)


DEFAULT_ANCHORS: MappingProxyType[ModelId, BoundAnchor] = MappingProxyType({
    ModelId.ULTRA_LOCAL_DISCRETE: BoundAnchor(
        model=ModelId.ULTRA_LOCAL_DISCRETE,
        fom_ref=2.98e-1,
        bound_ref=1.0e-16,
        lower_bound=1.0e-25,
    ),
    ModelId.NON_LOCAL_CONTINUOUS: BoundAnchor(
        model=ModelId.NON_LOCAL_CONTINUOUS,
        fom_ref=2.98e-1,
        bound_ref=1.0e-24,
        lower_bound=1.0e-35,
    ),
})


def si_bound(model: ModelId, fom: float,
             constants: Constants = _DEFAULT_CONSTANTS) -> float:
    """Dimensionless bound from the raw SI constant combination; a bound
    that is not a float > 0 and at most _PRINT_MAX, the largest number
    stfom prints, raises OutOfRangeError."""
    if fom < 0.0:
        raise OutOfRangeError("fom", fom, ">= 0")
    # Products overflow to inf and underflow to 0 where ** and / raise.
    r_squared = constants.r_N * constants.r_N
    g_squared = constants.G * constants.G
    if model is ModelId.ULTRA_LOCAL_DISCRETE:
        numerator, denominator = fom * r_squared * r_squared, constants.m_N * g_squared
    else:
        numerator, denominator = fom * r_squared * constants.r_N, g_squared
    bound = numerator / denominator if denominator else math.inf
    if not 0.0 < bound <= _PRINT_MAX:
        raise OutOfRangeError("si_bound", bound, record=model.value)
    return bound


def _rescale(value: float, ref: float, target_ref: float) -> float:
    """target_ref * value / ref, the proportionality both directions use."""
    ratio = value / ref
    # A value near the largest float overflows the ratio, not always the
    # result.
    if ratio == math.inf:
        return value * (target_ref / ref)
    return target_ref * ratio


def anchored_bound(fom: float, anchor: BoundAnchor) -> float:
    """Bound in anchor.model scaled off the anchor; exact at its own FOM."""
    if not 0.0 <= fom < math.inf:
        raise OutOfRangeError("fom", fom, ">= 0")
    return _rescale(fom, anchor.fom_ref, anchor.bound_ref)


def fom_threshold(bound: float, anchor: BoundAnchor) -> float:
    """Figure of merit needed to reach a given bound in anchor.model;
    inverse of anchored_bound.  A threshold that is not a finite float > 0
    raises OutOfRangeError."""
    if not 0.0 <= bound < math.inf:
        raise OutOfRangeError("bound", bound, ">= 0")
    threshold = _rescale(bound, anchor.bound_ref, anchor.fom_ref)
    if not 0.0 < threshold < math.inf:
        raise OutOfRangeError("fom_threshold", threshold, record=anchor.model.value)
    return threshold


def orders_of_improvement(fom: float, baseline_fom: float = CAVENDISH_FOM) -> float:
    """Decades of figure-of-merit improvement over a baseline experiment."""
    if not 0.0 < fom < math.inf:
        raise OutOfRangeError("fom", fom)
    if not 0.0 < baseline_fom < math.inf:
        raise OutOfRangeError("baseline_fom", baseline_fom)
    ratio = baseline_fom / fom
    # Figures of merit far apart overflow or underflow the ratio, not its log.
    if not 0.0 < ratio < math.inf:
        return math.log10(baseline_fom) - math.log10(fom)
    return math.log10(ratio)
