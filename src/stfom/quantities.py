"""Physical constants and spectral density conversions.

The package works in SI throughout.  Frequencies are stored in Hz and
converted to angular frequency by angular_frequency(), whose product
fom.evaluate_record repeats inline.
Noise levels appear in two interchangeable forms: amplitude spectral
densities (what experiments quote, e.g. N/sqrt(Hz)) and power spectral
densities (what the formulas consume, e.g. N^2/Hz).  asd_to_psd() and
psd_to_asd() move between them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    ConstantsError,
    NegativeInputError,
    NonPositiveError,
    UnknownConstantError,
    _Checked,
)

# Default constant values, SI.  CODATA 2018 for N_A and k_B; the
# gravitational constant and the nuclear scales are kept at the precision
# the downstream formulas actually resolve.
GRAVITATIONAL_CONSTANT = 6.674e-11
AVOGADRO = 6.02214076e23
BOLTZMANN = 1.380649e-23
NUCLEUS_RADIUS = 1.0e-15
NUCLEON_MASS = 1.6726e-27

# Canonical text form of the defaults, parseable by load_constants().
DEFAULT_CONSTANTS_TEXT = """\
# default physical constants (SI)
G 6.674e-11
N_A 6.02214076e23
k_B 1.380649e-23
r_N 1.0e-15
m_N 1.6726e-27
"""


class _ConstantsFields(NamedTuple):
    G: float = GRAVITATIONAL_CONSTANT
    N_A: float = AVOGADRO
    k_B: float = BOLTZMANN
    r_N: float = NUCLEUS_RADIUS
    m_N: float = NUCLEON_MASS


class Constants(_Checked, _ConstantsFields):
    """The physical constants every formula in the package draws from.

    G       gravitational constant, m^3 kg^-1 s^-2
    N_A     Avogadro constant, mol^-1
    k_B     Boltzmann constant, J/K
    r_N     typical nucleus radius, m
    m_N     nucleon mass, kg
    """

    __slots__ = ()

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not 0.0 < value < math.inf:
                raise NonPositiveError(name, value)


_CONSTANT_NAMES = frozenset(Constants._fields)


def load_constants(text: str) -> Constants:
    """Parse a constants override file and merge it over the defaults.

    The format is line oriented UTF-8: blank lines and '#' comments are
    ignored, every other line is 'name value' separated by whitespace.
    Only the five known constant names are accepted.  A later line for
    the same name overrides an earlier one; Constants then refuses a
    value that is not a finite float > 0, in field order.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConstantsError(
                f"line {lineno}: expected 'name value', got {raw.strip()!r}"
            )
        name, value_text = parts
        if name not in _CONSTANT_NAMES:
            raise UnknownConstantError(name)
        try:
            value = float(value_text)
        except ValueError:
            raise ConstantsError(
                f"line {lineno}: bad numeric value {value_text!r} for {name}"
            ) from None
        overrides[name] = value
    return Constants(**overrides)


def angular_frequency(f0_hz: float) -> float:
    """Convert a resonance frequency in Hz to angular frequency in rad/s."""
    if f0_hz <= 0.0:
        raise NonPositiveError("f0_hz", f0_hz)
    return 2.0 * math.pi * f0_hz


def asd_to_psd(x: float) -> float:
    """Square a non-negative amplitude spectral density into a power
    spectral density."""
    if x < 0.0:
        raise NegativeInputError("amplitude spectral density", x)
    return x * x


def psd_to_asd(x: float) -> float:
    """Square root of a power spectral density, inverse of asd_to_psd."""
    if x < 0.0:
        raise NegativeInputError("power spectral density", x)
    return math.sqrt(x)
