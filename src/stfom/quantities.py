"""Physical constants and their override file.

The package works in SI throughout.  Frequencies are stored in Hz;
fom.evaluate_record turns a resonance frequency into the angular
frequency 2 pi f0 its thermal formulas take.
"""

from __future__ import annotations

import io
import math
from typing import NamedTuple

from . import _EXPORTS
from .errors import ConstantsError, OutOfRangeError, _Checked

__all__ = list(_EXPORTS["quantities"])


class _ConstantsFields(NamedTuple):
    # The default values, SI.  CODATA 2018 for N_A and k_B; the
    # gravitational constant and the nuclear scales are kept at the
    # precision the downstream formulas actually resolve.
    G: float = 6.674e-11
    N_A: float = 6.02214076e23
    k_B: float = 1.380649e-23
    r_N: float = 1.0e-15
    m_N: float = 1.6726e-27


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
                raise OutOfRangeError(name, value)


# The default of every function that takes constants; the CLI uses it
# when no constants file is given.
_DEFAULT_CONSTANTS = Constants()

# Canonical text form of the defaults, parseable by load_constants().
DEFAULT_CONSTANTS_TEXT = "# default physical constants (SI)\n" + "".join(
    [f"{name} {value!r}\n" for name, value in _DEFAULT_CONSTANTS._asdict().items()])

_CONSTANT_NAMES = frozenset(Constants._fields)


def load_constants(text: str) -> Constants:
    """Parse a constants override file and merge it over the defaults.

    The format is line oriented UTF-8, with lines ending only in "\\n",
    "\\r\\n" or "\\r", not at every separator str.splitlines() knows:
    blank lines and '#' comments are ignored, every other line is
    'name value' separated by whitespace.  Only the five known constant
    names are accepted.  A later line for the same name overrides an
    earlier one; Constants then refuses a value that is not a finite
    float > 0, in field order.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
            raise ConstantsError(f"unknown constant {name!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise ConstantsError(
                f"line {lineno}: bad numeric value {value_text!r} for {name}"
            ) from None
        overrides[name] = value
    return Constants(**overrides)
