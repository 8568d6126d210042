"""Chemical formula parsing and per-nucleus composition arithmetic.

A formula is a sequence of element terms, each a capital letter plus an
optional lowercase letter and an optional decimal count::

    Si3N4      -> (Si, 3), (N, 4)
    Nd2Fe14B   -> (Nd, 2), (Fe, 14), (B, 1)
    Yb+        -> (Yb, 1), trailing charge token noted and discarded

A trailing '+' or '-' (optionally preceded by a digit, as in 'Mg2+')
marks an ion; electrons are irrelevant to nucleus counting, so the token
is stripped and only remembered as a flag.  Parentheses, hydrates, and
isotope labels are not supported.

A material is either a bare formula or a mixture of mass fractions::

    0.8*SiO2+0.2*B2O3

with no whitespace and fractions that sum to one.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import _EXPORTS
from .errors import FormulaError, OutOfRangeError, _Checked
from .quantities import _DEFAULT_CONSTANTS

__all__ = list(_EXPORTS["formula"])

# Standard atomic weights in kg/mol (CIAAW abridged values; conventional
# values for elements whose weight is published as an interval).
STANDARD_ATOMIC_WEIGHTS: Mapping[str, float] = MappingProxyType({
    "H": 1.008e-3, "He": 4.0026e-3, "Li": 6.94e-3, "Be": 9.0122e-3,
    "B": 10.81e-3, "C": 12.011e-3, "N": 14.007e-3, "O": 15.999e-3,
    "F": 18.998e-3, "Ne": 20.180e-3, "Na": 22.990e-3, "Mg": 24.305e-3,
    "Al": 26.982e-3, "Si": 28.085e-3, "P": 30.974e-3, "S": 32.06e-3,
    "Cl": 35.45e-3, "Ar": 39.95e-3, "K": 39.098e-3, "Ca": 40.078e-3,
    "Sc": 44.956e-3, "Ti": 47.867e-3, "V": 50.942e-3, "Cr": 51.996e-3,
    "Mn": 54.938e-3, "Fe": 55.845e-3, "Co": 58.933e-3, "Ni": 58.693e-3,
    "Cu": 63.546e-3, "Zn": 65.38e-3, "Ga": 69.723e-3, "Ge": 72.630e-3,
    "As": 74.922e-3, "Se": 78.971e-3, "Br": 79.904e-3, "Kr": 83.798e-3,
    "Rb": 85.468e-3, "Sr": 87.62e-3, "Y": 88.906e-3, "Zr": 91.224e-3,
    "Nb": 92.906e-3, "Mo": 95.95e-3, "Ru": 101.07e-3, "Rh": 102.91e-3,
    "Pd": 106.42e-3, "Ag": 107.87e-3, "Cd": 112.41e-3, "In": 114.82e-3,
    "Sn": 118.71e-3, "Sb": 121.76e-3, "Te": 127.60e-3, "I": 126.90e-3,
    "Xe": 131.29e-3, "Cs": 132.91e-3, "Ba": 137.33e-3, "La": 138.91e-3,
    "Ce": 140.12e-3, "Pr": 140.91e-3, "Nd": 144.24e-3, "Sm": 150.36e-3,
    "Eu": 151.96e-3, "Gd": 157.25e-3, "Tb": 158.93e-3, "Dy": 162.50e-3,
    "Ho": 164.93e-3, "Er": 167.26e-3, "Tm": 168.93e-3, "Yb": 173.05e-3,
    "Lu": 174.97e-3, "Hf": 178.49e-3, "Ta": 180.95e-3, "W": 183.84e-3,
    "Re": 186.21e-3, "Os": 190.23e-3, "Ir": 192.22e-3, "Pt": 195.08e-3,
    "Au": 196.97e-3, "Hg": 200.59e-3, "Tl": 204.38e-3, "Pb": 207.2e-3,
    "Bi": 208.98e-3, "Th": 232.04e-3, "Pa": 231.04e-3, "U": 238.03e-3,
})


class _FormulaFields(NamedTuple):
    terms: tuple[tuple[str, int], ...]
    charge_ignored: bool = False


class Formula(_FormulaFields):
    """Parsed formula: element terms in input order plus an ion flag."""

    def canonical(self) -> str:
        """Canonical text form; re-parsing yields an equal Formula for
        anything parse_formula() can produce.

        A stripped charge token survives as a bare '+', since only the
        fact that a charge was present is retained.  A hand-built charged
        Formula whose last term carries an explicit count has no faithful
        spelling: trailing digits before a sign always read as part of
        the charge token, so 'Ag2+' means one Ag with its charge dropped.
        """
        body = "".join(
            f"{symbol}{count}" if count > 1 else symbol
            for symbol, count in self.terms
        )
        return body + ("+" if self.charge_ignored else "")

    # Per-formula values that nuclei_count and format_material read,
    # computed on first use so that a hand-built Formula with an unknown
    # symbol still constructs.  parse_formula shares one Formula per text,
    # so every spec naming it, such as each row of a mixture sweep, reuses
    # them.  They live in this subclass's __dict__; a raising call stores
    # nothing.

    _canonical = cached_property(canonical)

    @cached_property
    def _molar_mass(self) -> float:
        return molar_mass(self)

    @cached_property
    def _nuclei(self) -> int:
        return nuclei_per_formula(self)


_TERM_RE = re.compile(r"([A-Z][a-z]?)([0-9]*)")
_CHARGE_RE = re.compile(r"([0-9]*)([+-])\Z")
# The nuclei of one formula unit must convert to a finite float; the
# largest float has 309 digits.
_MAX_NUCLEI = int(sys.float_info.max)
_MAX_COUNT_DIGITS = len(str(_MAX_NUCLEI))
_TOO_MANY_NUCLEI = "element counts exceed the largest float"

@lru_cache(maxsize=256)
def parse_formula(text: str, /) -> Formula:
    """Parse formula text, validating every symbol against the standard
    atomic weights.

    Equal texts return the same Formula while the cache holds the text:
    it keeps the 256 texts last read.  Raises FormulaError, its
    message prefixed "position N: " with the offending character position
    for a grammar violation, or naming the symbol for a syntactically valid
    one missing from STANDARD_ATOMIC_WEIGHTS.
    """
    if not text:
        raise FormulaError("position 0: empty formula")

    charge = _CHARGE_RE.search(text)
    body = text[: charge.start()] if charge else text
    if not body:
        raise FormulaError(
            "position 0: formula has a charge token but no element terms")

    terms: list[tuple[str, int]] = []
    nuclei = 0
    i = 0
    while i < len(body):
        match = _TERM_RE.match(body, i)
        if match is None or not match.group(1):
            raise FormulaError(
                f"position {i}: expected an element symbol, found {body[i]!r}")
        symbol, count_text = match.group(1), match.group(2)
        if symbol not in STANDARD_ATOMIC_WEIGHTS:
            raise FormulaError(f"unknown element symbol {symbol!r}")
        if count_text:
            # Checked before int(), which refuses very long digit strings.
            if len(count_text) > _MAX_COUNT_DIGITS:
                raise FormulaError(f"position {match.start(2)}: {_TOO_MANY_NUCLEI}")
            count = int(count_text)
            if count < 1:
                raise FormulaError(f"position {match.start(2)}: "
                                   "element count must be a positive integer")
        else:
            count = 1
        # Nucleus counts and molar masses are floats downstream.
        nuclei += count
        if nuclei > _MAX_NUCLEI:
            raise FormulaError(f"position {match.start(2)}: {_TOO_MANY_NUCLEI}")
        terms.append((symbol, count))
        i = match.end()
    return Formula(tuple(terms), charge_ignored=charge is not None)


# How far a mixture's mass fractions may sum from 1; MaterialSpec._check and
# parse_material's one-pass check must agree on it.
_FRACTION_SUM_TOLERANCE = 1e-9


class _MaterialFields(NamedTuple):
    components: tuple[tuple[Formula, float], ...]


class MaterialSpec(_Checked, _MaterialFields):
    """A material as mass-fractioned formula components.

    A spec keeps no values of its own and has no __dict__: nuclei_count
    and format_material read the values each component Formula keeps, and
    a mixture is spelled on each call.  Where every mixture differs, as in
    a sweep, each spec is read about once, so filling a per-spec cache
    cost more than it saved.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.components:
            raise FormulaError("material needs at least one component")
        total = 0.0
        for formula, fraction in self.components:
            if not 0.0 < fraction <= 1.0:
                raise FormulaError(
                    f"mass fraction must be in (0, 1], got {fraction!r}"
                )
            total += fraction
        if abs(total - 1.0) > _FRACTION_SUM_TOLERANCE:
            raise FormulaError(f"mass fractions sum to {total!r}, expected 1")

    @classmethod
    def pure(cls, formula: Formula) -> MaterialSpec:
        return cls(((formula, 1.0),))


# A '+' starts a new mixture component only when a fraction follows;
# otherwise it is a charge token ending the previous formula.
_COMPONENT_SPLIT_RE = re.compile(r"\+(?=[0-9.])")
# Unicode \s matches exactly the code points for which str.isspace() is true.
_WHITESPACE_RE = re.compile(r"\s")


@lru_cache(maxsize=256)
def parse_material(text: str, /) -> MaterialSpec:
    """Parse a bare formula or a 'frac*Formula+frac*Formula' mixture.

    Equal texts return the same MaterialSpec while the cache holds the
    text.  It keeps the 256 texts last read: the embedded catalog and
    surveys of its rows read 17 distinct texts, and a sweep whose
    mixtures all differ reads no text twice, so a larger cache would only
    hold texts that no later row reads.
    """
    if not text:
        raise FormulaError("empty material expression")
    # Every whitespace character but ' ' is unprintable, so clean text
    # skips the regex.
    if not (text.isprintable() and " " not in text) and _WHITESPACE_RE.search(text):
        raise FormulaError("material expression must not contain whitespace")
    if "*" not in text:
        return MaterialSpec.pure(parse_formula(text))

    # The fractions are checked as they are read, so a clean mixture skips
    # MaterialSpec._check's second walk; any other goes through it, which
    # raises its error only after every component has parsed.
    components: list[tuple[Formula, float]] = []
    total = 0.0
    in_range = True
    for part in _COMPONENT_SPLIT_RE.split(text):
        fraction_text, star, formula_text = part.partition("*")
        if not star or not fraction_text or not formula_text:
            raise FormulaError(f"bad mixture component {part!r}")
        try:
            fraction = float(fraction_text)
        except ValueError:
            raise FormulaError(f"bad mass fraction {fraction_text!r}") from None
        components.append((parse_formula(formula_text), fraction))
        if not 0.0 < fraction <= 1.0:
            in_range = False
        total += fraction
    if in_range and abs(total - 1.0) <= _FRACTION_SUM_TOLERANCE:
        return tuple.__new__(MaterialSpec, (tuple(components),))
    return MaterialSpec(tuple(components))


def format_material(mat: MaterialSpec) -> str:
    """Canonical text for a material; inverse of parse_material."""
    components = mat.components
    if len(components) == 1 and components[0][1] == 1.0:
        return components[0][0]._canonical
    return "+".join([
        f"{fraction!r}*{formula._canonical}" for formula, fraction in components
    ])


def nuclei_per_formula(formula: Formula) -> int:
    """Number of nuclei in one formula unit (electrons never counted)."""
    return sum(count for _, count in formula.terms)


def molar_mass(formula: Formula) -> float:
    """Molar mass of one formula unit in kg/mol."""
    try:
        return sum(count * STANDARD_ATOMIC_WEIGHTS[symbol]
                   for symbol, count in formula.terms)
    except KeyError as exc:
        raise FormulaError(f"unknown element symbol {exc.args[0]!r}") from None


def nuclei_count(mass_kg: float, mat: MaterialSpec,
                 n_avogadro: float = _DEFAULT_CONSTANTS.N_A) -> float:
    """Total nuclei in mass_kg of the material.

    Each component contributes mass * fraction / molar_mass moles of
    formula units, times Avogadro's number, times nuclei per unit.  The
    result is exactly linear in mass_kg.
    """
    if not 0.0 <= mass_kg < math.inf:
        raise OutOfRangeError("mass_kg", mass_kg, ">= 0")
    total = 0.0
    for formula, fraction in mat.components:
        moles = mass_kg * fraction / formula._molar_mass
        total += moles * n_avogadro * formula._nuclei
    return total
