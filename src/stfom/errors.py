"""Exceptions, diagnostics and field checks shared across the package."""

from __future__ import annotations

from typing import NamedTuple


class StfomError(Exception):
    """Base class for every error raised by this package."""


class FormulaError(StfomError):
    """Base class for chemical formula and material expression problems."""


class ParseError(FormulaError):
    """Formula text violates the grammar at a specific position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


class UnknownElementError(FormulaError):
    """Formula names a symbol absent from the atomic weight table."""

    def __init__(self, symbol: str):
        super().__init__(f"unknown element symbol {symbol!r}")
        self.symbol = symbol


class MaterialError(FormulaError):
    """Malformed mixture expression or invalid mass fractions."""


class FilterError(StfomError, ValueError):
    """An unknown record filter or a non-positive selection size."""


class ConstantsError(StfomError):
    """Malformed physical constants configuration."""


class UnknownConstantError(ConstantsError):
    """Constants configuration names a constant that does not exist."""

    def __init__(self, name: str):
        super().__init__(f"unknown constant {name!r}")
        self.name = name


class NonPositiveError(StfomError):
    """A value that must be strictly positive was zero or negative."""

    def __init__(self, name: str, value: float):
        super().__init__(f"{name} must be > 0, got {value!r}")
        self.name = name
        self.value = value


class NegativeInputError(StfomError):
    """A value that must be non-negative was negative."""

    def __init__(self, name: str, value: float):
        super().__init__(f"{name} must be >= 0, got {value!r}")
        self.name = name
        self.value = value


class OutOfRangeError(StfomError):
    """A record's derived value, or a model's bound, is 0, inf or NaN."""

    def __init__(self, record: str, name: str, value: float):
        super().__init__(
            f"{record}: {name} is {value!r}, outside the range of a float; "
            "the values it is computed from are too large or too small"
        )
        self.record = record
        self.name = name
        self.value = value


class _Checked:
    """Mixin, listed before its NamedTuple base, for a value class whose
    fields are checked: every way of building one, _make and _replace
    included, calls the class's _check(), which raises on a bad field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Diagnostic(NamedTuple):
    """One validation problem found in a records file.

    row is 1-based and counts data rows, so row 1 is the first line after
    the header. column is the header name of the offending field.
    """

    row: int
    column: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}: {self.code}: {self.message}"


class CatalogError(StfomError):
    """Records input failed validation; carries every diagnostic found."""

    def __init__(self, diagnostics: tuple[Diagnostic, ...]):
        lines = "; ".join(str(d) for d in diagnostics)
        super().__init__(f"{len(diagnostics)} problem(s): {lines}")
        self.diagnostics = diagnostics
