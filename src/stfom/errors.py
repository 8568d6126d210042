"""Exceptions, diagnostics and field checks shared across the package."""

from __future__ import annotations

from typing import NamedTuple

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])

# The largest number stfom prints.  At 3 significant figures any larger
# float is written 1.80e308, which float() reads back as inf.
_PRINT_MAX = 1.795e308


class StfomError(Exception):
    """Base class for every error raised by this package."""


class FormulaError(StfomError):
    """A formula or material expression that does not parse: bad grammar
    (its message starts "position N: "), an unknown element symbol, or a
    malformed mixture or mass fraction."""


class FilterError(StfomError, ValueError):
    """An unknown record filter or a non-positive selection size."""


class ConstantsError(StfomError):
    """Malformed physical constants configuration or an unknown constant."""


class OutOfRangeError(StfomError):
    """A value outside its range.

    Without a record, the message states rule, "> 0" or ">= 0", for a
    value that must be a finite float so.  A value derived for a named
    record, or a model's bound, must instead be a float > 0 and at most
    _PRINT_MAX: not 0, NaN, or too large to print.
    """

    def __init__(self, name: str, value: float, rule: str = "> 0",
                 record: str | None = None):
        super().__init__(
            f"{name} must be a finite float {rule}, got {value!r}" if record is None
            else f"{record}: {name} is {value!r}, outside the range stfom prints "
                 f"(> 0 and at most {_PRINT_MAX!r}); the values it is computed "
                 "from are too large or too small"
        )
        self.name = name
        self.value = value
        self.record = record


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
    """One validation problem found in a records file or record.

    row counts data rows from 1, so row 1 is the first row after the
    header, or a hand-built Catalog's first record; row 0 holds the
    problems of the header, of the file as a whole and of a hand-built
    ExperimentRecord.  column is the header name of the offending field,
    or "row", "header" or "file" for a problem of the row, the header or
    the file as a whole.
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
