"""Experiment records: the records reader, the embedded catalog, ranking.

The CSV exchange format has a fixed header.  Numeric cells hold plain
floats, empty cells mean "not available", secondhand is true/false, mode
is absolute/differential, and location is earth/space.  Parsing collects
every problem it finds and reports them all at once; a file with any
problem yields no catalog.  The writer, serialize_records, and the quoted
values of the embedded catalog are in stfom.export, which no command
imports.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Mapping, NamedTuple

from . import _EXPORTS
from .errors import (
    _PRINT_MAX,
    CatalogError,
    Diagnostic,
    FilterError,
    FormulaError,
    _Checked,
)
from .formula import MaterialSpec, parse_material

if TYPE_CHECKING:
    from .fom import FomResult

__all__ = list(_EXPORTS["catalog"])

# Closed taxonomy, ordered from lightest to heaviest typical test mass.
CATEGORIES: tuple[str, ...] = (
    "trapped-ion",
    "atom-interferometry",
    "nanotube",
    "nanowire",
    "nanobeam",
    "membrane",
    "optical-levitation",
    "magnetic-levitation",
    "mesoscopic",
    "massive",
)
_CATEGORY_SET = frozenset(CATEGORIES)
_MODES = frozenset(("absolute", "differential"))
_LOCATIONS = frozenset(("earth", "space"))
_FLAGS = {"true": True, "false": False}

RecordFilter = Literal["all", "absolute-on-earth"]

# A subnormal mass loses precision and overflows the densities divided by it.
_SMALLEST_NORMAL = sys.float_info.min


def _is_xml_text(text: str) -> bool:
    """Whether XML 1.0 can hold text, as figure.svg must hold each name: no
    escape represents a C0 control other than tab, LF and CR, a surrogate,
    U+FFFE or U+FFFF.  Printable text always can."""
    return text.isprintable() or all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
        or c >= "\U00010000" for c in text)


class _RecordFields(NamedTuple):
    name: str
    year: int
    reference: str
    category: str
    material: MaterialSpec
    mass_kg: float
    n_override: float | None = None
    f0_hz: float | None = None
    sqrt_sf: float | None = None
    sqrt_sa: float | None = None
    temp_k: float | None = None
    quality: float | None = None
    mode: str = "absolute"
    location: str = "earth"
    secondhand: bool = False
    notes: str = ""


_CSV_COLUMNS = _RecordFields._fields
CSV_HEADER = ",".join(_CSV_COLUMNS)


class ExperimentRecord(_Checked, _RecordFields):
    """One published experiment, as quoted by its source.

    mass_kg is the test mass.  n_override, when set, is a nucleus count
    quoted directly by the source (ion counts and similar) and takes
    precedence over the mass-and-material derivation.  sqrt_sf (N/sqrt(Hz))
    and sqrt_sa (m s^-2/sqrt(Hz)) are amplitude spectral densities; at
    least one must be present.  temp_k, f0_hz, and quality enable the
    thermal noise floor when all three are known.
    """

    __slots__ = ()

    def _check(self) -> None:
        problems = _validate_fields(0, self)
        if problems:
            raise CatalogError(tuple(problems))


def _bad_number(row: int, column: str, value: float, message: str) -> Diagnostic:
    """The BadNumber diagnostic of a value that fails its rule: message, or
    the print limit's for a finite value above _PRINT_MAX."""
    if _PRINT_MAX < value < math.inf:
        message = (f"{column} must be at most {_PRINT_MAX!r}, "
                   f"the largest number stfom prints, got {value!r}")
    return Diagnostic(row, column, "BadNumber", message)


def _validate_fields(row: int, fields: tuple) -> list[Diagnostic]:
    """Every problem of one record's fields, given in ExperimentRecord
    order, the acceleration density's after both densities'; the material
    is not read, so it may be None.  Each rule is one comparison, which
    also refuses NaN and the infinities, and those of the numbers stfom
    prints refuse one above _PRINT_MAX; a message is built only when its
    rule fails."""
    (name, _, _, category, _, mass_kg, n_override, f0_hz, sqrt_sf, sqrt_sa,
     temp_k, quality, mode, location, _, _) = fields
    problems: list[Diagnostic] = []
    if not name:
        problems.append(Diagnostic(row, "name", "MissingRequired",
                                   "record name must not be empty"))
    elif not _is_xml_text(name):
        problems.append(Diagnostic(row, "name", "BadName", f"record name {name!r} "
                                   "holds a character XML 1.0 cannot represent"))
    if category not in _CATEGORY_SET:
        problems.append(Diagnostic(row, "category", "BadCategory",
                                   f"unknown category {category!r}"))
    if not (mass_ok := _SMALLEST_NORMAL <= mass_kg <= _PRINT_MAX):
        problems.append(_bad_number(
            row, "mass_kg", mass_kg, f"mass must be finite and > 0, got {mass_kg!r}"
            if not 0.0 < mass_kg < math.inf else
            f"mass must be at least {_SMALLEST_NORMAL!r}, got {mass_kg!r}"))
    if n_override is not None and not 1.0 <= n_override <= _PRINT_MAX:
        problems.append(_bad_number(row, "n_override", n_override, "nucleus count "
                                    f"must be finite and >= 1, got {n_override!r}"))
    if f0_hz is not None and not 0.0 < f0_hz <= _PRINT_MAX:
        problems.append(_bad_number(row, "f0_hz", f0_hz, "resonance frequency "
                                    f"must be finite and > 0, got {f0_hz!r}"))
    # The FOM squares the authoritative acceleration density, taken from a
    # mass and densities that pass their own rules.  The square is a
    # product, because float ** raises OverflowError where * gives inf.
    accel = None
    if sqrt_sf is None:
        if sqrt_sa is None:
            problems.append(Diagnostic(row, "sqrt_sf", "MissingRequired",
                                       "need sqrt_sf or sqrt_sa"))
    elif not 0.0 < sqrt_sf <= _PRINT_MAX:
        problems.append(_bad_number(row, "sqrt_sf", sqrt_sf, "noise density "
                                    f"must be finite and > 0, got {sqrt_sf!r}"))
    elif mass_ok:
        column, accel = "sqrt_sf", sqrt_sf / mass_kg
    if sqrt_sa is not None:
        if not 0.0 < sqrt_sa <= _PRINT_MAX:
            problems.append(_bad_number(row, "sqrt_sa", sqrt_sa, "noise density "
                                        f"must be finite and > 0, got {sqrt_sa!r}"))
        elif sqrt_sf is None:
            column, accel = "sqrt_sa", sqrt_sa
    if accel is not None and not 0.0 < accel * accel < math.inf:
        problems.append(Diagnostic(row, column, "BadNumber", f"acceleration density "
                                   f"{accel!r} squared is not a finite float > 0"))
    if temp_k is not None and not 0.0 < temp_k < math.inf:
        problems.append(Diagnostic(row, "temp_k", "BadNumber",
                                   f"temperature must be finite and > 0, got {temp_k!r}"))
    if quality is not None and not 0.0 < quality < math.inf:
        problems.append(Diagnostic(row, "quality", "BadNumber",
                                   f"quality factor must be finite and > 0, got {quality!r}"))
    if mode not in _MODES:
        problems.append(Diagnostic(row, "mode", "BadMode",
                                   f"mode must be absolute or differential, got {mode!r}"))
    if location not in _LOCATIONS:
        problems.append(Diagnostic(row, "location", "BadLocation",
                                   f"location must be earth or space, got {location!r}"))
    return problems


class Catalog(tuple):
    """An ordered, uniquely named tuple of experiment records; it equals a
    plain tuple of the same records."""

    __slots__ = ()

    def __new__(cls, records: Iterable[ExperimentRecord]) -> Catalog:
        self = super().__new__(cls, records)
        seen: set[str] = set()
        problems: list[Diagnostic] = []
        for index, record in enumerate(self, start=1):
            if record.name in seen:
                problems.append(Diagnostic(index, "name", "DuplicateName",
                                           f"duplicate record name {record.name!r}"))
            seen.add(record.name)
        if problems:
            raise CatalogError(tuple(problems))
        return self

    def __repr__(self) -> str:
        return f"Catalog(records={tuple.__repr__(self)})"


def _lines(text: str) -> Iterator[str]:
    """The lines of text, each with its "\\n", split only at "\\n" as
    iterating io.StringIO(text) splits them, but without copying the text."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


_BOM = b"\xef\xbb\xbf"


def _decoded_lines(lines: Iterable[bytes], path: object) -> Iterator[str]:
    """The binary lines of the file at path, each decoded as UTF-8 as it is
    read and kept with its "\\n".  A leading byte order mark is dropped,
    and so is a file that is only part of one, as the utf-8-sig codec
    drops them; a byte that is not UTF-8 is a BadEncoding diagnostic whose
    offset, as that codec's, counts the bytes after the mark.

    The bytes are counted here, not left to a text-mode file: reading lines
    from one, a UnicodeDecodeError gives the position within the 8 KiB
    chunk being decoded (3616 for a bad byte at offset 20000), and a pipe
    cannot be read a second time to find the true offset.
    """
    offset = 0
    for line in lines:
        if not offset and _BOM.startswith(line[:3]):  # only the first line has offset 0
            line = line[3:]
            if not line:  # the file is a mark, or part of one
                return
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogError((
                Diagnostic(0, "file", "BadEncoding",
                           f"{path} is not UTF-8 text: {exc.reason} "
                           f"at byte offset {offset + exc.start}"),
            )) from None
        offset += len(line)
        yield text


def parse_records(text: str | Iterable[str]) -> Catalog:
    """Parse CSV text, or its lines, into a Catalog, reporting every
    problem at once.

    The lines of an iterable must be split only at "\\n" and keep it, as
    a file opened with newline="\\n" yields them.  The catalog is built
    from _checked_records, the one reader the command line folds over too.
    """
    # Names were checked row by row, so the catalog skips its own check.
    return tuple.__new__(Catalog, _checked_records(text))


def _checked_records(source: str | Iterable[str] | Iterable[bytes],
                     path: object = None) -> Iterator[ExperimentRecord]:
    """Each record of a records source, checked and yielded as its row is
    read, until a row has a problem; after the last row the CatalogError
    naming every problem is raised, if there was one.

    The source is CSV text, an iterable of its lines, or, with the path of
    the file, the binary lines of a file, which are decoded here.  Lines
    are split only at "\\n", so a "\\r" inside a quoted cell reaches the
    csv module unchanged.  A plain line, one that ends in "\\n", is no
    longer than the csv field size limit and holds no '"', "\\r" or "\\0",
    is split at its commas.  The csv module reads the header and every
    other line, with the lines that a quoted cell spans, so every row reads
    as csv.reader reads it: its quoting, its "\\r\\n" ends, its errors,
    its empty row for a blank line and its field size check.

    A bad header or a csv.Error stops the reading; the rest of a binary
    source is still decoded before the CatalogError is raised, so a later
    byte that is not UTF-8 is the one problem reported, as when the whole
    file is decoded first.  No copy of the text and no list of rows is
    held.  Names are tracked in a dict that keeps only its keys; equal year
    cells share one int, and equal reference, category, mode and location
    cells one string.
    """
    if path is not None:
        lines = _decoded_lines(source, path)
    elif isinstance(source, str):
        lines = _lines(source)
    else:
        lines = iter(source)
    limit = csv.field_size_limit()
    problems: list[Diagnostic] = []
    # Each name read, a name claimed by a row with problems included.
    names: dict[str, None] = {}
    years: dict[str, int] = {}
    texts: dict[str, str] = {}
    row_number = -1  # the last row read; the header is row 0
    try:
        if next(csv.reader(lines), None) != list(_CSV_COLUMNS):
            problems.append(Diagnostic(0, "header", "BadHeader",
                                       f"header must be exactly {CSV_HEADER!r}"))
        else:
            row_number = 0
            for line in lines:
                if (1 < len(line) <= limit and line[-1] == "\n" and '"' not in line
                        and "\r" not in line and "\0" not in line):
                    cells = line[:-1].split(",")
                else:
                    cells = next(csv.reader(itertools.chain((line,), lines)))
                row_number += 1
                record = _parse_row(row_number, cells, names, years, texts, problems)
                if not problems:
                    yield record
            if row_number == 0:
                problems.append(Diagnostic(0, "file", "NoRecords",
                                           "records file holds no records"))
    except csv.Error as exc:
        message = str(exc)
        # Lines are split only at "\n", so this is a bare "\r"; the csv
        # module's advice names a file mode, which a caller of
        # parse_records(text) does not control.
        if message.startswith("new-line character seen in unquoted field"):
            message = ("carriage return inside an unquoted cell; quote the "
                       "cell or end lines with \\n or \\r\\n")
        problems.append(Diagnostic(row_number + 1, "row", "BadCsv", message))
    if problems:
        if path is not None:
            for _ in lines:
                pass
        raise CatalogError(tuple(problems))


def _parse_row(row: int, cells: list[str], names: dict[str, None],
               years: dict[str, int], texts: dict[str, str],
               problems: list[Diagnostic]) -> ExperimentRecord | None:
    """One data row's record, its name added to names; or None, with its
    problems added to problems."""
    if len(cells) != len(_CSV_COLUMNS):
        problems.append(Diagnostic(row, "row", "BadHeader",
                                   f"expected {len(_CSV_COLUMNS)} cells, "
                                   f"got {len(cells)}"))
        return None
    (name, year_text, reference, category, material_text, mass_text,
     n_override_text, f0_text, sqrt_sf_text, sqrt_sa_text, temp_text,
     quality_text, mode, location, secondhand_text, notes) = cells
    # Every cell is converted once; the vocabulary cells, the per-source
    # reference and the year repeat across rows, so equal cells share one
    # string or int through the parse's own dicts.  Not sys.intern: an
    # interned string leaves the interpreter's table when it dies (except
    # on Python 3.12), so a command that drops each record would add the
    # cells to the table again row after row, and can grow it for good.
    # A row whose cells do not all convert, whose name is taken or whose
    # fields fail their check is walked again, cell by cell, to name every
    # problem.
    share = texts.setdefault
    try:
        year = years.get(year_text)
        if year is None:
            year = years[year_text] = int(year_text)
        fields = (
            name, year, share(reference, reference), share(category, category),
            parse_material(material_text), float(mass_text),
            float(n_override_text) if n_override_text else None,
            float(f0_text) if f0_text else None,
            float(sqrt_sf_text) if sqrt_sf_text else None,
            float(sqrt_sa_text) if sqrt_sa_text else None,
            float(temp_text) if temp_text else None,
            float(quality_text) if quality_text else None,
            share(mode, mode), share(location, location), _FLAGS[secondhand_text],
            notes,
        )
    except (ValueError, KeyError, FormulaError):
        pass
    else:
        if name not in names and not _validate_fields(row, fields):
            names[name] = None
            # The fields were checked above, so the record skips its own check.
            return tuple.__new__(ExperimentRecord, fields)
    problems += _row_problems(row, cells, names)
    return None


def _row_problems(row: int, cells: list[str],
                  names: dict[str, None]) -> list[Diagnostic]:
    """Every problem of one row of len(_CSV_COLUMNS) cells, cell by cell
    in column order, then its field problems; a name not yet in names is
    claimed, even if the row has other problems."""
    name, year_text, material_text = cells[0], cells[1], cells[4]
    problems: list[Diagnostic] = []

    def bad(column: str, code: str, message: str) -> None:
        problems.append(Diagnostic(row, column, code, message))

    if name in names:
        bad("name", "DuplicateName", f"duplicate record name {name!r}")
    elif name:
        names[name] = None
    try:
        int(year_text)
    except ValueError:
        bad("year", "BadNumber", f"not a year: {year_text!r}")
    try:
        parse_material(material_text)
    except FormulaError as exc:
        bad("material", "BadMaterial", str(exc))
    # A number cell that does not convert, and an empty mass cell, is named
    # here and reaches the field rules as NaN: present, so no density is
    # taken as missing, and failing its own rule, so no other rule reads
    # it.  That rule's diagnostic is then left out.
    numbers: list[float | None] = []  # mass_kg through quality
    unread: set[str] = set()
    for column, text in zip(_CSV_COLUMNS[5:12], cells[5:12]):
        number = None
        if text:
            try:
                number = float(text)
            except ValueError:
                bad(column, "BadNumber", f"not a number: {text!r}")
                number = math.nan
                unread.add(column)
        elif column == "mass_kg":
            bad(column, "MissingRequired", "mass_kg must not be empty")
            number = math.nan
            unread.add(column)
        numbers.append(number)
    if cells[14] not in _FLAGS:
        bad("secondhand", "BadFlag",
            f"secondhand must be true or false, got {cells[14]!r}")
    problems += [d for d in _validate_fields(row, (
        name, None, None, cells[3], None, *numbers, cells[12], cells[13],
        None, None)) if d.column not in unread]
    return problems


def _csv_cell(text: str) -> str:
    """Free text as one CSV cell: quoted, with each '"' doubled, when it
    holds ',', '"', "\\r" or "\\n", as the csv module's writer quotes it
    with its default dialect."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _on_earth(record: ExperimentRecord) -> bool:
    """Whether the absolute-on-earth filter keeps record."""
    return record.mode == "absolute" and record.location == "earth"


_NAME = attrgetter("name")


def rank(
    catalog: Catalog,
    results: Mapping[str, FomResult],
    which: RecordFilter = "all",
) -> list[ExperimentRecord]:
    """Records passing the filter, best (lowest) figure of merit first.

    Ties break on the record name so the order is total and repeatable:
    the records are sorted by name, then stably by figure of merit, which
    builds no key tuple per record.
    """
    if which == "all":
        records = list(catalog)
    elif which == "absolute-on-earth":
        records = [r for r in catalog if _on_earth(r)]
    else:
        raise FilterError(f"unknown filter {which!r}")
    records.sort(key=_NAME)
    records.sort(key=lambda r: results[r.name].fom)
    return records


def select_for_figure(
    ranked: Iterable[ExperimentRecord],
    k: int = 3,
) -> list[ExperimentRecord]:
    """The first k records of every category, in the order given.

    Given rank()'s list, these are the k best of each category, already
    ranked.  Categories with fewer than k records contribute all of them.
    """
    if k < 1:
        raise FilterError(f"k must be >= 1, got {k!r}")
    taken: dict[str, int] = {}
    chosen: list[ExperimentRecord] = []
    for record in ranked:
        count = taken.get(record.category, 0)
        if count < k:
            taken[record.category] = count + 1
            chosen.append(record)
    return chosen


# The embedded catalog: 46 published experiments in the records format,
# loaded by parse_records like any user file.  Values are kept verbatim as
# the sources print them, so tests against these rows exercise the
# computation, not transcription.
_EMBEDDED_CSV = CSV_HEADER + "\n" + """\
Asenbaum '17,2017,Asenbaum et al. (2017),atom-interferometry,Rb,1.44e-19,,,7.08e-28,4.91e-9,,,differential,earth,false,
Biedermann '15,2015,Biedermann et al. (2015),atom-interferometry,Cs,2.21e-17,,,9.09e-25,4.12e-8,,,differential,earth,false,
Armano '18,2018,Armano et al. (2018),massive,Au,1.93,,,3.35e-15,1.74e-15,,,differential,space,false,satellite test masses near the Sun-Earth L1 point
Gisler '22,2022,Gisler et al. (2022),nanowire,Si3N4,9.30e-15,,1.41e6,9.60e-21,1.03e-6,,,absolute,earth,false,
Seis '22,2022,Seis et al. (2022),membrane,Si3N4,1.50e-11,,1.49e6,6.50e-19,4.33e-8,,,absolute,earth,false,
Martynov '16,2016,Martynov et al. (2016),massive,SiO2,4.00e1,,1.00e2,1.57e-12,3.92e-14,,,absolute,earth,true,interferometer mirror
Fogliano '21,2021,Fogliano et al. (2021),nanowire,SiC,1.60e-14,,1.16e4,4.00e-20,2.50e-6,,,absolute,earth,false,
Fuchs '24,2024,Fuchs et al. (2024),magnetic-levitation,Nd2Fe14B,4.00e-7,,2.67e1,5.00e-16,1.25e-9,,,absolute,earth,false,
Hamilton '15,2015,Hamilton et al. (2015),atom-interferometry,Cs,4.41e-18,,,2.60e-21,5.89e-4,,,differential,earth,false,
Mamin '01,2001,Mamin and Rugar (2001),nanobeam,Si,6.85e-13,,4.98e3,8.20e-19,1.20e-6,,,absolute,earth,false,
Timberlake '23,2023,Timberlake et al. (2023),magnetic-levitation,Nd2Fe14B,2.30e-8,,4.24e1,3.40e-16,1.48e-8,,,absolute,earth,false,
Liang '22,2022,Liang et al. (2022),optical-levitation,SiO2,4.68e-18,,1.75e5,4.34e-21,9.27e-4,,,absolute,earth,false,
Maiwald '09,2009,Maiwald et al. (2009),trapped-ion,Mg+,4.04e-26,1,1.00e6,4.60e-25,1.14e1,,,absolute,earth,false,single ion
Norte '16,2016,Norte et al. (2016),membrane,Si3N4,2.30e-11,,1.50e5,1.00e-17,4.35e-7,,,absolute,earth,false,
Monteiro '20,2020,Monteiro et al. (2020),optical-levitation,SiO2,9.42e-13,2.27e14,6.30e1,8.78e-19,9.32e-7,,,absolute,earth,false,quoted nucleus count kept; mass and composition imply about 8x fewer
Kampel '17,2017,Kampel et al. (2017),membrane,Si3N4,1.00e-11,,1.60e6,9.81e-18,9.81e-7,,,absolute,earth,true,
Héritier '18,2018,Héritier et al. (2018),nanowire,C,4.10e-15,,2.50e4,1.88e-19,4.59e-5,,,absolute,earth,false,diamond nanowire
Tebbenjohanns '20,2020,Tebbenjohanns et al. (2020),optical-levitation,SiO2,3.49e-18,,1.46e5,8.00e-21,2.29e-3,,,absolute,earth,true,
Tebbenjohanns '19,2019,Tebbenjohanns et al. (2019),optical-levitation,SiO2,3.49e-18,,1.46e5,1.00e-20,2.87e-3,,,absolute,earth,true,
Lewandowski '21,2021,Lewandowski et al. (2021),magnetic-levitation,0.8*SiO2+0.2*B2O3,2.50e-10,,1.75,8.83e-17,3.53e-7,,,absolute,earth,false,"borosilicate glass as 80% silica, 20% boron trioxide by mass"
Teufel '09,2009,Teufel et al. (2009),nanowire,Al,5.50e-15,,1.04e6,5.10e-19,9.27e-5,,,absolute,earth,false,
Cripe '19,2019,Cripe et al. (2019),nanobeam,GaAs,5.00e-11,,8.76e2,9.81e-17,1.96e-6,,,absolute,earth,true,
Reinhardt '16,2016,Reinhardt et al. (2016),membrane,Si3N4,4.00e-12,,4.08e4,2.00e-17,5.00e-6,,,absolute,earth,false,
Gieseler '13,2013,Gieseler et al. (2013),optical-levitation,SiO2,3.00e-18,,1.25e5,2.00e-20,6.67e-3,,,absolute,earth,false,
Delić '20,2020,Delić et al. (2020),optical-levitation,SiO2,2.83e-18,,3.05e5,1.94e-20,6.87e-3,,,absolute,earth,false,
Corbitt '07,2007,Corbitt et al. (2007),mesoscopic,SiO2,1.00e-3,,1.80e3,3.95e-13,3.95e-10,,,absolute,earth,false,
Westphal '21,2021,Westphal et al. (2021),mesoscopic,Au,2.18e-4,,3.59e-3,9.07e-13,4.16e-9,,,absolute,earth,false,
Rider '18,2018,Rider et al. (2018),optical-levitation,SiO2,1.53e-13,,2.50e2,1.15e-17,7.50e-5,,,absolute,earth,false,
Kawasaki '20,2020,Kawasaki et al. (2020),optical-levitation,SiO2,8.40e-14,,3.01e2,1.00e-17,1.19e-4,,,absolute,earth,false,
Hempston '17,2017,Hempston et al. (2017),optical-levitation,SiO2,7.60e-19,,7.20e4,3.20e-20,4.21e-2,,,absolute,earth,false,
De Bonis '18,2018,De Bonis et al. (2018),nanotube,C,8.60e-21,,2.92e7,4.30e-21,5.00e-1,,,absolute,earth,false,
Hälg '21,2021,Hälg et al. (2021),membrane,Si3N4,1.40e-11,,1.42e6,2.80e-16,2.00e-5,,,absolute,earth,false,
Priel '22,2022,Priel et al. (2022),optical-levitation,SiO2,5.85e-13,,1.00e5,1.00e-16,1.71e-4,,,absolute,earth,false,
Moser '13,2013,Moser et al. (2013),nanotube,C,1.00e-20,,4.20e6,1.20e-20,1.20,,,absolute,earth,false,
Weber '16,2016,Weber et al. (2016),nanotube,C,9.60e-18,,4.60e7,3.90e-19,4.06e-2,,,absolute,earth,false,
Ranjit '16,2016,Ranjit et al. (2016),optical-levitation,SiO2,3.75e-17,,2.83e3,1.63e-18,4.35e-2,,,absolute,earth,false,
Krause '12,2012,Krause et al. (2012),membrane,Si3N4,1.00e-11,,2.75e4,9.81e-16,9.81e-5,,,absolute,earth,false,
Nichol '12,2012,Nichol et al. (2012),nanowire,Si,2.66e-17,,7.86e5,1.95e-18,7.33e-2,,,absolute,earth,false,
Biercuk '10,2010,Biercuk et al. (2010),trapped-ion,Be+,1.95e-24,1.30e2,8.67e5,3.90e-22,2.00e2,,,absolute,earth,false,ion crystal
Ranjit '15,2015,Ranjit et al. (2015),optical-levitation,SiO2,3.75e-14,,1.07e3,2.17e-16,5.79e-3,,,absolute,earth,false,
Affolter '20,2020,Affolter et al. (2020),trapped-ion,Be+,1.50e-24,1.00e2,1.58e6,1.20e-21,8.02e2,,,absolute,earth,false,ion crystal
Timberlake '19,2019,Timberlake et al. (2019),magnetic-levitation,Nd2Fe14B,4.00e-6,,1.94e1,7.85e-12,1.96e-6,,,absolute,earth,false,
Guzmán C. '14,2014,Guzmán Cervantes et al. (2014),mesoscopic,SiO2,2.50e-5,,1.07e4,2.45e-11,9.81e-7,,,absolute,earth,false,
Shaniv '17,2017,Shaniv and Ozeri (2017),trapped-ion,Sr+,1.44e-25,1,1.13e6,2.80e-20,1.94e5,,,absolute,earth,false,single ion
Blums '18,2018,Blums et al. (2018),trapped-ion,Yb+,2.89e-25,1,8.29e5,3.47e-19,1.20e6,,,absolute,earth,false,single ion
Cavendish 1798,1798,Cavendish (1798),massive,Pb,1.00,1.00e26,2.00e-3,1.00e-6,1.00e-6,,,absolute,earth,false,historical torsion balance; round quoted nucleus count kept
"""


@lru_cache(maxsize=1)
def embedded_catalog() -> Catalog:
    """The packaged reference catalog of 46 published experiments."""
    return parse_records(_EMBEDDED_CSV)
