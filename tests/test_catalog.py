import contextlib
import csv
import io
import math
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from stfom import (
    CATEGORIES,
    CSV_HEADER,
    Catalog,
    CatalogError,
    Diagnostic,
    ExperimentRecord,
    FilterError,
    FormulaError,
    StfomError,
    embedded_catalog,
    embedded_reference_values,
    emit_bounds_summary,
    emit_table,
    evaluate_catalog,
    format_material,
    format_sig,
    parse_material,
    parse_records,
    rank,
    select_for_figure,
    serialize_records,
)
from stfom.catalog import _checked_records, _is_xml_text, _lines
from stfom.errors import _PRINT_MAX
from stfom.report import TABLE_HEADER

GOOD_ROW = (
    "Probe '21,2021,synthetic,membrane,Si3N4,1e-9,,1e3,1e-15,,300,1e4,"
    "absolute,earth,false,"
)


def _records_text(*rows):
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def test_embedded_catalog_shape(catalog):
    assert len(catalog) == 46
    names = [r.name for r in catalog]
    assert len(set(names)) == 46


def test_embedded_category_census(catalog):
    census = Counter(r.category for r in catalog)
    assert census == {
        "optical-levitation": 12,
        "membrane": 6,
        "nanowire": 5,
        "trapped-ion": 5,
        "magnetic-levitation": 4,
        "atom-interferometry": 3,
        "massive": 3,
        "mesoscopic": 3,
        "nanotube": 3,
        "nanobeam": 2,
    }
    assert set(census) == set(CATEGORIES)


def test_embedded_differential_and_space_records(catalog):
    differential = {r.name for r in catalog if r.mode == "differential"}
    assert differential == {
        "Armano '18", "Asenbaum '17", "Biedermann '15", "Hamilton '15"
    }
    in_space = {r.name for r in catalog if r.location == "space"}
    assert in_space == {"Armano '18"}


def test_embedded_secondhand_records(catalog):
    secondhand = {r.name for r in catalog if r.secondhand}
    assert secondhand == {
        "Martynov '16", "Kampel '17", "Tebbenjohanns '20",
        "Tebbenjohanns '19", "Cripe '19",
    }


def test_embedded_overrides(catalog):
    overridden = {r.name: r.n_override for r in catalog if r.n_override is not None}
    assert overridden == {
        "Maiwald '09": 1.0,
        "Shaniv '17": 1.0,
        "Blums '18": 1.0,
        "Biercuk '10": 130.0,
        "Affolter '20": 100.0,
        "Cavendish 1798": 1.0e26,
        "Monteiro '20": 2.27e14,
    }


def test_embedded_reference_values_cover_all_records(catalog):
    quoted = embedded_reference_values()
    assert set(quoted) == {r.name for r in catalog}
    assert quoted["Gisler '22"].fom == 2.98e-1
    assert quoted["Cavendish 1798"].n_nuclei == 1.0e26


def test_every_record_has_noise_and_positive_mass(catalog):
    for record in catalog:
        assert record.mass_kg > 0.0
        assert record.sqrt_sf is not None or record.sqrt_sa is not None


def test_serialize_parse_object_roundtrip(catalog):
    assert parse_records(serialize_records(catalog)) == catalog


def test_serialize_parse_byte_roundtrip(catalog):
    text = serialize_records(catalog)
    assert serialize_records(parse_records(text)) == text
    assert text.splitlines()[0] == CSV_HEADER


def test_parse_minimal_good_file():
    catalog = parse_records(_records_text(GOOD_ROW))
    assert len(catalog) == 1
    record = {r.name: r for r in catalog}["Probe '21"]
    assert record.temp_k == 300.0
    assert record.sqrt_sa is None
    assert record.notes == ""


def test_parse_rejects_wrong_header():
    with pytest.raises(CatalogError) as err:
        parse_records("name,year\nfoo,2001\n")
    assert err.value.diagnostics[0].code == "BadHeader"


def test_parse_collects_every_problem():
    bad = _records_text(
        GOOD_ROW,
        GOOD_ROW.replace("Probe '21", "Probe 2").replace("membrane", "squishy"),
        GOOD_ROW.replace("Probe '21", "Probe 3").replace("1e-9", "heavy"),
        GOOD_ROW,  # duplicate name
    )
    with pytest.raises(CatalogError) as err:
        parse_records(bad)
    codes = {(d.row, d.code) for d in err.value.diagnostics}
    assert (2, "BadCategory") in codes
    assert (3, "BadNumber") in codes
    assert (4, "DuplicateName") in codes
    assert len(err.value.diagnostics) == 3


def test_parse_rejects_non_finite_numbers():
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(GOOD_ROW.replace("1e-9", "nan")))
    assert any(d.code == "BadNumber" and d.column == "mass_kg"
               for d in err.value.diagnostics)


def test_parse_requires_some_noise_density():
    row = ("Quiet,2021,synthetic,membrane,Si3N4,1e-9,,,,,,,absolute,earth,false,")
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(row))
    assert any(d.code == "MissingRequired" and d.column == "sqrt_sf"
               for d in err.value.diagnostics)


def test_parse_validates_mode_location_flag():
    bad = _records_text(
        GOOD_ROW.replace("absolute", "sideways"),
    )
    with pytest.raises(CatalogError) as err:
        parse_records(bad)
    assert any(d.code == "BadMode" for d in err.value.diagnostics)
    with pytest.raises(CatalogError):
        parse_records(_records_text(GOOD_ROW.replace("earth", "moon")))
    with pytest.raises(CatalogError):
        parse_records(_records_text(GOOD_ROW.replace("false", "nope")))


def test_parse_reports_bad_material():
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(GOOD_ROW.replace("Si3N4", "si3n4")))
    assert any(d.code == "BadMaterial" for d in err.value.diagnostics)


def test_record_constructor_validates():
    with pytest.raises(CatalogError):
        ExperimentRecord(
            name="bad", year=2021, reference="", category="membrane",
            material=parse_material("Si3N4"), mass_kg=-1.0, sqrt_sf=1e-15,
        )
    with pytest.raises(CatalogError):
        ExperimentRecord(
            name="bad", year=2021, reference="", category="not-a-thing",
            material=parse_material("Si3N4"), mass_kg=1.0, sqrt_sf=1e-15,
        )
    with pytest.raises(CatalogError):
        ExperimentRecord(
            name="bad", year=2021, reference="", category="membrane",
            material=parse_material("Si3N4"), mass_kg=1.0,
        )


def test_catalog_rejects_duplicate_names():
    record = ExperimentRecord(
        name="twin", year=2021, reference="", category="membrane",
        material=parse_material("Si3N4"), mass_kg=1.0, sqrt_sf=1e-15,
    )
    with pytest.raises(CatalogError) as err:
        Catalog((record, record))
    assert err.value.diagnostics[0].code == "DuplicateName"


def test_catalog_is_a_tuple_of_its_records(catalog):
    records = tuple(catalog)
    assert isinstance(catalog, tuple)
    assert catalog == records and hash(catalog) == hash(records)
    assert Catalog(iter(records)) == catalog
    assert type(Catalog(iter(records))) is Catalog
    assert repr(Catalog(())) == "Catalog(records=())"


def _probe(**fields):
    base = dict(name="Probe", year=2021, reference="", category="membrane",
                material=parse_material("Si3N4"), mass_kg=1e-9, sqrt_sf=1e-15)
    return ExperimentRecord(**{**base, **fields})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [
    "n_override", "f0_hz", "sqrt_sf", "sqrt_sa", "temp_k", "quality"])
def test_hand_built_record_refuses_non_finite_numbers(column, value):
    # A parsed row gets the same check, so nothing serialize_records
    # writes is refused on the way back.
    with pytest.raises(CatalogError) as err:
        _probe(**{column: value})
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (0, column, "BadNumber")]


@pytest.mark.parametrize("column, other", [
    ("mass_kg", dict(sqrt_sf=1e300)), ("n_override", {}), ("f0_hz", {}),
    ("sqrt_sf", dict(mass_kg=1e300)), ("sqrt_sa", {})])
def test_a_number_too_large_to_print_is_refused(column, other):
    # 1.796e308 is finite, but printed at 3 figures it reads back as inf.
    assert _probe(**{column: _PRINT_MAX}, **other)
    with pytest.raises(CatalogError) as err:
        _probe(**{column: 1.796e308}, **other)
    assert err.value.diagnostics == ((0, column, "BadNumber",
        f"{column} must be at most 1.795e+308, the largest number stfom "
        "prints, got 1.796e+308"),)


@pytest.mark.parametrize("name", ["X\x01Y", "nul\x00", "esc\x1b", "bad\ufffe",
                                  "bad\uffff", "lone\ud800surrogate"])
def test_name_that_xml_cannot_hold_is_refused(name):
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(GOOD_ROW.replace("Probe '21", name)))
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (1, "name", "BadName")]
    with pytest.raises(CatalogError):
        _probe(name=name)


def test_name_may_hold_tab_newline_and_astral_characters():
    for name in ("tab\there", "line\nbreak", "cr\rname", "\U0001f52d scope",
                 "\ufffd"):
        assert _probe(name=name).name == name


def test_duplicate_name_is_reported_beside_the_first_rows_problems():
    bad = _records_text(GOOD_ROW.replace("absolute", "sideways"), GOOD_ROW)
    with pytest.raises(CatalogError) as err:
        parse_records(bad)
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (1, "mode", "BadMode"), (2, "name", "DuplicateName")]


def test_missing_names_are_not_duplicates():
    blank = GOOD_ROW.replace("Probe '21", "")
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(blank, blank))
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (1, "name", "MissingRequired"), (2, "name", "MissingRequired")]


def test_bare_carriage_return_survives_the_round_trip():
    record = _probe(name="a\rb", reference="\r", notes="c\r")
    text = serialize_records(Catalog((record,)))
    row = text.split("\n")[1]
    assert row.startswith('"a\rb",2021,"\r",') and row.endswith(',"c\r"')
    assert tuple(parse_records(text)) == (record,)


def _reference_csv_text(header, rows):
    """CSV as csv.writer writes it with a "\\r\\n" terminator, each line's
    "\\r" then dropped: how both writers built their lines before they
    quoted only the free-text cells themselves."""
    out = io.StringIO()
    write = out.write
    writer = csv.writer(SimpleNamespace(write=lambda line: write(line[:-2] + "\n")),
                        lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# XML text mixing the characters CSV quoting turns on, "\x85" (a line
# break to str.splitlines but not to the csv module) and exponent-like text.
_FREE_TEXT = st.lists(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x85", " ", "\t", "e+05"])
    | st.text(st.characters(exclude_categories=("Cc", "Cs", "Cn")), min_size=1),
    max_size=6).map("".join)


@settings(max_examples=200)
@given(st.lists(st.tuples(_FREE_TEXT.filter(bool), _FREE_TEXT, _FREE_TEXT),
                min_size=1, max_size=4, unique_by=lambda texts: texts[0]))
@example([('Glass "G1" & <Co>', "a,b", "c\r\nd")])
@example([("e+05", "\x85", "\r")])
def test_free_text_is_quoted_as_csv_writer_quotes_it(texts):
    catalog = Catalog(
        embedded_catalog()[i]._replace(name=name, reference=reference, notes=notes)
        for i, (name, reference, notes) in enumerate(texts))
    assert all(_is_xml_text(record.name) for record in catalog)
    rows = [[r.name, str(r.year), r.reference, r.category,
             format_material(r.material), repr(r.mass_kg),
             *("" if v is None else repr(v) for v in (
                 r.n_override, r.f0_hz, r.sqrt_sf, r.sqrt_sa, r.temp_k, r.quality)),
             r.mode, r.location, "true" if r.secondhand else "false", r.notes]
            for r in catalog]
    text = serialize_records(catalog)
    assert text == _reference_csv_text(CSV_HEADER.split(","), rows)
    assert list(csv.reader(io.StringIO(text))) == [CSV_HEADER.split(","), *rows]
    assert parse_records(text) == catalog

    results = evaluate_catalog(catalog)
    table_rows = [[r.name, r.category, format_material(r.material),
                   *(format_sig(v) for v in (r.mass_kg, results[r.name].n_nuclei)),
                   "" if r.f0_hz is None else format_sig(r.f0_hz),
                   *(format_sig(v) for v in (results[r.name].sqrt_sf,
                                             results[r.name].sqrt_sa,
                                             results[r.name].fom))]
                  for r in catalog]
    table = emit_table(catalog, results)
    assert table == _reference_csv_text(TABLE_HEADER, table_rows)
    assert list(csv.reader(io.StringIO(table))) == [list(TABLE_HEADER), *table_rows]


_MATERIALS = ("Si3N4", "SiO2", "Au", "Mg+", "Nd2Fe14B", "0.8*SiO2+0.2*B2O3",
              "0.25*C+0.75*Si")
# Any float, NaN and infinities included, though mostly a plain one.
_FLOAT = st.floats(1e-30, 1e30) | st.floats(1e-300, 1e300) | st.floats()
_OPTIONAL_FLOAT = st.none() | _FLOAT


@st.composite
def _records(draw):
    """Fields of the annotated types, any text and any float; about one
    draw in six constructs."""
    return dict(
        name=draw(st.text(min_size=1)
                  | st.text(st.characters(exclude_categories=()), min_size=1)),
        year=draw(st.integers(-9999, 9999)),
        reference=draw(st.text()),
        category=draw(st.sampled_from(CATEGORIES)),
        material=parse_material(draw(st.sampled_from(_MATERIALS))),
        mass_kg=draw(_FLOAT),
        n_override=draw(_OPTIONAL_FLOAT),
        f0_hz=draw(_OPTIONAL_FLOAT),
        sqrt_sf=draw(_OPTIONAL_FLOAT),
        sqrt_sa=draw(_OPTIONAL_FLOAT),
        temp_k=draw(_OPTIONAL_FLOAT),
        quality=draw(_OPTIONAL_FLOAT),
        mode=draw(st.sampled_from(("absolute", "differential"))),
        location=draw(st.sampled_from(("earth", "space"))),
        secondhand=draw(st.booleans()),
        notes=draw(st.text()),
    )


@settings(max_examples=300)
@given(_records())
@example(dict(name="Probe", year=2021, reference="", category="membrane",
              material=parse_material("Si3N4"), mass_kg=1e-9, n_override=None,
              f0_hz=None, sqrt_sf=1e-15, sqrt_sa=math.nan, temp_k=None,
              quality=None, mode="absolute", location="earth",
              secondhand=False, notes=""))
def test_every_record_that_constructs_round_trips(fields):
    try:
        record = ExperimentRecord(**fields)
    except CatalogError:
        return
    assert tuple(parse_records(serialize_records(Catalog((record,))))) == (record,)


def test_rank_is_ascending_and_total(catalog, results):
    ranked = rank(catalog, results)
    assert len(ranked) == 46
    foms = [results[r.name].fom for r in ranked]
    assert foms == sorted(foms)
    assert ranked[0].name == "Asenbaum '17"
    assert ranked[-1].name == "Cavendish 1798"


def test_rank_breaks_ties_by_name():
    def record(name):
        return ExperimentRecord(
            name=name, year=2021, reference="", category="membrane",
            material=parse_material("Si3N4"), mass_kg=1e-9,
            sqrt_sa=1e-6, n_override=100.0,
        )
    tied = Catalog((record("bbb"), record("aaa"), record("ccc")))
    tied_results = evaluate_catalog(tied)
    assert [r.name for r in rank(tied, tied_results)] == ["aaa", "bbb", "ccc"]


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 45), st.integers(0, 4)), unique=True,
                max_size=60),
       st.sampled_from(("all", "absolute-on-earth")))
@example([(24, 1), (24, 0), (23, 0), (24, 2)], "all")
def test_rank_orders_by_fom_then_name(picks, which):
    # Renamed copies of the embedded records, in any order, tie on their FOM.
    embedded = tuple(embedded_catalog())
    survey = Catalog(embedded[index]._replace(name=f"{embedded[index].name} #{copy}")
                     for index, copy in picks)
    results = evaluate_catalog(survey)
    passing = [r for r in survey if which == "all"
               or (r.mode == "absolute" and r.location == "earth")]
    assert rank(survey, results, which) == sorted(
        passing, key=lambda r: (results[r.name].fom, r.name))


def test_rank_filter_absolute_on_earth(catalog, results):
    ranked = rank(catalog, results, "absolute-on-earth")
    names = {r.name for r in ranked}
    assert len(ranked) == 42
    assert names.isdisjoint(
        {"Armano '18", "Asenbaum '17", "Biedermann '15", "Hamilton '15"}
    )
    assert ranked[0].name == "Gisler '22"


def test_rank_rejects_unknown_filter(catalog, results):
    with pytest.raises(ValueError):
        rank(catalog, results, "best-only")


def test_select_for_figure_trapped_ions(ranked):
    chosen = select_for_figure(ranked, k=3)
    ions = {r.name for r in chosen if r.category == "trapped-ion"}
    assert ions == {"Maiwald '09", "Biercuk '10", "Affolter '20"}


def test_select_for_figure_counts(ranked):
    assert len(select_for_figure(ranked, k=3)) == 29
    one_each = select_for_figure(ranked, k=1)
    assert len(one_each) == 10
    assert len({r.category for r in one_each}) == 10
    assert select_for_figure(ranked, k=100) == ranked


def test_select_for_figure_output_is_ranked(ranked, results):
    chosen = select_for_figure(ranked, k=3)
    foms = [results[r.name].fom for r in chosen]
    assert foms == sorted(foms)
    # The order given is kept: reversed input selects each category's last k.
    backwards = select_for_figure(ranked[::-1], k=3)
    assert backwards == sorted(backwards, key=ranked.index, reverse=True)
    assert set(backwards) != set(chosen)


def test_select_for_figure_rejects_bad_k(ranked):
    with pytest.raises(ValueError):
        select_for_figure(ranked, k=0)


def test_embedded_catalog_is_cached_and_immutable():
    assert embedded_catalog() is embedded_catalog()


def test_field_diagnostics_of_a_clean_row_carry_its_row_number():
    bad = _records_text(
        GOOD_ROW,
        GOOD_ROW.replace("Probe '21", "Probe 2").replace("membrane", "squishy")
                .replace("1e-15", "-1e-15"),
    )
    with pytest.raises(CatalogError) as err:
        parse_records(bad)
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (2, "category", "BadCategory"),
        (2, "sqrt_sf", "BadNumber"),
    ]


def test_row_with_parse_problems_also_reports_field_problems():
    bad = _records_text(
        GOOD_ROW.replace("membrane", "squishy").replace("false", "maybe"),
    )
    with pytest.raises(CatalogError) as err:
        parse_records(bad)
    assert [(d.row, d.code) for d in err.value.diagnostics] == [
        (1, "BadFlag"), (1, "BadCategory"),
    ]


def test_bad_material_still_reports_the_field_problems():
    bad = _records_text(
        "Bad,2021,x,squishy,Xq2,1e-9,,1e3,-1e-15,,,,sideways,earth,false,")
    with pytest.raises(CatalogError) as err:
        parse_records(bad)
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (1, "material", "BadMaterial"),
        (1, "category", "BadCategory"),
        (1, "sqrt_sf", "BadNumber"),
        (1, "mode", "BadMode"),
    ]


def test_a_mass_cell_that_does_not_convert_still_reports_the_field_problems():
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(
            "P,2021,s,squishy,Si,x,,,1e-15,,,,sideways,moon,false,"))
    assert [str(d) for d in err.value.diagnostics] == [
        "row 1, column mass_kg: BadNumber: not a number: 'x'",
        "row 1, column category: BadCategory: unknown category 'squishy'",
        "row 1, column mode: BadMode: mode must be absolute or differential, "
        "got 'sideways'",
        "row 1, column location: BadLocation: location must be earth or space, "
        "got 'moon'",
    ]


def test_a_density_cell_that_does_not_convert_is_not_missing():
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(GOOD_ROW.replace("1e-15", "x")))
    assert [str(d) for d in err.value.diagnostics] == [
        "row 1, column sqrt_sf: BadNumber: not a number: 'x'",
    ]


def test_filter_and_selection_errors_are_stfom_errors(catalog, results, ranked):
    with pytest.raises(FilterError) as err:
        rank(catalog, results, "best-only")
    assert isinstance(err.value, StfomError)
    with pytest.raises(FilterError) as err:
        emit_bounds_summary(catalog, results, which="best-only")
    assert str(err.value) == "unknown filter 'best-only'"
    with pytest.raises(FilterError) as err:
        select_for_figure(ranked, k=0)
    assert isinstance(err.value, StfomError)


# ------------------------------------------------------------ streaming parse

@given(st.text(alphabet="a,\"\n\r\x0b\u2028é"))
@example("")
@example("a\nb")
@example("a\r\nb\u2028c\n")
def test_lines_split_as_a_string_buffer_does(text):
    # Only "\n" ends a line; a bare "\r", "\x0b" or "\u2028" does not.
    assert list(_lines(text)) == list(io.StringIO(text))


_FIELD_LIMIT = csv.field_size_limit()
_LONGEST_COLUMN = max(len(column) for column in CSV_HEADER.split(","))


def _read_as_csv(text):
    """_reference_parse_records' outcome for text, which reads every row
    through csv.reader, with its BadCsv message for a bare "\\r" in
    stfom's wording."""
    outcome = _outcome(_reference_parse_records, text)
    if isinstance(outcome, str):
        return outcome
    return tuple(
        d._replace(message="carriage return inside an unquoted cell; quote the "
                           "cell or end lines with \\n or \\r\\n")
        if d.code == "BadCsv" and d.message.startswith("new-line character seen")
        else d for d in outcome)


@settings(max_examples=500)
@given(st.text(alphabet='a,"\r\n\0 é'),
       st.none() | st.integers(_LONGEST_COLUMN, _LONGEST_COLUMN + 5))
@example("a,b\n\nc\n", None)  # a blank line
@example("a,b\nc,d", None)  # a last line with no "\n"
@example("a,b\r\nc\r\n", None)
@example("a,b\rc\n", None)  # a bare "\r" inside a cell
@example("a,\0b\n", None)
@example('a,"b\nc,\n\nd"\ne,f\ng\n', None)  # a quoted cell spans lines
@example("a" * _FIELD_LIMIT + "\nb\n", None)
@example("a" * (_FIELD_LIMIT + 1) + "\nb\n", None)
# A line longer than the limit whose cells fit it, then a cell that does not.
@example("ab," + "a" * _LONGEST_COLUMN + "\n" + "a" * (_LONGEST_COLUMN + 1) + "\n",
         _LONGEST_COLUMN)
def test_rows_read_as_the_csv_module_reads_them(text, limit):
    # The same catalog, or the same problems, under the field size limit in
    # effect, from the text and from its UTF-8 bytes read as a file's lines.
    text = CSV_HEADER + "\n" + text
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        expected = _read_as_csv(text)
        assert _outcome(parse_records, text) == expected
        assert _outcome(lambda text: Catalog(_checked_records(
            io.BytesIO(text.encode()), "records.csv")), text) == expected
    finally:
        csv.field_size_limit(_FIELD_LIMIT)


def _renamed_copies(catalog):
    """2,000 records: renamed copies of catalog's, in its order."""
    return Catalog(tuple(
        record._replace(name=f"{record.name} #{copy}")
        for copy in range(2000 // len(catalog) + 1) for record in catalog
    )[:2000])


@contextlib.contextmanager
def _tracing():
    """Trace allocations with tracemalloc inside the block."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


def test_parse_holds_no_copy_of_the_text(catalog):
    survey = _renamed_copies(catalog)
    text = serialize_records(survey)
    parse_records(text)  # fill the material cache first
    with _tracing():
        tracemalloc.reset_peak()
        parsed = parse_records(text)
        retained, peak = tracemalloc.get_traced_memory()
    assert parsed == survey
    # The names are held once, in the dict the catalog is built from; a
    # set of them beside the records took about half the text's length.
    assert peak - retained < len(text) / 3


def test_a_parse_holds_one_int_per_distinct_year(catalog):
    parsed = parse_records(serialize_records(_renamed_copies(catalog)))
    assert len({id(r.year) for r in parsed}) == len({r.year for r in parsed})


def test_a_distinct_mixture_parse_keeps_only_the_cache_bound():
    # Every row's mixture fractions differ, as in a parameter sweep, so no
    # material text is read twice.
    text = _records_text(*(
        GOOD_ROW.replace("Probe '21", f"Probe {i}").replace(
            "Si3N4", f"{(i + 1) / 2001!r}*Si3N4+{1.0 - (i + 1) / 2001!r}*SiO2")
        for i in range(2000)))
    parse_material.cache_clear()
    with _tracing():
        parsed = parse_records(text)
        info = parse_material.cache_info()
        before = tracemalloc.get_traced_memory()[0]
        parse_material.cache_clear()
        freed = before - tracemalloc.get_traced_memory()[0]
    assert len(parsed) == 2000 and info.misses == 2000
    assert info.currsize <= 256
    # The catalog keeps every MaterialSpec, so clearing frees only what
    # the cache holds for itself: its texts and their entries.
    assert freed < 64 * 1024


def test_equal_repeated_cells_share_one_string():
    first, second = parse_records(_records_text(
        GOOD_ROW.replace("synthetic", "Probe et al. (2021)"),
        GOOD_ROW.replace("Probe '21", "Probe 2").replace("synthetic",
                                                          "Probe et al. (2021)"),
    ))
    for column in ("reference", "category", "mode", "location"):
        assert getattr(first, column) == getattr(second, column)
        assert getattr(first, column) is getattr(second, column)


_OVERLONG = "x" * 200_000  # longer than the csv module's field limit


@pytest.mark.parametrize("text, expected", [
    (_records_text(GOOD_ROW.replace("synthetic", _OVERLONG)),
     [(1, "row", "BadCsv")]),
    (_OVERLONG + "\n" + GOOD_ROW + "\n", [(0, "row", "BadCsv")]),
    (_records_text(GOOD_ROW.replace("2021", "20x1"),
                   GOOD_ROW.replace("Probe '21", "Probe 2").replace("synthetic",
                                                                    _OVERLONG),
                   GOOD_ROW.replace("2021", "20y1")),
     [(1, "year", "BadNumber"), (2, "row", "BadCsv")]),
    (_records_text(GOOD_ROW.replace("membrane", "mem\rbrane")),
     [(1, "row", "BadCsv")]),
])
def test_unreadable_csv_is_a_diagnostic(text, expected):
    # Reading stops at the bad row; the problems found before it are kept.
    with pytest.raises(CatalogError) as err:
        parse_records(text)
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == expected


def test_bare_carriage_return_in_an_unquoted_cell_has_stfoms_wording():
    with pytest.raises(CatalogError) as err:
        parse_records(_records_text(GOOD_ROW.replace("membrane", "mem\rbrane")))
    assert err.value.diagnostics == ((1, "row", "BadCsv",
        "carriage return inside an unquoted cell; "
        "quote the cell or end lines with \\n or \\r\\n"),)


# ------------------------------------------------------- lean row conversion

def _reference_parse_records(text):
    """parse_records as it was before each row was converted in one pass:
    every cell is converted and checked on its own, in column order."""
    reader = csv.reader(_lines(text))
    problems = []
    records = []
    seen = set()
    row_number = -1
    try:
        header = next(reader, None)
        row_number = 0
        if header != CSV_HEADER.split(","):
            raise CatalogError((Diagnostic(0, "header", "BadHeader",
                                           f"header must be exactly {CSV_HEADER!r}"),))
        for row_number, cells in enumerate(reader, start=1):
            record = _reference_parse_row(row_number, cells, seen, problems)
            if record is not None:
                records.append(record)
    except csv.Error as exc:
        problems.append(Diagnostic(row_number + 1, "row", "BadCsv", str(exc)))
        raise CatalogError(tuple(problems)) from None
    if row_number == 0:
        raise CatalogError((Diagnostic(0, "file", "NoRecords",
                                       "records file holds no records"),))
    if problems:
        raise CatalogError(tuple(problems))
    return Catalog(records)


def _reference_optional_float(text, column, row, problems, unread):
    """The cell's number, or None; a cell that is not a number adds its
    column to unread."""
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        problems.append(Diagnostic(row, column, "BadNumber",
                                   f"not a number: {text!r}"))
        unread.add(column)
        return None


def _reference_parse_row(row, cells, seen, problems):
    if len(cells) != 16:
        problems.append(Diagnostic(row, "row", "BadHeader",
                                   f"expected 16 cells, got {len(cells)}"))
        return None
    (name, year_text, reference, category, material_text, mass_text,
     n_override_text, f0_text, sqrt_sf_text, sqrt_sa_text, temp_text,
     quality_text, mode, location, secondhand_text, notes) = cells
    row_problems = []

    if name in seen:
        row_problems.append(Diagnostic(row, "name", "DuplicateName",
                                       f"duplicate record name {name!r}"))
    elif name:
        seen.add(name)
    try:
        year = int(year_text)
    except ValueError:
        row_problems.append(Diagnostic(row, "year", "BadNumber",
                                       f"not a year: {year_text!r}"))
        year = 0
    material = None
    try:
        material = parse_material(material_text)
    except FormulaError as exc:
        row_problems.append(Diagnostic(row, "material", "BadMaterial", str(exc)))
    unread = set()  # the columns of number cells that give no number
    mass_kg = _reference_optional_float(mass_text, "mass_kg", row, row_problems,
                                        unread)
    if not mass_text:
        row_problems.append(Diagnostic(row, "mass_kg", "MissingRequired",
                                       "mass_kg must not be empty"))
        unread.add("mass_kg")
    n_override = _reference_optional_float(n_override_text, "n_override", row,
                                           row_problems, unread)
    f0_hz = _reference_optional_float(f0_text, "f0_hz", row, row_problems, unread)
    sqrt_sf = _reference_optional_float(sqrt_sf_text, "sqrt_sf", row, row_problems,
                                        unread)
    sqrt_sa = _reference_optional_float(sqrt_sa_text, "sqrt_sa", row, row_problems,
                                        unread)
    temp_k = _reference_optional_float(temp_text, "temp_k", row, row_problems, unread)
    quality = _reference_optional_float(quality_text, "quality", row, row_problems,
                                        unread)
    secondhand = False
    if secondhand_text in ("true", "false"):
        secondhand = secondhand_text == "true"
    else:
        row_problems.append(Diagnostic(row, "secondhand", "BadFlag",
                                       "secondhand must be true or false, "
                                       f"got {secondhand_text!r}"))
    fields = (name, year, reference, category, material, mass_kg, n_override,
              f0_hz, sqrt_sf, sqrt_sa, temp_k, quality, mode, location,
              secondhand, notes)
    # The field rules run whatever the number cells hold.
    row_problems += _reference_validate_fields(row, fields, unread)
    if row_problems:
        problems.extend(row_problems)
        return None
    return ExperimentRecord(*fields)


def _reference_validate_fields(row, fields, unread):
    """The field rules; a column in unread had a cell that gave no number,
    already named: its value is None, yet the cell is not absent, and no
    rule reads it."""
    (name, _, _, category, _, mass_kg, n_override, f0_hz, sqrt_sf, sqrt_sa,
     temp_k, quality, mode, location, _, _) = fields
    problems = []

    def bad(column, code, message):
        problems.append(Diagnostic(row, column, code, message))

    def too_large(column, value):
        if value is not None and _PRINT_MAX < value < math.inf:
            bad(column, "BadNumber", f"{column} must be at most {_PRINT_MAX!r}, "
                f"the largest number stfom prints, got {value!r}")

    if not name:
        bad("name", "MissingRequired", "record name must not be empty")
    elif not _is_xml_text(name):
        bad("name", "BadName",
            f"record name {name!r} holds a character XML 1.0 cannot represent")
    if category not in CATEGORIES:
        bad("category", "BadCategory", f"unknown category {category!r}")
    smallest_normal = sys.float_info.min
    mass_ok = mass_kg is not None and smallest_normal <= mass_kg <= _PRINT_MAX
    if mass_kg is not None and not 0.0 < mass_kg < math.inf:
        bad("mass_kg", "BadNumber", f"mass must be finite and > 0, got {mass_kg!r}")
    elif mass_kg is not None and mass_kg < smallest_normal:
        bad("mass_kg", "BadNumber",
            f"mass must be at least {smallest_normal!r}, got {mass_kg!r}")
    too_large("mass_kg", mass_kg)
    if n_override is not None and not 1.0 <= n_override < math.inf:
        bad("n_override", "BadNumber",
            f"nucleus count must be finite and >= 1, got {n_override!r}")
    too_large("n_override", n_override)
    if f0_hz is not None and not 0.0 < f0_hz < math.inf:
        bad("f0_hz", "BadNumber",
            f"resonance frequency must be finite and > 0, got {f0_hz!r}")
    too_large("f0_hz", f0_hz)
    sf_ok = sqrt_sf is not None and 0.0 < sqrt_sf <= _PRINT_MAX
    sa_ok = sqrt_sa is not None and 0.0 < sqrt_sa <= _PRINT_MAX
    sf_given = sqrt_sf is not None or "sqrt_sf" in unread
    if not sf_given and sqrt_sa is None and "sqrt_sa" not in unread:
        bad("sqrt_sf", "MissingRequired", "need sqrt_sf or sqrt_sa")
    if sqrt_sf is not None and not 0.0 < sqrt_sf < math.inf:
        bad("sqrt_sf", "BadNumber",
            f"noise density must be finite and > 0, got {sqrt_sf!r}")
    too_large("sqrt_sf", sqrt_sf)
    if sqrt_sa is not None and not 0.0 < sqrt_sa < math.inf:
        bad("sqrt_sa", "BadNumber",
            f"noise density must be finite and > 0, got {sqrt_sa!r}")
    too_large("sqrt_sa", sqrt_sa)
    accel = None
    if sf_ok and mass_ok:
        column, accel = "sqrt_sf", sqrt_sf / mass_kg
    elif not sf_given and sa_ok:
        column, accel = "sqrt_sa", sqrt_sa
    if accel is not None and not 0.0 < accel * accel < math.inf:
        bad(column, "BadNumber",
            f"acceleration density {accel!r} squared is not a finite float > 0")
    if temp_k is not None and not 0.0 < temp_k < math.inf:
        bad("temp_k", "BadNumber",
            f"temperature must be finite and > 0, got {temp_k!r}")
    if quality is not None and not 0.0 < quality < math.inf:
        bad("quality", "BadNumber",
            f"quality factor must be finite and > 0, got {quality!r}")
    if mode not in ("absolute", "differential"):
        bad("mode", "BadMode", f"mode must be absolute or differential, got {mode!r}")
    if location not in ("earth", "space"):
        bad("location", "BadLocation",
            f"location must be earth or space, got {location!r}")
    return problems


def _cells_or_none(positive):
    return st.just("") | positive.map(repr)


# Each column's cell as a clean row might hold it ...
_GOOD_CELLS = (
    st.sampled_from(("Probe", "Probe 2", "Probe 3", "tab\tname", "cr\rname")),
    st.integers(1700, 2100).map(str),
    st.text(max_size=6),
    st.sampled_from(CATEGORIES),
    st.sampled_from(_MATERIALS),
    st.floats(1e-30, 1e3).map(repr),
    _cells_or_none(st.floats(1.0, 1e30)),
    _cells_or_none(st.floats(1e-3, 1e9)),
    _cells_or_none(st.floats(1e-30, 1e-5)),
    _cells_or_none(st.floats(1e-12, 1e3)),
    _cells_or_none(st.floats(1e-3, 1e4)),
    _cells_or_none(st.floats(1.0, 1e9)),
    st.sampled_from(("absolute", "differential")),
    st.sampled_from(("earth", "space")),
    st.sampled_from(("true", "false")),
    st.text(max_size=6),
)
# ... and anything it might hold instead.
_NUMBER_TEXT = (st.sampled_from(("", "0", "-0.0", "1e-310", "1e-170", "1e200",
                                 "0.5", "nan", "inf", "-inf", "x", "1e400"))
                | st.floats().map(repr) | st.text(max_size=4))
_ANY_CELLS = (
    st.sampled_from(("", "nul\x00", "Probe")) | st.text(max_size=4),
    st.sampled_from(("", "20x1", " 7 ", "-3")) | st.text(max_size=4),
    st.text(max_size=4),
    st.sampled_from(("squishy", "", "Membrane")),
    st.sampled_from(("", "Xq2", "si", "0.5*SiO2", "Si O2", "0.8*SiO2+0.3*B2O3")),
    *[_NUMBER_TEXT] * 7,
    st.sampled_from(("sideways", "", "Absolute")),
    st.sampled_from(("moon", "", "Earth")),
    st.sampled_from(("True", "", "1", "no")),
    st.text(max_size=4),
)
_GOOD_CELL_ROW = ["Probe", "2021", "synthetic", "membrane", "Si3N4", "1e-9", "",
                  "1e3", "1e-15", "", "300", "1e4", "absolute", "earth", "false",
                  ""]


def _row(**changes):
    columns = CSV_HEADER.split(",")
    return [changes.get(column, cell)
            for column, cell in zip(columns, _GOOD_CELL_ROW)]


@st.composite
def _cell_rows(draw):
    """One to four rows of 16 cells, each clean but for up to three cells."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        cells = [draw(cell) for cell in _GOOD_CELLS]
        for column in draw(st.lists(st.integers(0, 15), max_size=3)):
            cells[column] = draw(_ANY_CELLS[column])
        rows.append(cells)
    return rows


def _quoted_text(rows):
    """Records text with every cell quoted, so any cell text reads back."""
    return CSV_HEADER + "\n" + "".join(
        ",".join('"' + cell.replace('"', '""') + '"' for cell in cells) + "\n"
        for cells in rows)


def _plain_text(rows):
    """Records text with only the cells that hold ',', '"', "\\r" or "\\n"
    quoted, as the csv module's writer quotes them."""
    def cell(text):
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text
    return CSV_HEADER + "\n" + "".join(
        ",".join(map(cell, cells)) + "\n" for cells in rows)


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except CatalogError as exc:
        return exc.diagnostics


def _hand_built_fields(cells):
    """The fields a row's cells convert to, or None if one does not."""
    (name, year, reference, category, material, mass_kg, n_override, f0_hz,
     sqrt_sf, sqrt_sa, temp_k, quality, mode, location, secondhand,
     notes) = cells
    try:
        return dict(
            name=name, year=int(year), reference=reference, category=category,
            material=parse_material(material), mass_kg=float(mass_kg),
            n_override=float(n_override) if n_override else None,
            f0_hz=float(f0_hz) if f0_hz else None,
            sqrt_sf=float(sqrt_sf) if sqrt_sf else None,
            sqrt_sa=float(sqrt_sa) if sqrt_sa else None,
            temp_k=float(temp_k) if temp_k else None,
            quality=float(quality) if quality else None,
            mode=mode, location=location,
            secondhand={"true": True, "false": False}[secondhand], notes=notes)
    except (ValueError, KeyError, StfomError):
        return None


@settings(max_examples=300)
@given(_cell_rows())
@example([_row(mass_kg="1e-200", sqrt_sf="1e200")])
@example([_row(mass_kg="0")])
@example([_row(mass_kg="")])
@example([_row(mass_kg="1e-310")])
@example([_row(mass_kg="nan")])
@example([_row(mass_kg="inf")])
@example([_row(n_override="0.5")])
@example([_row(sqrt_sf="", sqrt_sa="-inf")])
@example([_row(sqrt_sf="", sqrt_sa="")])
@example([_row(sqrt_sf="", sqrt_sa="1e-170")])
@example([_row(year="20x1")])
@example([_row(), _row(category="squishy"), _row()])
@example([_row(secondhand="True")])
@example([_row(name="nul\x00")])
@example([_row(name="")])
@example([_row(temp_k="0")])
# Each number stfom prints is at most 1.795e308.
@example([_row(mass_kg="1.797e308", sqrt_sf="1e300", n_override="1.796e308")])
@example([_row(f0_hz="1.797e308", sqrt_sf="1.797e308", sqrt_sa="1.796e308")])
@example([_row(sqrt_sf="", sqrt_sa="1.797e308")])
# A row's problems come in column order, a number too large to print too.
@example([_row(mass_kg="1.797e308", f0_hz="nan")])
@example([_row(n_override="1.797e308", sqrt_sf="nan")])
# The field rules run when the mass cell does not convert, and a number
# cell that does not convert is not absent.
@example([_row(mass_kg="x", category="squishy", mode="sideways", location="moon")])
@example([_row(mass_kg="", sqrt_sf="1e400", temp_k="0")])
@example([_row(mass_kg="x", sqrt_sf="", sqrt_sa="1e-170")])
@example([_row(sqrt_sf="x")])
@example([_row(sqrt_sf="x", sqrt_sa="1e-170")])
@example([_row(sqrt_sf="", sqrt_sa="x")])
def test_rows_convert_as_the_cell_by_cell_reference_does(rows):
    # Quoting every cell reads each row through the csv module; quoting only
    # the cells that need it leaves most rows plain.
    for text in (_plain_text(rows), _quoted_text(rows)):
        expected = _outcome(_reference_parse_records, text)
        assert _outcome(parse_records, text) == expected
    if isinstance(expected, str) or any(d.code == "BadCsv" for d in expected):
        return
    # A hand-built record of each converting row gets its field problems.
    for row, cells in enumerate(rows, start=1):
        fields = _hand_built_fields(cells)
        if fields is None:
            continue
        problems = tuple(d._replace(row=0) for d in expected
                         if d.row == row and d.code != "DuplicateName")
        if problems:
            with pytest.raises(CatalogError) as err:
                ExperimentRecord(**fields)
            assert err.value.diagnostics == problems
        else:
            ExperimentRecord(**fields)
