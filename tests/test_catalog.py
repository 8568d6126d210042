from collections import Counter

import pytest

from stfom import (
    CATEGORIES,
    CSV_HEADER,
    Catalog,
    CatalogError,
    ExperimentRecord,
    FilterError,
    StfomError,
    embedded_catalog,
    embedded_reference_values,
    evaluate_catalog,
    parse_material,
    parse_records,
    rank,
    select_for_figure,
    serialize_records,
)
from stfom.catalog import best_record

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


def test_filter_and_selection_errors_are_stfom_errors(catalog, results, ranked):
    with pytest.raises(FilterError) as err:
        rank(catalog, results, "best-only")
    assert isinstance(err.value, StfomError)
    with pytest.raises(StfomError):
        best_record(catalog, results, "best-only")
    with pytest.raises(FilterError) as err:
        select_for_figure(ranked, k=0)
    assert isinstance(err.value, StfomError)


@pytest.mark.parametrize("which", ["all", "absolute-on-earth"])
def test_best_record_is_the_first_ranked(catalog, results, which):
    assert best_record(catalog, results, which) is rank(catalog, results, which)[0]


def test_best_record_of_an_empty_selection_is_none(catalog, results):
    differential = Catalog(tuple(r for r in catalog if r.mode == "differential"))
    assert best_record(differential, results, "absolute-on-earth") is None
