"""The contract every value class keeps: immutable fields, equality and
hashing by value, a stable repr, and checks that no constructor skips."""

import pickle

import pytest

from stfom import (
    BoundAnchor,
    Catalog,
    CatalogError,
    Constants,
    Diagnostic,
    ExperimentRecord,
    FigurePoint,
    FomResult,
    Formula,
    MaterialError,
    MaterialSpec,
    ModelId,
    NonPositiveError,
    QuotedValues,
    embedded_catalog,
    parse_material,
)


def _record():
    return ExperimentRecord(
        name="Probe", year=2021, reference="synthetic", category="membrane",
        material=parse_material("Si3N4"), mass_kg=1e-9, sqrt_sf=1e-15,
    )


def _mixture():
    return MaterialSpec(((Formula((("Si", 1), ("O", 2))), 0.8),
                         (Formula((("B", 2), ("O", 3))), 0.2)))


# One factory per value class; each call builds a new, equal instance.
FACTORIES = {
    "Diagnostic": lambda: Diagnostic(1, "mass_kg", "BadNumber", "bad mass"),
    "Constants": lambda: Constants(G=1.0),
    "BoundAnchor": lambda: BoundAnchor(ModelId.ULTRA_LOCAL_DISCRETE, 1.0, 2.0, 3.0),
    "Formula": lambda: Formula((("Si", 3), ("N", 4))),
    "MaterialSpec": _mixture,
    "FomResult": lambda: FomResult(n_nuclei=1.0, sqrt_sf=2.0, sqrt_sa=3.0,
                                   fom=4.0, warnings=("w",)),
    "ExperimentRecord": _record,
    "Catalog": lambda: Catalog((_record(),)),
    "QuotedValues": lambda: QuotedValues(n_nuclei=1.0, fom=2.0),
    "FigurePoint": lambda: FigurePoint("Probe", "membrane", 1e-9, 1.0, "circle"),
}


@pytest.mark.parametrize("make", FACTORIES.values(), ids=list(FACTORIES))
def test_assigning_to_a_field_raises(make):
    value = make()
    field = "records" if isinstance(value, Catalog) else value._fields[0]
    before = tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert tuple(value) == before


@pytest.mark.parametrize("make", FACTORIES.values(), ids=list(FACTORIES))
def test_equal_fields_give_equal_objects_and_hashes(make):
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert type(first) is type(second)


@pytest.mark.parametrize("make", FACTORIES.values(), ids=list(FACTORIES))
def test_pickle_round_trip_keeps_type_and_value(make):
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value


def test_formula_values_cached_on_first_use_leave_equality_alone():
    formula = Formula((("Si", 3), ("N", 4)))
    assert formula._molar_mass > 0.0 and formula._canonical == "Si3N4"
    assert formula == Formula((("Si", 3), ("N", 4)))
    assert hash(formula) == hash(Formula((("Si", 3), ("N", 4))))


def test_record_repr_is_pinned():
    by_name = {r.name: r for r in embedded_catalog()}
    assert repr(by_name["Maiwald '09"]) == (
        "ExperimentRecord(name=\"Maiwald '09\", year=2009, "
        "reference='Maiwald et al. (2009)', category='trapped-ion', "
        "material=MaterialSpec(components=((Formula(terms=(('Mg', 1),), "
        "charge_ignored=True), 1.0),)), mass_kg=4.04e-26, n_override=1.0, "
        "f0_hz=1000000.0, sqrt_sf=4.6e-25, sqrt_sa=11.4, temp_k=None, "
        "quality=None, mode='absolute', location='earth', secondhand=False, "
        "notes='single ion')"
    )


def test_mixture_repr_is_pinned():
    assert repr(parse_material("0.8*SiO2+0.2*B2O3")) == (
        "MaterialSpec(components=((Formula(terms=(('Si', 1), ('O', 2)), "
        "charge_ignored=False), 0.8), (Formula(terms=(('B', 2), ('O', 3)), "
        "charge_ignored=False), 0.2)))"
    )


def test_catalog_repr_starts_with_its_records():
    assert repr(embedded_catalog()).startswith(
        "Catalog(records=(ExperimentRecord(name=\"Asenbaum '17\", year=2017, "
    )


# The four classes that check their fields, each with one bad replacement
# and the error its constructor raises for it.
CHECKED = {
    "Constants": (lambda: Constants(), {"G": 0.0}, NonPositiveError),
    "BoundAnchor": (lambda: BoundAnchor(ModelId.NON_LOCAL_CONTINUOUS, 1.0, 1.0, 1.0),
                    {"lower_bound": -1.0}, NonPositiveError),
    "MaterialSpec": (_mixture, {"components": ()}, MaterialError),
    "ExperimentRecord": (_record, {"mass_kg": -1.0}, CatalogError),
}


@pytest.mark.parametrize("make, bad, error", CHECKED.values(), ids=list(CHECKED))
def test_replace_and_make_run_the_constructor_checks(make, bad, error):
    value = make()
    fields = value._asdict()
    with pytest.raises(error):
        type(value)(**{**fields, **bad})
    with pytest.raises(error):
        value._replace(**bad)
    with pytest.raises(error):
        type(value)._make({**fields, **bad}.values())
    assert type(value._replace()) is type(value)
    assert value._replace() == value


def test_replaced_record_reports_the_constructor_diagnostics():
    with pytest.raises(CatalogError) as err:
        _record()._replace(category="squishy", mode="sideways")
    assert [(d.row, d.column, d.code) for d in err.value.diagnostics] == [
        (0, "category", "BadCategory"), (0, "mode", "BadMode"),
    ]
