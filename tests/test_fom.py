import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from stfom import (
    CatalogError,
    Constants,
    ExperimentRecord,
    OutOfRangeError,
    evaluate_catalog,
    evaluate_record,
    nuclei_count,
    parse_material,
)
from stfom.errors import _PRINT_MAX

K_B = 1.380649e-23


def _record(**overrides):
    base = dict(
        name="probe", year=2020, reference="synthetic", category="membrane",
        material=parse_material("Si3N4"), mass_kg=1e-9, sqrt_sf=1e-15,
    )
    base.update(overrides)
    return ExperimentRecord(**base)


def test_accel_asd_from_force():
    got = evaluate_record(_record(sqrt_sf=7.08e-28, mass_kg=1.44e-19)).sqrt_sa
    assert got == pytest.approx(7.08e-28 / 1.44e-19, rel=1e-15)
    assert got == pytest.approx(4.92e-9, rel=1e-3)


def test_force_asd_from_accel():
    got = evaluate_record(_record(sqrt_sf=None, sqrt_sa=1.03e-6, mass_kg=9.30e-15))
    assert got.sqrt_sf == pytest.approx(1.03e-6 * 9.30e-15, rel=1e-15)


def test_conversions_reject_bad_inputs():
    # evaluate_record checks no sign: the record refuses these itself.
    for fields in (dict(mass_kg=0.0), dict(mass_kg=-1.0), dict(sqrt_sf=-1.0),
                   dict(sqrt_sf=None, sqrt_sa=-1.0)):
        with pytest.raises(CatalogError):
            _record(**fields)


@given(
    sqrt_sf=st.floats(min_value=1e-30, max_value=1e30,
                      allow_nan=False, allow_infinity=False),
    mass=st.floats(min_value=1e-27, max_value=1e3,
                   allow_nan=False, allow_infinity=False),
)
def test_force_accel_roundtrip(sqrt_sf, mass):
    there = evaluate_record(_record(sqrt_sf=sqrt_sf, mass_kg=mass)).sqrt_sa
    back = evaluate_record(_record(sqrt_sf=None, sqrt_sa=there, mass_kg=mass)).sqrt_sf
    assert back == pytest.approx(sqrt_sf, rel=1e-12)


def test_fom_from_psd():
    assert evaluate_record(
        _record(sqrt_sf=None, sqrt_sa=2.0, n_override=3.0)).fom == 12.0
    got = evaluate_record(_record(sqrt_sf=None, sqrt_sa=1.03e-6, n_override=2.79e11))
    assert got.fom == pytest.approx(1.03e-6**2 * 2.79e11, rel=1e-15)


def test_thermal_force_psd_value():
    omega0 = 2.0 * math.pi * 1e5
    expected = 4.0 * K_B * 4.2 * 1e-12 * omega0 / 1e6
    floor = evaluate_record(_record(mass_kg=1e-12, temp_k=4.2, f0_hz=1e5,
                                    quality=1e6)).thermal_sqrt_sf
    assert floor**2 == pytest.approx(expected, rel=1e-12)
    assert floor**2 == pytest.approx(1.457e-34, rel=1e-3)
    assert floor == pytest.approx(1.207e-17, rel=1e-3)


def test_thermal_force_psd_validation():
    # evaluate_record checks no sign: the record refuses these itself.
    for name in ("temp_k", "f0_hz", "quality", "mass_kg"):
        for bad in (0.0, -1.0):
            fields = dict(temp_k=1.0, f0_hz=1.0, quality=1.0)
            fields[name] = bad
            with pytest.raises(CatalogError):
                _record(**fields)


def test_thermal_fom_value():
    omega0 = 2.0 * math.pi * 1e3
    expected = 4.0 * 1e12 * K_B * 0.01 * omega0 / (1e-12 * 1e8)
    got = evaluate_record(_record(n_override=1e12, temp_k=0.01, f0_hz=1e3,
                                  mass_kg=1e-12, quality=1e8)).thermal_fom
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(3.470e-5, rel=1e-3)


def test_thermal_fom_agrees_with_psd_route():
    rng = random.Random(99)
    records = []
    for i in range(10_000):
        n = 10.0 ** rng.uniform(0, 27)
        temp = 10.0 ** rng.uniform(-3, 3)
        omega0 = 10.0 ** rng.uniform(-2, 8)
        mass = 10.0 ** rng.uniform(-27, 2)
        quality = 10.0 ** rng.uniform(0, 9)
        records.append(_record(name=f"draw {i}", n_override=n, temp_k=temp,
                               f0_hz=omega0 / (2.0 * math.pi), mass_kg=mass,
                               quality=quality))
    results = evaluate_catalog(records)
    for record in records:
        res = results[record.name]
        via_psd = (res.thermal_sqrt_sf**2 / (record.mass_kg * record.mass_kg)
                   * res.n_nuclei)
        assert res.thermal_fom == pytest.approx(via_psd, rel=1e-12)


def test_evaluate_record_force_density_is_authoritative():
    rec = _record(sqrt_sf=2e-15, sqrt_sa=None)
    res = evaluate_record(rec)
    assert res.sqrt_sf == 2e-15
    assert res.sqrt_sa == pytest.approx(2e-15 / 1e-9, rel=1e-12)
    assert res.fom == pytest.approx(res.sqrt_sa**2 * res.n_nuclei, rel=1e-12)
    assert res.warnings == ()


def test_evaluate_record_warns_on_inconsistent_densities():
    rec = _record(sqrt_sf=2e-15, sqrt_sa=2e-6 * 1.05)  # 5% off the derived value
    res = evaluate_record(rec)
    assert res.sqrt_sa == pytest.approx(2e-6, rel=1e-12)
    assert len(res.warnings) == 1
    assert "disagrees" in res.warnings[0]


def test_evaluate_record_consistent_densities_stay_quiet():
    rec = _record(sqrt_sf=2e-15, sqrt_sa=2e-6 * 1.01)
    assert evaluate_record(rec).warnings == ()


def test_evaluate_record_acceleration_only():
    rec = _record(sqrt_sf=None, sqrt_sa=3e-6)
    res = evaluate_record(rec)
    assert res.sqrt_sf == pytest.approx(3e-6 * 1e-9, rel=1e-12)
    assert res.sqrt_sa == 3e-6


# The record's check refuses a density, or the FOM of a quoted count, out
# of range; a count from the material needs N_A, so evaluate_record checks
# it and its FOM.
@pytest.mark.parametrize("name, fields", [
    ("n_nuclei", dict(material=parse_material("Pb"), mass_kg=1e300,
                      sqrt_sf=None, sqrt_sa=1e-9)),
    # No constant moves the force density of a lone sqrt_sa.
    ("sqrt_sf", dict(n_override=1.0, mass_kg=1e300, sqrt_sf=None, sqrt_sa=1e10)),
    ("fom", dict(material=parse_material("Pb"), mass_kg=1e200, sqrt_sf=None,
                 sqrt_sa=1e50)),
    # mass_kg * quality underflows to 0 in the thermal FOM's denominator.
    ("thermal_fom", dict(mass_kg=1e-200, f0_hz=1e3, sqrt_sf=1e-190,
                         temp_k=300.0, quality=1e-200)),
    # 4 k_B T m omega0 / Q overflows before its root is taken.
    ("thermal_sqrt_sf", dict(temp_k=1e300, f0_hz=1e3, quality=1e-40)),
])
def test_evaluate_record_refuses_values_outside_float_range(name, fields):
    if name == "sqrt_sf":
        with pytest.raises(CatalogError, match=r"row 0, column sqrt_sa: "
                           r"BadNumber: sqrt_sa \* mass_kg .*, got inf$"):
            _record(**fields)
        return
    with pytest.raises(OutOfRangeError, match=f"^probe: {name} is inf,"):
        evaluate_record(_record(**fields))


# Validation refuses temp_k <= 0, but a tiny positive temperature can still
# underflow the thermal floor (first case) or only the thermal FOM (second).
@pytest.mark.parametrize("name, fields", [
    ("thermal_sqrt_sf", dict(temp_k=1e-320, f0_hz=1e3, quality=1e4)),
    ("thermal_fom", dict(n_override=1.0, mass_kg=1e10, sqrt_sf=None,
                         sqrt_sa=1e-9, temp_k=1e-300, f0_hz=1e3, quality=1e4)),
])
def test_evaluate_record_refuses_a_thermal_floor_that_underflows(name, fields):
    with pytest.raises(OutOfRangeError, match=f"^probe: {name} is 0.0,"):
        evaluate_record(_record(**fields))


def test_evaluate_record_override_takes_precedence():
    rec = _record(n_override=42.0)
    assert evaluate_record(rec).n_nuclei == 42.0


def test_evaluate_record_thermal_fields_need_all_three_inputs():
    for missing in ("temp_k", "f0_hz", "quality"):
        fields = dict(temp_k=300.0, f0_hz=1e3, quality=1e4)
        fields[missing] = None
        res = evaluate_record(_record(**fields))
        assert res.thermal_sqrt_sf is None
        assert res.thermal_fom is None
        assert not res.thermally_limited


def test_evaluate_record_thermal_context():
    rec = _record(temp_k=300.0, f0_hz=1e3, quality=1e8, sqrt_sf=1e-15)
    res = evaluate_record(rec)
    omega0 = 2.0 * math.pi * 1e3
    expected_floor = math.sqrt(4.0 * K_B * 300.0 * 1e-9 * omega0 / 1e8)
    assert res.thermal_sqrt_sf == pytest.approx(expected_floor, rel=1e-12)
    expected_fom = 4.0 * res.n_nuclei * K_B * 300.0 * omega0 / (1e-9 * 1e8)
    assert res.thermal_fom == pytest.approx(expected_fom, rel=1e-12)
    # measurement well above the floor: not limited
    assert res.sqrt_sf > 2.0 * res.thermal_sqrt_sf
    assert not res.thermally_limited


def test_evaluate_record_flags_noise_below_thermal_floor():
    rec = _record(temp_k=300.0, f0_hz=1e3, quality=1e4, sqrt_sf=1e-18)
    res = evaluate_record(rec)
    assert res.sqrt_sf < res.thermal_sqrt_sf
    assert res.thermally_limited
    assert any("thermal floor" in w for w in res.warnings)


def test_fom_is_mass_invariant_at_fixed_sa_and_n():
    light = _record(mass_kg=1e-9, sqrt_sf=None, sqrt_sa=3e-6, n_override=1e10)
    heavy = _record(mass_kg=1e-3, sqrt_sf=None, sqrt_sa=3e-6, n_override=1e10)
    assert evaluate_record(light).fom == evaluate_record(heavy).fom


def test_fom_mass_invariance_through_force_route():
    n = 1e10
    sa = 3e-6
    for mass in (1e-9, 2e-9, 5e-3):
        rec = _record(mass_kg=mass, sqrt_sf=sa * mass, sqrt_sa=None, n_override=n)
        assert evaluate_record(rec).fom == pytest.approx(sa * sa * n, rel=1e-12)


def test_fom_result_internal_consistency(catalog, results):
    for record in catalog:
        res = results[record.name]
        assert res.fom == pytest.approx(res.sqrt_sa**2 * res.n_nuclei, rel=1e-12)
        assert res.sqrt_sf == pytest.approx(res.sqrt_sa * record.mass_kg, rel=1e-12)


def test_custom_constants_flow_through():
    rec = _record(temp_k=300.0, f0_hz=1e3, quality=1e4)
    doubled = Constants(k_B=2 * K_B)
    base = evaluate_record(rec)
    scaled = evaluate_record(rec, constants=doubled)
    assert scaled.thermal_fom == pytest.approx(2.0 * base.thermal_fom, rel=1e-12)


# ------------------------------- evaluate_record against a written-out route

def _reference_evaluate_record(record, constants):
    """evaluate_record as it was written with the public conversion,
    thermal and classification helpers, their formulas and input checks
    written out here in each helper's operation order."""
    warnings = []
    mass_kg = record.mass_kg
    if mass_kg <= 0.0:
        raise OutOfRangeError("mass_kg", mass_kg)

    if record.n_override is not None:
        n_nuclei = record.n_override
    else:
        n_nuclei = nuclei_count(mass_kg, record.material, constants.N_A)

    if record.sqrt_sf is not None:
        sqrt_sf = record.sqrt_sf
        if sqrt_sf < 0.0:
            raise OutOfRangeError("sqrt_sf", sqrt_sf, ">= 0")
        sqrt_sa = sqrt_sf / mass_kg
        if record.sqrt_sa is not None and record.sqrt_sa > 0.0:
            drift = abs(sqrt_sa - record.sqrt_sa) / record.sqrt_sa
            if drift > 0.02:
                warnings.append(
                    f"{record.name}: quoted acceleration density disagrees with "
                    f"the force density by {drift:.1%}"
                )
    else:
        sqrt_sa = record.sqrt_sa
        if sqrt_sa < 0.0:
            raise OutOfRangeError("sqrt_sa", sqrt_sa, ">= 0")
        sqrt_sf = sqrt_sa * mass_kg

    s_a = sqrt_sa * sqrt_sa
    if n_nuclei < 0.0:
        raise OutOfRangeError("n_nuclei", n_nuclei, ">= 0")
    fom = s_a * n_nuclei
    for name, value in (("n_nuclei", n_nuclei), ("sqrt_sf", sqrt_sf),
                        ("sqrt_sa", sqrt_sa), ("fom", fom)):
        if not 0.0 < value <= _PRINT_MAX:
            raise OutOfRangeError(name, value, record=record.name)

    thermal_sqrt_sf = None
    thermal_fom_value = None
    limited = False
    temp_k, f0_hz, quality = record.temp_k, record.f0_hz, record.quality
    if temp_k is not None and f0_hz is not None and quality is not None:
        k_b = constants.k_B
        if f0_hz <= 0.0:
            raise OutOfRangeError("f0_hz", f0_hz)
        omega0 = 2.0 * math.pi * f0_hz
        if temp_k < 0.0:
            raise OutOfRangeError("temp_k", temp_k, ">= 0")
        if omega0 <= 0.0:
            raise OutOfRangeError("omega0", omega0)
        if quality <= 0.0:
            raise OutOfRangeError("quality", quality)
        thermal_sqrt_sf = math.sqrt(4.0 * k_b * temp_k * mass_kg * omega0 / quality)
        thermal_fom_value = (4.0 * n_nuclei * k_b * temp_k * omega0
                             / (mass_kg * quality))
        for name, value in (("thermal_sqrt_sf", thermal_sqrt_sf),
                            ("thermal_fom", thermal_fom_value)):
            if not 0.0 < value <= _PRINT_MAX:
                raise OutOfRangeError(name, value, record=record.name)
        limited = thermal_sqrt_sf > sqrt_sf / 2.0
        if sqrt_sf < thermal_sqrt_sf:
            warnings.append(
                f"{record.name}: measured force noise is below the thermal floor"
            )

    return (n_nuclei, sqrt_sf, sqrt_sa, fom, thermal_sqrt_sf, thermal_fom_value,
            limited, tuple(warnings))


def _outcome(evaluate, record, constants):
    """The result, or the record, field and value an OutOfRangeError names."""
    try:
        return tuple(evaluate(record, constants))
    except OutOfRangeError as exc:
        return ("OutOfRangeError", exc.record, exc.name, repr(exc.value))


def _magnitude(lo, hi):
    """Floats spread evenly over the decades 1e{lo} .. 1e{hi + 1}."""
    return st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                     st.floats(1.0, 10.0, exclude_max=True),
                     st.integers(lo, hi))


def _optional(strategy):
    return st.none() | strategy


@st.composite
def _evaluation_fields(draw):
    mass_kg = draw(_magnitude(-30, 300))
    fields = dict(
        material=parse_material(draw(st.sampled_from(
            ["Si3N4", "Pb", "Rb", "0.25*SiO2+0.75*B2O3", "C60"]))),
        mass_kg=mass_kg,
        n_override=draw(_optional(_magnitude(0, 300))),
        sqrt_sf=None,
        sqrt_sa=None,
    )
    densities = draw(st.sampled_from(["sqrt_sf", "sqrt_sa", "both"]))
    if densities != "sqrt_sa":
        fields["sqrt_sf"] = draw(_magnitude(-40, 20))
    if densities == "sqrt_sa":
        fields["sqrt_sa"] = draw(_magnitude(-40, 40))
    elif densities == "both":
        # Near the derived density, so both sides of the 2% rule show.
        fields["sqrt_sa"] = (fields["sqrt_sf"] / mass_kg
                             * draw(st.floats(0.9, 1.1)))
    if draw(st.booleans()):
        fields.update(temp_k=draw(_magnitude(-320, 5)),
                      f0_hz=draw(_magnitude(-5, 10)),
                      quality=draw(_magnitude(-3, 15)))
    else:
        for name, strategy in (("temp_k", _magnitude(-3, 3)),
                               ("f0_hz", _magnitude(0, 6)),
                               ("quality", _magnitude(0, 9))):
            fields[name] = draw(_optional(strategy))
    return fields


_CONSTANTS = st.just(Constants()) | st.builds(
    lambda n_a, k_b: Constants(N_A=n_a, k_B=k_b),
    _magnitude(20, 26), _magnitude(-26, -20))


@given(_evaluation_fields(), _CONSTANTS)
@example(dict(material=parse_material("Pb"), mass_kg=1e300, sqrt_sf=None,
              sqrt_sa=1e-9), Constants())
@example(dict(material=parse_material("Pb"), mass_kg=1.0, sqrt_sf=1e150),
         Constants())
@example(dict(material=parse_material("Pb"), mass_kg=1e200, sqrt_sf=None,
              sqrt_sa=1e50), Constants())
@example(dict(temp_k=1e-320, f0_hz=1e3, quality=1e4), Constants())
@example(dict(n_override=1.0, mass_kg=1e10, sqrt_sf=None, sqrt_sa=1e-9,
              temp_k=1e-300, f0_hz=1e3, quality=1e4), Constants())
def test_evaluate_record_matches_the_helper_route(fields, constants):
    try:
        record = _record(**fields)
    except CatalogError:
        assume(False)
    expected = _outcome(_reference_evaluate_record, record, constants)
    got = _outcome(evaluate_record, record, constants)
    # repr tells -0.0 from 0.0, so every float is the same bit for bit.
    assert got == expected and repr(got) == repr(expected)
    # The record's check decides every range that no constant moves.
    if got[0] == "OutOfRangeError":
        assert (got[2] in ("n_nuclei", "thermal_sqrt_sf", "thermal_fom")
                or got[2] == "fom" and record.n_override is None), got
    if expected[0] != "OutOfRangeError":
        catalog_results = evaluate_catalog([record], constants)
        assert tuple(catalog_results[record.name]) == got


# ------------------------------------------------ thermal classification

def _thermally_limited(measured_over_floor):
    # A record whose measured force amplitude is `measured_over_floor`
    # times its thermal floor; the floor does not depend on the
    # measured density.
    thermal = dict(mass_kg=1e-9, temp_k=300.0, f0_hz=1e3, quality=1e4)
    floor = evaluate_record(_record(**thermal)).thermal_sqrt_sf
    res = evaluate_record(_record(sqrt_sf=floor * measured_over_floor, **thermal))
    return res.thermally_limited


def test_classify_thermal_regions():
    # floor just above half the measurement: limited
    assert _thermally_limited(1 / 0.6)
    # exactly twice the floor is not limited
    assert not _thermally_limited(2.0)
    assert not _thermally_limited(1 / 0.49)
    # measurement below the floor is still "limited"
    assert _thermally_limited(0.5)
    # a negative amplitude never reaches the classification
    for fields in (dict(sqrt_sf=-1.0), dict(mass_kg=-1.0)):
        with pytest.raises(CatalogError):
            _record(temp_k=300.0, f0_hz=1e3, quality=1e4, **fields)


@given(mass_kg=_magnitude(-20, 1), temp_k=_magnitude(-3, 2),
       f0_hz=_magnitude(-1, 6), quality=_magnitude(0, 8),
       ratio=st.floats(1e-3, 1e3))
@example(mass_kg=1e-9, temp_k=300.0, f0_hz=1e3, quality=1e4, ratio=0.5)
@example(mass_kg=1e-9, temp_k=300.0, f0_hz=1e3, quality=1e4, ratio=0.6)
@example(mass_kg=1e-9, temp_k=300.0, f0_hz=1e3, quality=1e4, ratio=0.49)
@example(mass_kg=1e-9, temp_k=300.0, f0_hz=1e3, quality=1e4, ratio=2.0)
def test_evaluate_record_thermal_flags_split_at_half_the_amplitude(
        mass_kg, temp_k, f0_hz, quality, ratio):
    thermal = dict(mass_kg=mass_kg, temp_k=temp_k, f0_hz=f0_hz, quality=quality)
    # The floor does not depend on the measured density, so a record whose
    # floor is `ratio` times its measured amplitude can be built from it;
    # at a ratio of 0.5 the measured amplitude is exactly twice the floor.
    floor = evaluate_record(_record(**thermal)).thermal_sqrt_sf
    res = evaluate_record(_record(sqrt_sf=floor / ratio, **thermal))
    assert res.thermal_sqrt_sf == floor
    assert res.thermally_limited == (res.thermal_sqrt_sf > res.sqrt_sf / 2)
    if ratio == 0.5:
        assert not res.thermally_limited and res.sqrt_sf / 2 == floor


@pytest.mark.parametrize("fields, name", [
    (dict(material=parse_material("Pb"), mass_kg=6.18e283, sqrt_sf=None,
          sqrt_sa=1e-150), "n_nuclei"),
    (dict(n_override=1.0, mass_kg=1e160, sqrt_sf=None, sqrt_sa=1.796e148),
     "sqrt_sf"),
    (dict(material=parse_material("Pb"), mass_kg=1.0, sqrt_sf=7.861e141), "fom"),
    (dict(n_override=1e300, mass_kg=1e-10, sqrt_sf=1e-10, temp_k=5.176e13,
          f0_hz=1e3, quality=1e-3), "thermal_fom"),
    (dict(material=parse_material("Pb"), mass_kg=1.0, sqrt_sf=None,
          sqrt_sa=7.861e141), "fom"),
])
def test_a_derived_value_too_large_to_print_is_out_of_range(fields, name):
    # 1.796e308 is finite, but printed at 3 figures it reads back as inf.
    if name == "sqrt_sf":
        # No constant moves the force density, so the record refuses it.
        force = fields["sqrt_sa"] * fields["mass_kg"]
        assert _PRINT_MAX < force < math.inf
        with pytest.raises(CatalogError) as err:
            _record(**fields)
        (diag,) = err.value.diagnostics
        assert (diag.column, diag.code) == ("sqrt_sa", "BadNumber")
        assert diag.message.endswith(f"got {force!r}")
        return
    with pytest.raises(OutOfRangeError) as err:
        evaluate_record(_record(**fields))
    assert err.value.name == name
    assert _PRINT_MAX < err.value.value < math.inf
