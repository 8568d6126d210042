import math

import pytest
from hypothesis import given, strategies as st

from stfom import (
    Formula,
    FormulaError,
    MaterialSpec,
    OutOfRangeError,
    STANDARD_ATOMIC_WEIGHTS,
    format_material,
    format_sig,
    molar_mass,
    nuclei_count,
    nuclei_per_formula,
    parse_formula,
    parse_material,
)

# Independent copies of the weights the assertions below rely on, kg/mol.
H = 1.008e-3
B = 10.81e-3
N = 14.007e-3
O = 15.999e-3
SI = 28.085e-3
AU = 196.97e-3
AVOGADRO = 6.02214076e23


def test_parse_simple_formula():
    f = parse_formula("Si3N4")
    assert f.terms == (("Si", 3), ("N", 4))
    assert not f.charge_ignored


def test_parse_single_element_defaults_to_count_one():
    assert parse_formula("C").terms == (("C", 1),)
    assert parse_formula("H").terms == (("H", 1),)


def test_parse_multi_term():
    f = parse_formula("Nd2Fe14B")
    assert f.terms == (("Nd", 2), ("Fe", 14), ("B", 1))


def test_parse_repeated_element_keeps_both_terms():
    f = parse_formula("CHOCH2OH")
    assert f.terms == (
        ("C", 1), ("H", 1), ("O", 1), ("C", 1), ("H", 2), ("O", 1), ("H", 1)
    )


def test_charge_tokens_are_stripped_and_flagged():
    for text in ("Mg+", "Yb+", "Sr+", "Be+"):
        f = parse_formula(text)
        assert len(f.terms) == 1 and f.terms[0][1] == 1
        assert f.charge_ignored


def test_charge_token_with_magnitude():
    f = parse_formula("Mg2+")
    assert f.terms == (("Mg", 1),)
    assert f.charge_ignored
    f = parse_formula("C-")
    assert f.terms == (("C", 1),)
    assert f.charge_ignored


@pytest.mark.parametrize("text,position", [
    ("3Si", 0),
    ("Si0", 2),
    ("si", 0),
    ("", 0),
    ("+", 0),
    ("Si O2", 2),
    # A line feed after a charge token is not part of the token.
    ("Mg+\n", 2),
    ("Yb2+\n", 3),
    # Counts past what int() reads or a float holds, alone or summed;
    # leading zeros count toward a count's length.
    pytest.param("C" + "9" * 5000, 1, id="5000-digits"),
    pytest.param("C" + "9" * 400, 1, id="400-digits"),
    pytest.param("Si" + "9" * 309, 2, id="309-digits"),
    pytest.param("C" + "0" * 309 + "1", 1, id="leading-zeros"),
    pytest.param("C" + "9" * 308 + "H" + "9" * 308, 310, id="sum"),
])
def test_rejected_formulas(text, position):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert str(err.value).startswith(f"position {position}: ")


def test_counts_a_float_holds_are_kept():
    huge = parse_formula("C" + "9" * 308)
    assert huge.terms == (("C", 10**308 - 1),)
    assert 0.0 < molar_mass(huge) < math.inf
    assert parse_formula("C" + "0" * 308 + "1").terms == (("C", 1),)


def test_unknown_element_reports_symbol():
    with pytest.raises(FormulaError) as err:
        parse_formula("Xq2")
    assert str(err.value) == "unknown element symbol 'Xq'"
    with pytest.raises(FormulaError) as err:
        parse_formula("SiZz4")
    assert str(err.value) == "unknown element symbol 'Zz'"


def test_molar_mass_single_element():
    assert molar_mass(parse_formula("H")) == pytest.approx(H, rel=1e-12)
    assert format_sig(molar_mass(parse_formula("H")), 4) == "1.008e-3"


def test_molar_mass_silica():
    f = parse_formula("SiO2")
    assert molar_mass(f) == pytest.approx(SI + 2 * O, rel=1e-12)
    assert format_sig(molar_mass(f), 4) == "6.008e-2"


def test_molar_mass_silicon_nitride():
    f = parse_formula("Si3N4")
    assert molar_mass(f) == pytest.approx(3 * SI + 4 * N, rel=1e-12)
    assert format_sig(molar_mass(f), 4) == "1.403e-1"


def test_nuclei_per_formula():
    assert nuclei_per_formula(parse_formula("C")) == 1
    assert nuclei_per_formula(parse_formula("SiO2")) == 3
    assert nuclei_per_formula(parse_formula("Si3N4")) == 7
    assert nuclei_per_formula(parse_formula("Nd2Fe14B")) == 17


def test_weights_cover_the_catalog_elements():
    for symbol in ("H", "B", "C", "N", "O", "Al", "Si", "S", "Cs", "Rb",
                   "Sr", "Yb", "Nd", "Fe", "Au", "Pb", "Mg", "Be", "Ga", "As"):
        assert symbol in STANDARD_ATOMIC_WEIGHTS
        assert STANDARD_ATOMIC_WEIGHTS[symbol] > 0.0


def test_parse_material_bare_formula():
    mat = parse_material("Si3N4")
    assert len(mat.components) == 1
    formula, fraction = mat.components[0]
    assert formula.terms == (("Si", 3), ("N", 4))
    assert fraction == 1.0


def test_parse_material_mixture():
    mat = parse_material("0.8*SiO2+0.2*B2O3")
    assert len(mat.components) == 2
    (f1, x1), (f2, x2) = mat.components
    assert f1.terms == (("Si", 1), ("O", 2)) and x1 == 0.8
    assert f2.terms == (("B", 2), ("O", 3)) and x2 == 0.2


def test_parse_material_mixture_with_ion_component():
    mat = parse_material("0.5*Mg++0.5*C")
    (f1, _), (f2, _) = mat.components
    assert f1.terms == (("Mg", 1),) and f1.charge_ignored
    assert f2.terms == (("C", 1),)


_REJECTED_MATERIALS = {
    "": "empty material expression",
    "0.5*SiO2+0.4*B2O3": "mass fractions sum to 0.9, expected 1",
    "1.1*SiO2": "mass fraction must be in (0, 1], got 1.1",
    "0.8 *SiO2+0.2*B2O3": "material expression must not contain whitespace",
    "0.8*SiO2+0.2": "bad mixture component '0.2'",  # missing formula
    "*SiO2": "bad mixture component '*SiO2'",  # missing fraction
    "x*SiO2": "bad mass fraction 'x'",
}


@pytest.mark.parametrize("text", list(_REJECTED_MATERIALS))
def test_rejected_materials(text):
    with pytest.raises(FormulaError) as err:
        parse_material(text)
    assert str(err.value) == _REJECTED_MATERIALS[text]


def test_material_roundtrip_mixture():
    text = "0.8*SiO2+0.2*B2O3"
    mat = parse_material(text)
    assert format_material(mat) == text
    assert parse_material(format_material(mat)) == mat


def test_nuclei_count_silicon_nitride_nanowire():
    # 9.30e-15 kg of Si3N4; the source quotes 2.79e11 nuclei.
    mat = parse_material("Si3N4")
    expected = 9.30e-15 / (3 * SI + 4 * N) * AVOGADRO * 7
    got = nuclei_count(9.30e-15, mat)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.79e11, rel=1e-2)


def test_nuclei_count_borosilicate_mixture():
    # 2.50e-10 kg of 80% silica / 20% boron trioxide; source quotes 8.26e15.
    mat = parse_material("0.8*SiO2+0.2*B2O3")
    expected = (
        2.50e-10 * 0.8 / (SI + 2 * O) * AVOGADRO * 3
        + 2.50e-10 * 0.2 / (2 * B + 3 * O) * AVOGADRO * 5
    )
    got = nuclei_count(2.50e-10, mat)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(8.26e15, rel=3e-2)


def test_nuclei_count_gold_kilogram_scale():
    mat = parse_material("Au")
    got = nuclei_count(1.93, mat)
    assert got == pytest.approx(1.93 / AU * AVOGADRO, rel=1e-12)
    assert got == pytest.approx(5.89e24, rel=1e-2)


def test_nuclei_count_zero_mass():
    assert nuclei_count(0.0, parse_material("C")) == 0.0


def test_nuclei_count_rejects_negative_mass():
    with pytest.raises(OutOfRangeError) as err:
        nuclei_count(-1.0, parse_material("C"))
    assert str(err.value) == "mass_kg must be a finite float >= 0, got -1.0"


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_nuclei_count_refuses_a_non_finite_mass(mass):
    with pytest.raises(OutOfRangeError) as err:
        nuclei_count(mass, parse_material("C"))
    assert str(err.value) == f"mass_kg must be a finite float >= 0, got {mass!r}"


def test_single_element_count_inverts_to_mass():
    mat = parse_material("C")
    mass = 3.7e-12
    count = nuclei_count(mass, mat)
    assert count * STANDARD_ATOMIC_WEIGHTS["C"] / AVOGADRO == pytest.approx(
        mass, rel=1e-12
    )


_symbols = st.sampled_from(sorted(STANDARD_ATOMIC_WEIGHTS))
_terms = st.lists(
    st.tuples(_symbols, st.integers(min_value=1, max_value=500)),
    min_size=1, max_size=8,
)


@given(terms=_terms, charged=st.booleans())
def test_formula_roundtrip(terms, charged):
    if charged:
        # trailing digits before a sign always read as the charge token,
        # so a parsed charged formula never ends with an explicit count
        terms = terms[:-1] + [(terms[-1][0], 1)]
    original = Formula(tuple(terms), charge_ignored=charged)
    assert parse_formula(original.canonical()) == original


def test_charge_token_absorbs_trailing_digits():
    parsed = parse_formula("Ag2+")
    assert parsed == Formula((("Ag", 1),), charge_ignored=True)
    assert parsed.canonical() == "Ag+"


@given(terms=_terms)
def test_molar_mass_doubles_exactly_with_counts(terms):
    single = Formula(tuple(terms))
    doubled = Formula(tuple((sym, 2 * count) for sym, count in terms))
    assert molar_mass(doubled) == 2.0 * molar_mass(single)


@given(
    mass=st.floats(min_value=1e-27, max_value=1e3,
                   allow_nan=False, allow_infinity=False),
    text=st.sampled_from(["C", "SiO2", "Si3N4", "0.8*SiO2+0.2*B2O3"]),
)
def test_nuclei_count_exactly_linear_in_mass(mass, text):
    mat = parse_material(text)
    assert nuclei_count(2.0 * mass, mat) == 2.0 * nuclei_count(mass, mat)


@given(fraction=st.floats(min_value=0.01, max_value=0.99,
                          allow_nan=False, allow_infinity=False))
def test_mixture_roundtrip(fraction):
    mat = MaterialSpec((
        (parse_formula("SiO2"), fraction),
        (parse_formula("B2O3"), 1.0 - fraction),
    ))
    assert parse_material(format_material(mat)) == mat


@given(fraction=st.floats(min_value=0.01, max_value=0.99,
                          allow_nan=False, allow_infinity=False))
def test_nuclei_count_linear_in_fractions(fraction):
    mass = 1e-10
    silica = parse_material("SiO2")
    boria = parse_material("B2O3")
    mix = MaterialSpec((
        (parse_formula("SiO2"), fraction),
        (parse_formula("B2O3"), 1.0 - fraction),
    ))
    blended = (
        fraction * nuclei_count(mass, silica)
        + (1.0 - fraction) * nuclei_count(mass, boria)
    )
    assert nuclei_count(mass, mix) == pytest.approx(blended, rel=1e-12)


def test_molar_mass_rejects_unknown_symbol():
    with pytest.raises(FormulaError) as err:
        molar_mass(Formula((("Zz", 1),)))
    assert str(err.value) == "unknown element symbol 'Zz'"


# ------------------------------------------------------------ material caches

def _reference_nuclei(mass, mat, n_avogadro=AVOGADRO):
    """nuclei_count's arithmetic, recomputed from scratch on every call."""
    total = 0.0
    for formula, fraction in mat.components:
        moles = mass * fraction / molar_mass(formula)
        total += moles * n_avogadro * nuclei_per_formula(formula)
    return total


def test_hand_built_specs_keep_their_own_values_when_ids_are_reused():
    texts = ["C", "Au", "SiO2", "Si3N4"]
    seen_ids = set()
    for i in range(400):
        first, second = texts[i % 4], texts[i // 4 % 4]
        if i % 3 == 0:
            text, mat = first, MaterialSpec.pure(parse_formula(first))
        else:
            fraction = (i % 7 + 1) / 8
            text = f"{fraction!r}*{first}+{1.0 - fraction!r}*{second}"
            mat = MaterialSpec(((parse_formula(first), fraction),
                                (parse_formula(second), 1.0 - fraction)))
        seen_ids.add(id(mat))
        assert nuclei_count(1e-9, mat) == _reference_nuclei(1e-9, mat)
        assert format_material(mat) == text
        del mat
    # Dropped specs hand their ids to later, different ones.
    assert len(seen_ids) < 400


@pytest.mark.parametrize("text", ["Si3N4", "0.8*SiO2+0.2*B2O3"])
def test_parsed_specs_keep_no_per_instance_values(text):
    # nuclei_count and format_material read each Formula's values, so a
    # spec has no __dict__ to fill.
    mat = parse_material(text)
    assert not hasattr(mat, "__dict__")
    assert format_material(mat) == text
    assert nuclei_count(1e-9, mat) == _reference_nuclei(1e-9, mat)
    with pytest.raises(AttributeError):
        mat.extra = 1


@pytest.mark.parametrize("text", ["", "Xx2", "si", "0.5*SiO2", "Si O2"])
def test_bad_material_text_raises_on_every_call(text):
    for _ in range(3):
        with pytest.raises(FormulaError):
            parse_material(text)


def test_whitespace_check_rejects_every_space_code_point():
    import sys

    from stfom.formula import _WHITESPACE_RE

    spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for c in spaces:
        with pytest.raises(FormulaError,
                           match="^material expression must not contain whitespace$"):
            parse_material(f"Si{chr(c)}O2")
    matched = [c for c in range(sys.maxunicode + 1)
               if _WHITESPACE_RE.search(chr(c))]
    assert matched == spaces


# --------------------------------------------------------- one-pass mixtures

def _mixture(parts):
    """The text and the checked constructor's components for (fraction
    text, formula text) pairs."""
    text = "+".join(f"{fraction}*{formula}" for fraction, formula in parts)
    components = tuple((parse_formula(formula), float(fraction))
                       for fraction, formula in parts)
    return text, components


@pytest.mark.parametrize("parts", [
    [("1.0", "SiO2")],
    [("1", "Au")],
    [("0.8", "SiO2"), ("0.2", "B2O3")],
    [("0.5", "Mg+"), ("0.5", "C")],
    [("0.5000000001", "SiO2"), ("0.5", "B2O3")],  # off by less than 1e-9
    [("0.5000000005", "SiO2"), ("0.5", "B2O3")],  # off by 5e-10
    [("0.1", "H2O"), ("0.2", "NaCl"), ("0.7", "SiO2")],
    [("0.7", "SiO2"), ("0.1", "B2O3"), ("0.1", "Na2O"), ("0.1", "Al2O3")],
    [("0.1", "C"), ("0.2", "C"), ("0.3", "C"), ("0.4", "C")],
])
def test_parsed_mixture_equals_the_checked_spec(parts):
    text, components = _mixture(parts)
    parse_material.cache_clear()
    got = parse_material(text)
    expected = MaterialSpec(components)
    assert type(got) is MaterialSpec
    assert got == expected
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("parts", [
    [("0", "SiO2"), ("1", "B2O3")],
    [("-0.2", "SiO2"), ("1.2", "B2O3")],
    [("1.5", "SiO2")],
    [("nan", "SiO2"), ("0.5", "B2O3")],
    [("inf", "SiO2")],
    [("0.5", "SiO2"), ("0.500001", "B2O3")],
    [("0.5", "SiO2"), ("0.499999", "B2O3")],
    [("0.50000001", "SiO2"), ("0.5", "B2O3")],  # off by 1e-8
])
def test_bad_fractions_raise_what_the_checked_spec_raises(parts):
    text, components = _mixture(parts)
    with pytest.raises(FormulaError) as expected:
        MaterialSpec(components)
    parse_material.cache_clear()
    with pytest.raises(FormulaError) as got:
        parse_material(text)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("text", ["1.5*SiO2+0.5*Xx", "0*SiO2+1*Xx2"])
def test_a_later_unknown_element_wins_over_an_earlier_bad_fraction(text):
    parse_material.cache_clear()
    with pytest.raises(FormulaError, match="^unknown element symbol 'Xx'$"):
        parse_material(text)


def test_whitespace_anywhere_in_a_mixture_is_refused():
    import sys

    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for space in spaces:
        for text in (f"{space}0.8*SiO2+0.2*B2O3", f"0.8*Si{space}O2+0.2*B2O3",
                     f"0.8*SiO2{space}+0.2*B2O3", f"0.8*SiO2+0.2*B2O3{space}"):
            parse_material.cache_clear()
            with pytest.raises(
                    FormulaError,
                    match="^material expression must not contain whitespace$"):
                parse_material(text)


# ------------------------------------------------------------- formula cache

def test_equal_formula_texts_share_one_formula():
    assert parse_formula("SiO2") is parse_formula("SiO2")
    assert (parse_material("0.25*SiO2+0.75*B2O3")
            is parse_material("0.25*SiO2+0.75*B2O3"))
    first = parse_material("0.25*SiO2+0.75*B2O3").components
    second = parse_material("0.5*B2O3+0.5*SiO2").components
    assert first[0][0] is second[1][0] and first[1][0] is second[0][0]


def test_formula_text_is_positional_only():
    # The cache keys a keyword call apart from a positional one, so a
    # keyword would fill a second slot for the same text.
    for parse in (parse_formula, parse_material):
        before = parse.cache_info().currsize
        with pytest.raises(TypeError):
            parse(text="SiO2")
        assert parse.cache_info().currsize == before


@pytest.mark.parametrize("text", ["Xq2", "Si0", "", "si"])
def test_bad_formula_text_raises_on_every_call(text):
    for parse in (parse_formula, parse_material):
        parse.cache_clear()  # a full cache would keep its size after a store
        for _ in range(3):
            with pytest.raises(FormulaError):
                parse(text)
        assert parse.cache_info().currsize == 0


def test_formula_cache_stays_bounded_and_correct():
    limit = 256
    for parse in (parse_formula, parse_material):
        assert parse.cache_info().maxsize == limit
        for count in range(2, limit + 100):
            parse(f"C{count}")
            assert parse.cache_info().currsize <= limit
    for count in (2, 3, limit + 99):
        formula = parse_material(f"C{count}").components[0][0]
        assert formula.terms == (("C", count),)
        assert molar_mass(formula) == count * STANDARD_ATOMIC_WEIGHTS["C"]
        assert nuclei_per_formula(formula) == count


@pytest.mark.parametrize("text", ["C", "Si3N4", "Nd2Fe14B", "Yb+", "CHOCH2OH"])
def test_parsed_and_hand_built_formulas_agree(text):
    parsed = parse_formula(text)
    built = Formula(parsed.terms, charge_ignored=parsed.charge_ignored)
    assert built is not parsed
    assert molar_mass(built) == molar_mass(parsed)
    assert nuclei_per_formula(built) == nuclei_per_formula(parsed)
    assert built.canonical() == parsed.canonical()
    for mat in (MaterialSpec.pure(built), MaterialSpec.pure(parsed)):
        assert nuclei_count(1e-9, mat) == _reference_nuclei(1e-9, mat)
        assert format_material(mat) == parsed.canonical()


def test_unknown_symbol_in_a_hand_built_spec_poisons_nothing():
    mat = MaterialSpec.pure(Formula((("Zz", 1),)))
    for _ in range(2):
        with pytest.raises(FormulaError, match="^unknown element symbol 'Zz'$"):
            nuclei_count(1e-9, mat)
    carbon = parse_material("C")
    assert nuclei_count(1e-9, carbon) == _reference_nuclei(1e-9, carbon)
    assert format_material(carbon) == "C"


_formula_texts = st.sampled_from(
    ["C", "Au", "SiO2", "B2O3", "Si3N4", "Nd2Fe14B", "GaAs", "Be+", "H2O"])


@given(
    mass=st.floats(min_value=0.0, max_value=1e3,
                   allow_nan=False, allow_infinity=False),
    first=_formula_texts,
    second=_formula_texts,
    fraction=st.floats(min_value=0.01, max_value=0.99,
                       allow_nan=False, allow_infinity=False),
    n_avogadro=st.floats(min_value=1e20, max_value=1e26,
                         allow_nan=False, allow_infinity=False),
)
def test_cached_nuclei_count_is_bit_identical(mass, first, second, fraction,
                                              n_avogadro):
    for text in (first, f"{fraction!r}*{first}+{1.0 - fraction!r}*{second}"):
        mat = parse_material(text)
        expected = _reference_nuclei(mass, mat, n_avogadro=n_avogadro)
        assert nuclei_count(mass, mat, n_avogadro=n_avogadro) == expected
        assert nuclei_count(mass, mat, n_avogadro=n_avogadro) == expected
        assert nuclei_count(mass, parse_material(text),
                            n_avogadro=n_avogadro) == expected

