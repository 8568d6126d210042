import math

import pytest
from hypothesis import given, strategies as st

from stfom import (
    Constants,
    ConstantsError,
    DEFAULT_CONSTANTS_TEXT,
    NegativeInputError,
    NonPositiveError,
    UnknownConstantError,
    angular_frequency,
    asd_to_psd,
    load_constants,
    psd_to_asd,
)


def test_default_constants_values():
    c = Constants()
    assert c.G == 6.674e-11
    assert c.N_A == 6.02214076e23
    assert c.k_B == 1.380649e-23
    assert c.r_N == 1.0e-15
    assert c.m_N == 1.6726e-27


def test_defaults_text_parses_to_the_defaults():
    assert load_constants(DEFAULT_CONSTANTS_TEXT) == Constants()


def test_defaults_text_digits_are_verbatim():
    for token in ("G 6.674e-11", "N_A 6.02214076e23", "k_B 1.380649e-23",
                  "r_N 1.0e-15", "m_N 1.6726e-27"):
        assert token in DEFAULT_CONSTANTS_TEXT


def test_load_constants_empty_gives_defaults():
    assert load_constants("") == Constants()


def test_load_constants_override_single_value():
    c = load_constants("G 6.7e-11\n")
    assert c.G == 6.7e-11
    assert c.N_A == Constants().N_A


def test_load_constants_comments_and_blanks():
    c = load_constants("# comment\n\nG 1e-10  # inline comment\n")
    assert c.G == 1e-10


def test_load_constants_last_line_wins():
    assert load_constants("G 1e-10\nG 2e-10\n").G == 2e-10


def test_load_constants_unknown_name():
    with pytest.raises(UnknownConstantError) as err:
        load_constants("g 6.674e-11\n")
    assert err.value.name == "g"


@pytest.mark.parametrize("line", ["G 0", "G -1e-11", "G inf", "k_B nan"])
def test_load_constants_non_positive(line):
    with pytest.raises(NonPositiveError):
        load_constants(line)


def test_load_constants_reports_the_first_bad_field_in_field_order():
    with pytest.raises(NonPositiveError) as err:
        load_constants("m_N -1\nk_B 0\n")
    assert (err.value.name, err.value.value) == ("k_B", 0.0)
    assert load_constants("G -1\nG 1e-10\n").G == 1e-10


@pytest.mark.parametrize("line", ["G", "G 1 2", "G abc"])
def test_load_constants_malformed(line):
    with pytest.raises(ConstantsError):
        load_constants(line)


def test_constants_reject_non_positive_fields():
    with pytest.raises(NonPositiveError):
        Constants(G=0.0)


def test_asd_to_psd_plain_floats():
    assert asd_to_psd(0.0) == 0.0
    assert asd_to_psd(1.0) == 1.0
    got = asd_to_psd(4.91e-9)
    assert got == 4.91e-9 * 4.91e-9
    assert got == pytest.approx(2.411e-17, rel=5e-4)


def test_spectral_conversions_reject_negative():
    with pytest.raises(NegativeInputError):
        asd_to_psd(-1.0)
    with pytest.raises(NegativeInputError):
        psd_to_asd(-1.0)


@given(x=st.floats(min_value=1e-30, max_value=1e30,
                   allow_nan=False, allow_infinity=False))
def test_psd_asd_roundtrip(x):
    assert psd_to_asd(asd_to_psd(x)) == pytest.approx(x, rel=1e-12)
    assert asd_to_psd(psd_to_asd(x)) == pytest.approx(x, rel=1e-12)


def test_angular_frequency():
    assert angular_frequency(1.0) == 2.0 * math.pi
    assert angular_frequency(1.41e6) == pytest.approx(
        2.0 * math.pi * 1.41e6, rel=1e-15
    )
    with pytest.raises(NonPositiveError):
        angular_frequency(0.0)
