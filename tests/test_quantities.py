import math

import pytest

from stfom import (
    Constants,
    ConstantsError,
    DEFAULT_CONSTANTS_TEXT,
    OutOfRangeError,
    load_constants,
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


def test_defaults_text_is_the_field_defaults():
    assert DEFAULT_CONSTANTS_TEXT == (
        "# default physical constants (SI)\n"
        "G 6.674e-11\n"
        "N_A 6.02214076e+23\n"
        "k_B 1.380649e-23\n"
        "r_N 1e-15\n"
        "m_N 1.6726e-27\n"
    )


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
    with pytest.raises(ConstantsError) as err:
        load_constants("g 6.674e-11\n")
    assert str(err.value) == "unknown constant 'g'"


@pytest.mark.parametrize("line", ["G 0", "G -1e-11", "G inf", "k_B nan"])
def test_load_constants_non_positive(line):
    name, value = line.split()
    with pytest.raises(OutOfRangeError) as err:
        load_constants(line)
    assert str(err.value) == f"{name} must be a finite float > 0, got {float(value)!r}"


def test_load_constants_reports_the_first_bad_field_in_field_order():
    with pytest.raises(OutOfRangeError) as err:
        load_constants("m_N -1\nk_B 0\n")
    assert (err.value.name, err.value.value) == ("k_B", 0.0)
    assert load_constants("G -1\nG 1e-10\n").G == 1e-10


@pytest.mark.parametrize("line", ["G", "G 1 2", "G abc"])
def test_load_constants_malformed(line):
    with pytest.raises(ConstantsError):
        load_constants(line)


@pytest.mark.parametrize("text, message", [
    # A form feed, or any other separator str.splitlines() splits at, does
    # not end a line, so the bad line is the file's second.
    ("G 6.674e-11\x0c\nbad line here\n",
     "line 2: expected 'name value', got 'bad line here'"),
    ("G 1e-10\x1c\x1d\x1e\x85\u2029\nbad line here\n",
     "line 2: expected 'name value', got 'bad line here'"),
    # A U+2028 inside a line leaves one line of four fields.
    ("G 6.674e-11\u2028k_B 1e-23\n",
     "line 1: expected 'name value', got 'G 6.674e-11\\u2028k_B 1e-23'"),
])
def test_load_constants_splits_lines_only_at_line_ends(text, message):
    with pytest.raises(ConstantsError) as err:
        load_constants(text)
    assert str(err.value) == message


def test_load_constants_reads_each_line_end():
    c = load_constants("G 1e-10\r\nk_B 2e-23\rr_N 3e-15\nm_N 4e-27")
    assert (c.G, c.k_B, c.r_N, c.m_N) == (1e-10, 2e-23, 3e-15, 4e-27)


def test_constants_reject_non_positive_fields():
    with pytest.raises(OutOfRangeError,
                       match=r"^G must be a finite float > 0, got 0\.0$"):
        Constants(G=0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_constants_refuse_non_finite_fields(value):
    with pytest.raises(OutOfRangeError) as err:
        Constants(G=value)
    assert str(err.value) == f"G must be a finite float > 0, got {value!r}"
