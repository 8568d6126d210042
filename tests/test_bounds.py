import math
import random
import sys

import pytest

from stfom import (
    CAVENDISH_FOM,
    Constants,
    DEFAULT_ANCHORS,
    BoundAnchor,
    ModelId,
    OutOfRangeError,
    anchored_bound,
    fom_threshold,
    orders_of_improvement,
    si_bound,
)

DISCRETE = ModelId.ULTRA_LOCAL_DISCRETE
CONTINUOUS = ModelId.NON_LOCAL_CONTINUOUS

G = 6.674e-11
R_N = 1.0e-15
M_N = 1.6726e-27


def test_default_anchor_values():
    d = DEFAULT_ANCHORS[DISCRETE]
    assert (d.fom_ref, d.bound_ref, d.lower_bound) == (2.98e-1, 1.0e-16, 1.0e-25)
    c = DEFAULT_ANCHORS[CONTINUOUS]
    assert (c.fom_ref, c.bound_ref, c.lower_bound) == (2.98e-1, 1.0e-24, 1.0e-35)


def test_anchored_bound_is_exact_at_the_anchor():
    for model in ModelId:
        anchor = DEFAULT_ANCHORS[model]
        assert anchored_bound(anchor.fom_ref, anchor) == anchor.bound_ref


def test_anchored_bound_scales_proportionally():
    anchor = DEFAULT_ANCHORS[DISCRETE]
    got = anchored_bound(2.41e-11, anchor)
    assert got == pytest.approx(1.0e-16 * (2.41e-11 / 2.98e-1), rel=1e-12)
    assert got == pytest.approx(8.09e-27, rel=1e-2)


def test_fom_threshold_inverts_anchored_bound():
    anchor = DEFAULT_ANCHORS[DISCRETE]
    assert fom_threshold(anchor.bound_ref, anchor) == anchor.fom_ref
    got = fom_threshold(1.0e-25, anchor)
    assert got == pytest.approx(2.98e-1 * (1.0e-25 / 1.0e-16), rel=1e-12)
    assert got == pytest.approx(2.98e-10, rel=1e-12)
    continuous = fom_threshold(1.0e-35, DEFAULT_ANCHORS[CONTINUOUS])
    assert continuous == pytest.approx(2.98e-12, rel=1e-12)


def test_threshold_bound_roundtrip():
    rng = random.Random(7)
    for model in ModelId:
        anchor = DEFAULT_ANCHORS[model]
        for _ in range(2000):
            bound = 10.0 ** rng.uniform(-40, 0)
            back = anchored_bound(fom_threshold(bound, anchor), anchor)
            assert back == pytest.approx(bound, rel=1e-12)


def test_si_bound_discrete():
    got = si_bound(DISCRETE, 1.0e14)
    expected = 1.0e14 * R_N**4 / (M_N * G * G)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.343e1, rel=5e-3)


def test_si_bound_continuous():
    got = si_bound(CONTINUOUS, 1.0e14)
    expected = 1.0e14 * R_N**3 / (G * G)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.245e-11, rel=5e-3)


def test_si_bound_honours_custom_constants():
    custom = Constants(r_N=2.0e-15)
    # r_N enters quartically in the discrete model, cubically otherwise
    assert si_bound(DISCRETE, 1.0, custom) == pytest.approx(
        16.0 * si_bound(DISCRETE, 1.0), rel=1e-12
    )
    assert si_bound(CONTINUOUS, 1.0, custom) == pytest.approx(
        8.0 * si_bound(CONTINUOUS, 1.0), rel=1e-12
    )


def test_si_and_anchored_bounds_scale_identically():
    rng = random.Random(12345)
    for model in ModelId:
        anchor = DEFAULT_ANCHORS[model]
        for _ in range(2000):
            fom_a = 10.0 ** rng.uniform(-12, 15)
            fom_b = 10.0 ** rng.uniform(-12, 15)
            si_ratio = si_bound(model, fom_a) / si_bound(model, fom_b)
            anchored_ratio = (
                anchored_bound(fom_a, anchor)
                / anchored_bound(fom_b, anchor)
            )
            assert si_ratio == pytest.approx(anchored_ratio, rel=1e-12)
            assert si_ratio == pytest.approx(fom_a / fom_b, rel=1e-12)


def test_bounds_are_monotonic_in_fom():
    rng = random.Random(4242)
    anchor = DEFAULT_ANCHORS[DISCRETE]
    for _ in range(1000):
        small = 10.0 ** rng.uniform(-12, 14)
        large = small * (1.0 + rng.uniform(0.01, 10.0))
        assert anchored_bound(small, anchor) < anchored_bound(large, anchor)


def test_negative_and_zero_inputs_rejected():
    anchor = DEFAULT_ANCHORS[DISCRETE]
    with pytest.raises(OutOfRangeError,
                       match=r"^fom must be a finite float >= 0, got -1\.0$"):
        anchored_bound(-1.0, anchor)
    with pytest.raises(OutOfRangeError,
                       match=r"^fom must be a finite float >= 0, got -1\.0$"):
        si_bound(DISCRETE, -1.0)
    with pytest.raises(OutOfRangeError,
                       match=r"^bound must be a finite float >= 0, got -1\.0$"):
        fom_threshold(-1.0, anchor)
    with pytest.raises(OutOfRangeError,
                       match=r"^fom must be a finite float > 0, got 0\.0$"):
        orders_of_improvement(0.0)
    with pytest.raises(OutOfRangeError,
                       match=r"^baseline_fom must be a finite float > 0, got 0\.0$"):
        orders_of_improvement(1.0, 0.0)


@pytest.mark.parametrize("fom, constants", [
    (0.0, Constants()),
    (1.0, Constants(G=1e-200)),
    (1.0, Constants(m_N=1e-320)),
    (1.0, Constants(r_N=1e100)),
    (1.0, Constants(G=1e200)),
    # Finite, but too large to print: 3 figures spell it 1.80e308.
    (1.796e308, Constants(G=1.0, r_N=1.0, m_N=1.0)),
])
def test_si_bound_outside_the_range_of_a_float_raises(fom, constants):
    with pytest.raises(OutOfRangeError) as err:
        si_bound(DISCRETE, fom, constants)
    assert (err.value.record, err.value.name) == ("ultra-local-discrete", "si_bound")


def test_anchor_validation():
    with pytest.raises(OutOfRangeError,
                       match=r"^fom_ref must be a finite float > 0, got 0\.0$"):
        BoundAnchor(DISCRETE, fom_ref=0.0, bound_ref=1e-16, lower_bound=1e-25)


def test_orders_of_improvement():
    got = orders_of_improvement(2.98e-1)
    assert got == pytest.approx(math.log10(1.0e14 / 2.98e-1), rel=1e-12)
    assert got == pytest.approx(14.53, abs=5e-3)
    assert orders_of_improvement(CAVENDISH_FOM) == 0.0
    assert orders_of_improvement(1.0, 1000.0) == pytest.approx(3.0, rel=1e-12)



_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bound,value", [
    *[pytest.param(lambda fom: anchored_bound(fom, DEFAULT_ANCHORS[DISCRETE]), value,
                   id=repr(value)) for value in _NON_FINITE],
    *[pytest.param(lambda fom: si_bound(DISCRETE, fom), value,
                   id=f"si_bound-{value!r}") for value in _NON_FINITE],
])
def test_anchored_bound_refuses_a_non_finite_fom(bound, value):
    with pytest.raises(OutOfRangeError) as err:
        bound(value)
    assert str(err.value) == f"fom must be a finite float >= 0, got {value!r}"


@pytest.mark.parametrize("value", _NON_FINITE)
def test_fom_threshold_refuses_a_non_finite_bound(value):
    with pytest.raises(OutOfRangeError) as err:
        fom_threshold(value, DEFAULT_ANCHORS[DISCRETE])
    assert str(err.value) == f"bound must be a finite float >= 0, got {value!r}"


def test_fom_threshold_survives_an_overflowing_ratio():
    anchor = DEFAULT_ANCHORS[DISCRETE]
    assert 3e292 / anchor.bound_ref == math.inf
    got = fom_threshold(3e292, anchor)
    assert got == pytest.approx(3e292 * (2.98e-1 / 1.0e-16), rel=1e-12)
    assert got == pytest.approx(8.94e307, rel=1e-12)
    assert anchored_bound(got, anchor) == pytest.approx(3e292, rel=1e-12)


# 6.03e292 gives a finite 1.797e308 that format_sig would print as 1.80e308,
# which reads back as inf.
@pytest.mark.parametrize("bound", [6.03e292, 1e300, sys.float_info.max, 0.0])
def test_fom_threshold_outside_the_range_of_a_float_raises(bound):
    with pytest.raises(OutOfRangeError) as err:
        fom_threshold(bound, DEFAULT_ANCHORS[DISCRETE])
    assert (err.value.record, err.value.name) == (
        "ultra-local-discrete", "fom_threshold")


@pytest.mark.parametrize("value", _NON_FINITE)
def test_orders_of_improvement_refuses_non_finite_foms(value):
    with pytest.raises(OutOfRangeError) as err:
        orders_of_improvement(value)
    assert str(err.value) == f"fom must be a finite float > 0, got {value!r}"
    with pytest.raises(OutOfRangeError) as err:
        orders_of_improvement(1.0, value)
    assert str(err.value) == f"baseline_fom must be a finite float > 0, got {value!r}"
    assert err.value.name == "baseline_fom"


def test_anchored_bound_of_a_fom_near_the_largest_float():
    # fom / fom_ref overflows above about 5.4e307; the bound does not.
    anchor = DEFAULT_ANCHORS[DISCRETE]
    got = anchored_bound(1.7e308, anchor)
    assert got == pytest.approx(1.7e308 * 1.0e-16 / 2.98e-1, rel=1e-12)


@pytest.mark.parametrize("fom, baseline, orders", [
    (1e-200, 1e300, 500.0), (1e300, 1e-200, -500.0)])
def test_orders_of_improvement_when_the_ratio_leaves_float_range(
        fom, baseline, orders):
    assert orders_of_improvement(fom, baseline) == pytest.approx(orders, rel=1e-12)
