"""End-to-end checks, one per acceptance criterion.

Each test prints a single PASS line naming the guarantee it verified, so
`pytest tests/test_acceptance.py -v -s` reads as a checklist.  These
tests exercise the public API and the command line the way a user would;
unit-level coverage lives in the sibling test modules.
"""

import math
import random
import time
import xml.etree.ElementTree as ET

import pytest

from stfom import (
    CAVENDISH_FOM,
    DEFAULT_ANCHORS,
    ExperimentRecord,
    ModelId,
    anchored_bound,
    asd_to_psd,
    embedded_catalog,
    embedded_reference_values,
    emit_bounds_summary,
    evaluate_catalog,
    orders_of_improvement,
    parse_formula,
    parse_material,
    parse_records,
    psd_to_asd,
    serialize_records,
    si_bound,
)
from stfom.cli import main
from stfom.errors import FormulaError


def test_c1_reproduces_quoted_catalog_values(catalog, results):
    quoted = embedded_reference_values()
    worst_fom = worst_n = worst_asd = 0.0
    for record in catalog:
        result = results[record.name]
        reference = quoted[record.name]
        fom_dev = abs(result.fom / reference.fom - 1.0)
        n_dev = abs(result.n_nuclei / reference.n_nuclei - 1.0)
        worst_fom = max(worst_fom, fom_dev)
        worst_n = max(worst_n, n_dev)
        assert fom_dev <= 0.05, f"{record.name}: fom off by {fom_dev:.2%}"
        assert n_dev <= 0.03, f"{record.name}: nucleus count off by {n_dev:.2%}"
        if record.sqrt_sf is not None and record.sqrt_sa:
            drift = abs(record.sqrt_sf / record.mass_kg / record.sqrt_sa - 1.0)
            worst_asd = max(worst_asd, drift)
            assert drift <= 0.02, f"{record.name}: densities disagree by {drift:.2%}"
        assert result.warnings == ()

    spots = {
        "Gisler '22": 2.98e-1,
        "Asenbaum '17": 2.41e-11,
        "Armano '18": 1.78e-5,
        "Cavendish 1798": 1.00e14,
    }
    for name, value in spots.items():
        assert results[name].fom == pytest.approx(value, rel=0.05)

    embedded_catalog.cache_clear()
    started = time.perf_counter()
    evaluate_catalog(embedded_catalog())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    print(f"\nPASS C1: 46 records reproduced (worst fom {worst_fom:.2%}, "
          f"worst N {worst_n:.2%}, worst density drift {worst_asd:.2%}, "
          f"evaluated in {elapsed * 1e3:.0f} ms)")


def test_c2_orders_of_improvement_windows(results):
    windows = {
        "Gisler '22": 14.53,
        "Asenbaum '17": 24.62,
        "Armano '18": 18.75,
    }
    reached = {}
    for name, center in windows.items():
        orders = orders_of_improvement(results[name].fom, CAVENDISH_FOM)
        assert abs(orders - center) <= 0.05, f"{name}: {orders:.3f} vs {center}"
        reached[name] = orders
    print("\nPASS C2: improvement decades "
          + ", ".join(f"{name} {value:.2f}" for name, value in reached.items()))


def test_c3_bound_mapping_and_summary_lines(catalog, results):
    for anchor in DEFAULT_ANCHORS.values():
        assert anchored_bound(anchor.fom_ref, anchor) == anchor.bound_ref

    entries = dict(
        line.split(": ", 1)
        for line in emit_bounds_summary(
            catalog, results, which="absolute-on-earth").splitlines()
    )
    assert entries["ultra-local-discrete.conservative_bound"] == "1.00e-16"
    assert entries["non-local-continuous.conservative_bound"] == "1.00e-24"

    best_fom = results["Asenbaum '17"].fom
    discrete = anchored_bound(
        best_fom, DEFAULT_ANCHORS[ModelId.ULTRA_LOCAL_DISCRETE])
    continuous = anchored_bound(
        best_fom, DEFAULT_ANCHORS[ModelId.NON_LOCAL_CONTINUOUS])
    assert discrete < 1e-25
    assert 1e-35 < continuous < 1e-34
    print(f"\nPASS C3: anchors exact, summary lines 1.00e-16/1.00e-24, "
          f"best record reaches {discrete:.2e} and {continuous:.2e}")


def _draw(i, mass, **fields):
    """A synthetic lead record for one random draw."""
    return ExperimentRecord(**{
        "name": f"draw {i}", "year": 2024, "reference": "synthetic",
        "category": "massive", "material": parse_material("Pb"),
        "mass_kg": mass, "sqrt_sf": 1e-15, **fields})


def test_c4_numerical_properties(catalog):
    rng = random.Random(20240817)

    # (a) anchored and SI bounds agree on every ratio of figures of merit
    for model in ModelId:
        anchor = DEFAULT_ANCHORS[model]
        for _ in range(2000):
            fom_a = 10.0 ** rng.uniform(-12, 14)
            fom_b = 10.0 ** rng.uniform(-12, 14)
            anchored_ratio = (anchored_bound(fom_a, anchor)
                              / anchored_bound(fom_b, anchor))
            si_ratio = si_bound(model, fom_a) / si_bound(model, fom_b)
            assert math.isclose(anchored_ratio, si_ratio, rel_tol=1e-12)
            assert math.isclose(anchored_ratio, fom_a / fom_b, rel_tol=1e-12)

    # (b) force <-> acceleration and psd <-> asd conversions round-trip;
    # the first catalog quotes each sqrt_sa, the second its derived sqrt_sf
    draws = []
    for i in range(2000):
        mass = 10.0 ** rng.uniform(-20, 2)
        sqrt_sa = 10.0 ** rng.uniform(-15, 0)
        draws.append(_draw(i, mass, sqrt_sf=None, sqrt_sa=sqrt_sa))
        density = 10.0 ** rng.uniform(-30, 5)
        assert math.isclose(psd_to_asd(asd_to_psd(density)), density,
                            rel_tol=1e-12)
    forces = evaluate_catalog(draws)
    backs = evaluate_catalog([
        r._replace(sqrt_sf=forces[r.name].sqrt_sf, sqrt_sa=None) for r in draws])
    for record in draws:
        assert math.isclose(backs[record.name].sqrt_sa, record.sqrt_sa,
                            rel_tol=1e-12)

    # (c) thermal figure of merit agrees with the explicit PSD route
    draws = []
    for i in range(10_000):
        n = 10.0 ** rng.uniform(0, 27)
        temp = 10.0 ** rng.uniform(-3, 3)
        omega0 = 10.0 ** rng.uniform(0, 7)
        mass = 10.0 ** rng.uniform(-20, 2)
        quality = 10.0 ** rng.uniform(0, 9)
        draws.append(_draw(i, mass, n_override=n, temp_k=temp,
                           f0_hz=omega0 / (2.0 * math.pi), quality=quality))
    results = evaluate_catalog(draws)
    for record in draws:
        result = results[record.name]
        via_psd = result.thermal_sqrt_sf**2 / record.mass_kg**2 * result.n_nuclei
        assert math.isclose(result.thermal_fom, via_psd, rel_tol=1e-12)

    # (d) formula parser: canonical text round-trips, bad text is rejected
    for text in ("Si3N4", "SiO2", "Nd2Fe14B", "CHOCH2OH", "Yb", "B2O3"):
        formula = parse_formula(text)
        assert parse_formula(formula.canonical()).canonical() == formula.canonical()
    for bad in ("3Si", "Si0", "si", "", "Xq2", "Si-3", "H2O "):
        with pytest.raises(FormulaError):
            parse_formula(bad)

    # (e) catalog CSV survives a byte round trip
    text = serialize_records(catalog)
    assert serialize_records(parse_records(text)) == text

    print("\nPASS C4: bound ratios, conversion round trips, thermal identity "
          "(10k draws), parser round trips, and CSV byte round trip all hold")


def test_c5_outputs_are_byte_deterministic(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    for out in (first, second):
        assert main(["compute", "--out", str(out)]) == 0
        assert main(["figure", "--out", str(out)]) == 0
    names = ("table.csv", "bounds.txt", "figure.svg", "figure.dat")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print("\nPASS C5: table.csv, bounds.txt, figure.svg, figure.dat "
          "byte-identical across runs")


def test_c6_figure_separates_differential_records_and_bands(tmp_path):
    assert main(["figure", "--out", str(tmp_path)]) == 0

    lines = [line.split() for line
             in (tmp_path / "figure.dat").read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    open_markers = {fields[0] for fields in lines if fields[4] == "circle-open"}
    assert open_markers == {
        "Armano_'18", "Asenbaum_'17", "Biedermann_'15", "Hamilton_'15"
    }

    root = ET.fromstring((tmp_path / "figure.svg").read_text(encoding="utf-8"))
    thresholds = {
        rect.get("data-model"): float(rect.get("data-fom-threshold"))
        for rect in root.iter()
        if rect.tag.rsplit("}", 1)[-1] == "rect" and rect.get("class") == "band"
    }
    assert thresholds["ultra-local-discrete"] == pytest.approx(2.98e-10, rel=0.01)
    assert thresholds["non-local-continuous"] == pytest.approx(2.98e-12, rel=0.01)
    print("\nPASS C6: differential records drawn open, model bands at "
          f"{thresholds['ultra-local-discrete']:.2e} and "
          f"{thresholds['non-local-continuous']:.2e}")
