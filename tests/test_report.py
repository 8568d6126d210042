import csv
import io
import math
import xml.etree.ElementTree as ET
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import example, given, strategies as st

from stfom import (
    CATEGORIES,
    Catalog,
    CatalogError,
    ExperimentRecord,
    FigurePoint,
    FomResult,
    build_figure_points,
    embedded_catalog,
    emit_bounds_summary,
    emit_figure,
    emit_table,
    evaluate_catalog,
    format_sig,
    parse_material,
    rank,
    select_for_figure,
)
from stfom.errors import _PRINT_MAX

# ---------------------------------------------------------------- format_sig

@pytest.mark.parametrize("value, expected", [
    (0.2977854, "2.98e-1"),
    (2.794646e11, "2.79e11"),
    (1.0, "1.00e0"),
    (0.0, "0.00e0"),
    (-0.2977854, "-2.98e-1"),
    (1e100, "1.00e100"),
    (9.999e-13, "1.00e-12"),
])
def test_format_sig_three_figures(value, expected):
    assert format_sig(value) == expected


def test_format_sig_other_precisions():
    assert format_sig(0.1403, 4) == "1.403e-1"
    assert format_sig(math.pi, 6) == "3.14159e0"
    # exact binary ties round half to even
    assert format_sig(0.125, 2) == "1.2e-1"
    assert format_sig(0.375, 2) == "3.8e-1"


@given(st.floats(min_value=1e-30, max_value=1e30),
       st.sampled_from([1.0, -1.0]))
def test_format_sig_idempotent(magnitude, sign):
    once = format_sig(sign * magnitude)
    assert format_sig(float(once)) == once


def _reference_format_sig(x, sig):
    mantissa, exponent = f"{x:.{sig - 1}e}".split("e")
    return f"{mantissa}e{int(exponent)}"


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=6))
@example(0.0, 3)
@example(-0.0, 1)
@example(5e-324, 6)
@example(-2.2250738585072014e-308, 3)
@example(1.7976931348623157e308, 2)
@example(9.995e-100, 3)
@example(9.9949e99, 4)
def test_format_sig_matches_the_split_and_int_spelling(x, sig):
    assert format_sig(x, sig) == _reference_format_sig(x, sig)


def test_the_largest_printed_number_reads_back_finite():
    assert format_sig(_PRINT_MAX) == "1.79e308"
    assert format_sig(math.nextafter(_PRINT_MAX, math.inf)) == "1.80e308"
    assert float("1.80e308") == math.inf


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_format_sig_refuses_non_finite_values(x):
    with pytest.raises(ValueError):
        format_sig(x)


# ---------------------------------------------------------------- emit_table

def _table_rows(catalog, results):
    text = emit_table(catalog, results)
    return list(csv.reader(io.StringIO(text)))


def test_table_header_and_size(catalog, results):
    text = emit_table(catalog, results)
    assert "\r" not in text and text.endswith("\n")
    rows = _table_rows(catalog, results)
    assert rows[0] == ["reference", "type", "element", "m", "N", "f0",
                       "sqrt_sf", "sqrt_sa", "fom"]
    assert len(rows) == 47


def test_table_first_row_is_best(ranked, results):
    rows = _table_rows(ranked, results)
    assert rows[1] == ["Asenbaum '17", "atom-interferometry", "Rb",
                       "1.44e-19", "1.01e6", "", "7.08e-28", "4.92e-9",
                       "2.45e-11"]


def test_table_known_row_cells(ranked, results):
    rows = _table_rows(ranked, results)
    gisler = next(r for r in rows if r[0] == "Gisler '22")
    assert gisler[3] == "9.30e-15"
    assert gisler[4] == "2.79e11"
    assert gisler[5] == "1.41e6"
    assert gisler[8] == "2.98e-1"
    assert rows[-1][0] == "Cavendish 1798"


def test_table_blank_resonance_cells(catalog, results):
    rows = _table_rows(catalog, results)
    assert sum(1 for r in rows[1:] if r[5] == "") == 4


def test_table_sorted_and_cells_idempotent(ranked, results):
    rows = _table_rows(ranked, results)
    foms = [float(r[8]) for r in rows[1:]]
    assert foms == sorted(foms)
    for row in rows[1:]:
        for cell in row[3:]:
            if cell:
                assert format_sig(float(cell)) == cell


def test_table_rows_follow_the_order_given(ranked, results):
    rows = _table_rows(ranked[::-1], results)
    assert [row[0] for row in rows[1:]] == [r.name for r in ranked[::-1]]


def _table_record(name="probe", **fields):
    base = dict(name=name, year=2024, reference="synthetic", category="membrane",
                material=parse_material("Si3N4"), mass_kg=1e-9, sqrt_sf=1e-15)
    base.update(fields)
    return ExperimentRecord(**base)


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


# A record's mass and frequency are at most 1.795e308, the largest number
# stfom prints; the result's numbers are not checked.
@given(st.floats(min_value=2.2250738585072014e-308, max_value=1.795e308),
       st.none() | st.floats(min_value=5e-324, max_value=1.795e308),
       _ANY_FINITE, _ANY_FINITE, _ANY_FINITE, _ANY_FINITE)
@example(1e-300, 5e-324, 0.0, -0.0, 1e-310, -2.5e-320)
@example(1.795e308, 1e100, -1e-100, 9.995e-100, 9.9949e99, -1e300)
@example(1e-9, 1.795e308, 1.7976931348623157e308, 1e-9, 1e-9, 1e-9)
@example(2.2250738585072014e-308, None, -0.0, 0.0, -5e-324, 1e-101)
def test_table_cells_are_format_sig_of_each_value(mass_kg, f0_hz, n_nuclei,
                                                   sqrt_sf, sqrt_sa, fom):
    # sqrt_sf = mass_kg keeps the record's acceleration density at 1.
    record = _table_record(mass_kg=mass_kg, f0_hz=f0_hz, sqrt_sf=mass_kg)
    result = FomResult(n_nuclei=n_nuclei, sqrt_sf=sqrt_sf, sqrt_sa=sqrt_sa, fom=fom)
    (row,) = _table_rows([record], {"probe": result})[1:]
    assert row == ["probe", "membrane", "Si3N4", format_sig(mass_kg),
                   format_sig(n_nuclei), "" if f0_hz is None else format_sig(f0_hz),
                   format_sig(sqrt_sf), format_sig(sqrt_sa), format_sig(fom)]


@pytest.mark.parametrize("field", ["n_nuclei", "sqrt_sf", "sqrt_sa", "fom"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_table_refuses_a_non_finite_number(field, value):
    values = dict(n_nuclei=1e10, sqrt_sf=1e-15, sqrt_sa=1e-6, fom=1e-2)
    values[field] = value
    with pytest.raises(ValueError):
        emit_table([_table_record()], {"probe": FomResult(**values)})


def test_table_name_with_a_bare_carriage_return_reads_back():
    record = _table_record(name="a\rb")
    result = FomResult(n_nuclei=1e10, sqrt_sf=1e-15, sqrt_sa=1e-6, fom=1e-2)
    text = emit_table([record], {record.name: result})
    assert text.count("\r") == 1 and text.endswith("\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2 and rows[1][0] == "a\rb"


@pytest.mark.parametrize("field", ["n_nuclei", "sqrt_sf", "sqrt_sa", "fom"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_table_refusal_names_the_record_and_its_numbers(field, value):
    values = dict(n_nuclei=1e10, sqrt_sf=1e-15, sqrt_sa=1e-6, fom=1e-2)
    values[field] = value
    cells = dict(n_nuclei="1.00e+10", sqrt_sf="1.00e-15", sqrt_sa="1.00e-06",
                 fom="1.00e-02")
    cells[field] = f"{value}"
    numbers = (f"1.00e-09,{cells['n_nuclei']},,{cells['sqrt_sf']},"
               f"{cells['sqrt_sa']},{cells['fom']}")
    with pytest.raises(ValueError) as raised:
        emit_table([_table_record()], {"probe": FomResult(**values)})
    assert str(raised.value) == f"probe: cannot format {numbers!r} in scientific notation"


# -------------------------------------------------------------- figure points

def test_points_cover_catalog_and_selection(ranked, results):
    points = build_figure_points(ranked, results, k=3)
    assert [p.name for p in points] == [
        r.name for r in select_for_figure(ranked, k=3)]
    assert len(points) == 29
    open_markers = {p.name for p in points if p.marker == "circle-open"}
    assert open_markers == {
        "Armano '18", "Asenbaum '17", "Biedermann '15", "Hamilton '15"
    }


def test_points_have_no_thermal_floor_without_q_and_t(ranked, results):
    # the reference records quote no temperature or quality factor
    assert all(p.thermal_fom is None for p in
               build_figure_points(ranked, results, k=100))


def _thermal_catalog():
    record = ExperimentRecord(
        name="Hot Probe", year=2024, reference="synthetic",
        category="membrane", material=parse_material("Si3N4"),
        mass_kg=1e-9, f0_hz=1e3, sqrt_sf=1e-14, temp_k=300.0, quality=1e7,
    )
    catalog = Catalog((record,))
    return catalog, evaluate_catalog(catalog)


def test_thermal_floor_well_below_measurement_gets_a_marker():
    catalog, results = _thermal_catalog()
    (point,) = build_figure_points(catalog, results, k=1)
    result = results["Hot Probe"]
    assert not result.thermally_limited
    assert result.show_thermal_marker
    assert point.thermal_fom == result.thermal_fom
    assert point.thermal_fom < point.fom / 4


# ----------------------------------------------------------------- emit_figure

def _local(tag):
    return tag.rsplit("}", 1)[-1]


def _svg_elements(svg_text, name):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if _local(el.tag) == name]


def _dat_marker_lines(dat_text):
    return [line.split() for line in dat_text.splitlines()
            if line and not line.startswith("#")]


def test_figure_svg_is_wellformed_xml(ranked, results):
    svg, dat = emit_figure(build_figure_points(ranked, results, k=3))
    root = ET.fromstring(svg)
    assert _local(root.tag) == "svg"
    assert root.get("viewBox") == "0 0 1080 620"


def test_figure_markers_match_data_lines(ranked, results):
    svg, dat = emit_figure(build_figure_points(ranked, results, k=3))
    circles = [c for c in _svg_elements(svg, "circle")
               if c.get("class") == "point"]
    lines = _dat_marker_lines(dat)
    assert len(circles) == 29
    assert len(lines) == 29
    assert dat.splitlines()[0] == "# name category mass fom marker"
    for fields in lines:
        assert len(fields) == 5
        assert " " not in fields[0]
        assert fields[4] in ("circle", "circle-open")
    names = {fields[0] for fields in lines}
    assert "Asenbaum_'17" in names
    assert "Gisler_'22" in names
    open_named = {f[0] for f in lines if f[4] == "circle-open"}
    assert open_named == {"Armano_'18", "Asenbaum_'17",
                          "Biedermann_'15", "Hamilton_'15"}


def test_figure_points_carry_metadata(ranked, results):
    svg, _ = emit_figure(build_figure_points(ranked, results, k=3))
    circles = [c for c in _svg_elements(svg, "circle")
               if c.get("class") == "point"]
    by_name = {c.get("data-name"): c for c in circles}
    probe = by_name["Asenbaum '17"]
    assert probe.get("data-category") == "atom-interferometry"
    assert probe.get("data-marker") == "circle-open"
    assert probe.get("fill") == "none"
    filled = by_name["Gisler '22"]
    assert filled.get("data-marker") == "circle"
    assert filled.get("fill") not in (None, "none")


def test_figure_bands_encode_reach_thresholds(ranked, results):
    svg, _ = emit_figure(build_figure_points(ranked, results, k=3))
    bands = [r for r in _svg_elements(svg, "rect") if r.get("class") == "band"]
    assert {b.get("data-model") for b in bands} == {
        "ultra-local-discrete", "non-local-continuous"
    }
    thresholds = {b.get("data-model"): b.get("data-fom-threshold")
                  for b in bands}
    assert thresholds["ultra-local-discrete"] == "2.98e-10"
    assert thresholds["non-local-continuous"] == "2.98e-12"
    for band in bands:
        threshold = float(band.get("data-fom-threshold"))
        frac = (math.log10(threshold) + 12) / 27
        expected_y = 560.0 - frac * 530.0
        assert abs(float(band.get("y")) - expected_y) < 0.5
        assert abs(float(band.get("y")) + float(band.get("height")) - 560.0) < 0.01


def test_figure_renders_thermal_diamond():
    catalog, results = _thermal_catalog()
    svg, dat = emit_figure(build_figure_points(catalog, results, k=1))
    paths = [p for p in _svg_elements(svg, "path")
             if p.get("class") == "thermal-point"]
    assert len(paths) == 1
    assert paths[0].get("data-marker") == "diamond"
    lines = _dat_marker_lines(dat)
    assert [f[4] for f in lines] == ["circle", "diamond"]
    assert lines[0][0] == lines[1][0] == "Hot_Probe"
    assert float(lines[1][3]) < float(lines[0][3])


def test_figure_single_point_is_valid():
    point = FigurePoint(name="solo", category="membrane",
                        mass_kg=1e-9, fom=1.0, marker="circle")
    svg, dat = emit_figure((point,))
    ET.fromstring(svg)
    assert len(_dat_marker_lines(dat)) == 1


def test_figure_data_names_never_split_a_line():
    # A '#' would end the line for readers such as numpy.loadtxt.
    names = ["tab\there", "line\nbreak", "crlf\r\nname", "wide\u3000space",
             "#1 best", "X #2"]
    points = tuple(
        FigurePoint(name=name, category="membrane", mass_kg=1e-9, fom=1.0,
                    marker="circle", thermal_fom=0.5)
        for name in names
    )
    _, dat = emit_figure(points)
    lines = dat.splitlines()[1:]
    assert len(lines) == 2 * len(names)
    assert all(len(line.split()) == 5 and "#" not in line for line in lines)
    assert [line.split()[0] for line in lines[::2]] == [
        "tab_here", "line_break", "crlf__name", "wide_space", "_1_best", "X__2"]


@given(st.text(st.characters(exclude_categories=()), min_size=1))
@example("X\x01Y")
@example("&<>\"'\t\r\n\U0001f52d")
def test_figure_svg_parses_for_every_name_a_record_accepts(name):
    try:
        record = _edge_record(name=name)
    except CatalogError:
        return
    point = FigurePoint(name=record.name, category=record.category,
                        mass_kg=record.mass_kg, fom=1.0, marker="circle",
                        thermal_fom=0.5)
    svg, _ = emit_figure((point,))
    ET.fromstring(svg)


def test_figure_of_an_empty_selection_is_the_default_frame():
    svg, dat = emit_figure(())
    assert dat == "# name category mass fom marker\n"
    root = ET.fromstring(svg)
    assert len([e for e in root.iter() if e.get("class") == "band"]) == 2
    # A point inside the default frame adds its marker and its legend
    # entry, and nothing else.
    point = FigurePoint(name="solo", category="membrane",
                        mass_kg=1e-9, fom=1.0, marker="circle")
    framed, _ = emit_figure((point,))
    assert svg.splitlines() == [
        line for line in framed.splitlines()
        if "<circle" not in line and ">membrane</text>" not in line]


def _edge_record(**fields):
    base = dict(name="Edge", year=2024, reference="synthetic", category="massive",
                material=parse_material("Pb"), mass_kg=1.0, sqrt_sf=1e-9)
    return ExperimentRecord(**{**base, **fields})


# Records whose markers fall outside the default 1e-27..1e3 kg by
# 1e-12..1e15 frame; the last one's thermal diamond sits near 1e-13.
OFF_FRAME = {
    "mass-1e5-kg": dict(mass_kg=1e5),
    "mass-1e-30-kg": dict(mass_kg=1e-30, n_override=1.0, sqrt_sf=None, sqrt_sa=1.0),
    "fom-1e20": dict(mass_kg=1e-9, n_override=1e20, sqrt_sf=None, sqrt_sa=1.0),
    "thermal-below-1e-12": dict(category="membrane", material=parse_material("Si3N4"),
                                mass_kg=1e-9, f0_hz=1.0, sqrt_sf=1e-18,
                                temp_k=1e-3, quality=1e14),
}


@pytest.mark.parametrize("fields", OFF_FRAME.values(), ids=list(OFF_FRAME))
def test_figure_frame_widens_to_hold_every_marker(fields):
    catalog = Catalog((_edge_record(**fields),))
    results = evaluate_catalog(catalog)
    svg, _ = emit_figure(build_figure_points(catalog, results, k=1))
    centres = [(float(c.get("cx")), float(c.get("cy")))
               for c in _svg_elements(svg, "circle") if c.get("class") == "point"]
    for path in _svg_elements(svg, "path"):
        if path.get("class") == "thermal-point":
            # d is 'M x y-6 L x+6 y L x y+6 L x-6 y Z'
            vertices = [float(t) for t in path.get("d").split()
                        if t not in ("M", "L", "Z")]
            centres.append((sum(vertices[0::2]) / 4, sum(vertices[1::2]) / 4))
    assert len(centres) == (2 if "temp_k" in fields else 1)
    if "temp_k" in fields:
        assert results["Edge"].thermal_fom < 1e-12
    for x, y in centres:
        assert 80.0 <= x <= 820.0 and 30.0 <= y <= 560.0


def test_widened_frame_keeps_its_axis_labels_apart():
    catalog = Catalog((_edge_record(mass_kg=1e-300, n_override=1.0,
                                    sqrt_sf=None, sqrt_sa=1.0),))
    results = evaluate_catalog(catalog)
    svg, _ = emit_figure(build_figure_points(catalog, results, k=1))
    texts = [t for t in _svg_elements(svg, "text") if t.text.startswith("1e")]
    x_labels = [t for t in texts if t.get("text-anchor") == "middle"]
    y_labels = [t for t in texts if t.get("text-anchor") == "end"]
    assert x_labels[0].text == "1e-300" and x_labels[-1].text == "1e0"
    assert 2 <= len(x_labels) <= 12 and 2 <= len(y_labels) <= 12
    xs = [float(t.get("x")) for t in x_labels]
    assert min(b - a for a, b in zip(xs, xs[1:])) > 40.0
    assert len(_svg_elements(svg, "line")) <= 2 * 34


def _reference_figure_points(catalog, results, k):
    """The selection as it was before rank became the only sort: each
    category sorted by (fom, name), its first k taken, then merged."""
    def order(record):
        return (results[record.name].fom, record.name)

    by_category = {}
    for record in catalog:
        by_category.setdefault(record.category, []).append(record)
    chosen = []
    for records in by_category.values():
        chosen.extend(sorted(records, key=order)[:k])
    chosen.sort(key=order)
    return tuple(
        FigurePoint(
            name=r.name, category=r.category, mass_kg=r.mass_kg,
            fom=results[r.name].fom,
            marker="circle-open" if r.mode == "differential" else "circle",
            thermal_fom=(results[r.name].thermal_fom
                         if results[r.name].show_thermal_marker else None),
        )
        for r in chosen
    )


@st.composite
def _tied_catalogs(draw):
    """Catalogs over 1-10 categories whose FOMs repeat, so ties fall to names."""
    categories = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1,
                               max_size=10, unique=True))
    names = draw(st.lists(st.text(alphabet="ab _", min_size=1, max_size=3),
                          min_size=1, max_size=30, unique=True))
    material = parse_material("Si3N4")
    records, results = [], {}
    for name in names:
        records.append(ExperimentRecord(
            name=name, year=2024, reference="synthetic",
            category=draw(st.sampled_from(categories)), material=material,
            mass_kg=draw(st.sampled_from((1e-20, 1e-9, 1.0))), sqrt_sf=1e-15,
            mode=draw(st.sampled_from(("absolute", "differential"))),
        ))
        thermal = draw(st.sampled_from((None, 1e-6)))
        results[name] = FomResult(
            n_nuclei=1.0, sqrt_sf=1.0, sqrt_sa=1.0,
            fom=draw(st.sampled_from((1e-3, 1.0, 1e3))),
            thermal_fom=thermal, show_thermal_marker=thermal is not None,
        )
    return Catalog(tuple(records)), results


@given(_tied_catalogs(), st.integers(min_value=1, max_value=5))
def test_one_pass_selection_matches_sort_take_merge(generated, k):
    catalog, results = generated
    points = build_figure_points(rank(catalog, results), results, k)
    expected = _reference_figure_points(catalog, results, k)
    assert points == expected
    assert emit_figure(points) == emit_figure(expected)


# --------------------------------------------------------- emit_bounds_summary

def _summary_map(text):
    entries = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        entries[key] = value
    return entries


def test_summary_lines_are_key_value(catalog, results):
    text = emit_bounds_summary(catalog, results)
    for line in text.splitlines():
        assert ": " in line
        key = line.split(": ", 1)[0]
        assert key == key.strip() and " " not in key


def test_summary_default_content(catalog, results):
    entries = _summary_map(emit_bounds_summary(catalog, results))
    assert entries["records"] == "46"
    assert entries["filter"] == "all"
    assert entries["baseline_record"] == "Cavendish 1798"
    assert entries["baseline_fom"] == "1.00e14"
    assert entries["conservative_record"] == "Gisler '22"
    assert entries["conservative_fom"] == "2.98e-1"
    assert entries["conservative_orders_vs_baseline"] == "14.5"
    assert entries["best_record"] == "Asenbaum '17"
    assert entries["best_fom"] == "2.45e-11"
    assert entries["best_orders_vs_baseline"] == "24.6"


def test_summary_bounds_are_consistent_at_table_precision(catalog, results):
    entries = _summary_map(emit_bounds_summary(catalog, results))
    assert entries["ultra-local-discrete.lower_bound"] == "1.00e-25"
    assert entries["ultra-local-discrete.conservative_bound"] == "1.00e-16"
    assert entries["non-local-continuous.lower_bound"] == "1.00e-35"
    assert entries["non-local-continuous.conservative_bound"] == "1.00e-24"
    assert entries["ultra-local-discrete.conservative_si_bound"] == "4.00e-14"
    assert entries["non-local-continuous.conservative_si_bound"] == "6.69e-26"
    assert entries["ultra-local-discrete.best_bound"] == "8.22e-27"
    assert entries["non-local-continuous.best_bound"] == "8.22e-35"
    assert entries["ultra-local-discrete.best_below_lower_bound"] == "true"
    assert entries["non-local-continuous.best_below_lower_bound"] == "false"


def test_summary_honours_filter(catalog, results):
    entries = _summary_map(
        emit_bounds_summary(catalog, results, which="absolute-on-earth"))
    assert entries["filter"] == "absolute-on-earth"
    assert entries["best_record"] == "Gisler '22"
    assert entries["best_fom"] == entries["conservative_fom"]
    assert (entries["ultra-local-discrete.best_bound"]
            == entries["ultra-local-discrete.conservative_bound"])


def test_summary_baseline_only_catalog(catalog):
    by_name = {r.name: r for r in catalog}
    solo = Catalog((by_name["Cavendish 1798"],))
    solo_results = evaluate_catalog(solo)
    entries = _summary_map(emit_bounds_summary(solo, solo_results))
    assert entries["records"] == "1"
    assert entries["conservative_record"] == "Cavendish 1798"
    assert entries["best_record"] == "Cavendish 1798"
    assert entries["best_orders_vs_baseline"] == "0.0"
    assert entries["conservative_orders_vs_baseline"] == "0.0"


def test_orders_vs_baseline_agree_with_the_printed_foms():
    # The baseline FOM 2.81838e14 prints as 2.82e14, and log10(2.82e14 / 1)
    # rounds to 14.5; from the unrounded FOM it rounds to 14.4.
    def record(name, n_override, sqrt_sa):
        return ExperimentRecord(
            name=name, year=2021, reference="synthetic", category="massive",
            material=parse_material("Pb"), mass_kg=1.0, n_override=n_override,
            sqrt_sa=sqrt_sa,
        )

    catalog = Catalog((record("Cavendish 1798", 1e26, math.sqrt(2.81838e14 / 1e26)),
                       record("Best", 1.0, 1.0)))
    entries = _summary_map(emit_bounds_summary(catalog, evaluate_catalog(catalog)))
    assert (entries["baseline_fom"], entries["best_fom"]) == ("2.82e14", "1.00e0")
    for label in ("conservative", "best"):
        printed = math.log10(float(entries["baseline_fom"])
                             / float(entries[f"{label}_fom"]))
        assert entries[f"{label}_orders_vs_baseline"] == f"{printed:.1f}" == "14.5"


def test_summary_without_any_absolute_earth_record(catalog):
    differential = Catalog(tuple(
        r for r in catalog if r.mode == "differential"))
    partial = evaluate_catalog(differential)
    entries = _summary_map(emit_bounds_summary(differential, partial))
    assert entries["conservative_record"] == "-"
    assert entries["baseline_record"] == "-"
    assert "ultra-local-discrete.conservative_bound" not in entries
    assert "ultra-local-discrete.best_bound" in entries
    empty = _summary_map(emit_bounds_summary(differential, partial,
                                             which="absolute-on-earth"))
    assert empty["conservative_record"] == empty["best_record"] == "-"
    assert list(empty) == [
        "records", "filter", "baseline_record", "baseline_fom",
        "conservative_record", "best_record",
        "ultra-local-discrete.lower_bound", "non-local-continuous.lower_bound"]


def test_table_keeps_both_spellings_of_zero_noise():
    def record(name):
        return ExperimentRecord(
            name=name, year=2024, reference="synthetic", category="membrane",
            material=parse_material("Si3N4"), mass_kg=1e-9, sqrt_sf=1e-15,
        )

    # A record's noise density must be > 0, so the zeros enter as results.
    catalog = Catalog((record("Plus"), record("Minus")))
    results = {name: FomResult(n_nuclei=1.0, sqrt_sf=zero, sqrt_sa=zero, fom=zero)
               for name, zero in (("Plus", 0.0), ("Minus", -0.0))}
    rows = {row[0]: row for row in _table_rows(catalog, results)[1:]}
    assert rows["Plus"][6:8] == ["0.00e0", "0.00e0"]
    assert rows["Minus"][6:8] == ["-0.00e0", "-0.00e0"]


_EMBEDDED = embedded_catalog()
_EMBEDDED_RESULTS = evaluate_catalog(_EMBEDDED)


@st.composite
def _summarised_catalogs(draw):
    """A catalog and its results: some of the embedded records in any
    order, with the results of all 46, or a catalog whose FOMs tie."""
    if draw(st.booleans()):
        return draw(_tied_catalogs())
    picked = draw(st.lists(st.sampled_from(_EMBEDDED), unique_by=lambda r: r.name))
    return Catalog(tuple(picked)), _EMBEDDED_RESULTS


@given(_summarised_catalogs())
def test_bounds_summary_names_the_first_ranked_records(generated):
    catalog, results = generated

    def first(which):
        ranked = rank(catalog, results, which)
        return ranked[0].name if ranked else "-"

    for which in ("all", "absolute-on-earth"):
        entries = _summary_map(emit_bounds_summary(catalog, results, which=which))
        assert entries["conservative_record"] == first("absolute-on-earth")
        assert entries["best_record"] == first(which)


class _CountedResults(Mapping):
    def __init__(self, results):
        self.results, self.reads = results, Counter()

    def __getitem__(self, name):
        self.reads[name] += 1
        return self.results[name]

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)


@pytest.mark.parametrize("which", ["all", "absolute-on-earth"])
def test_bounds_summary_reads_each_result_of_its_catalog_once(catalog, results, which):
    # Results for all 46 records, a catalog of the 45 without Cavendish 1798.
    without = Catalog(tuple(r for r in catalog if r.name != "Cavendish 1798"))
    counted = _CountedResults(results)
    expected = emit_bounds_summary(without, dict(results), which=which)
    assert emit_bounds_summary(without, counted, which=which) == expected
    assert counted.reads == Counter(r.name for r in without)
