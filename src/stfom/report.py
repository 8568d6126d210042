"""Rendering: ranked CSV table, log-log SVG figure, bounds summary text.

Every number is written in plain scientific notation with 3 significant
figures ('2.98e-1', no exponent padding): format_sig() formats one value,
and emit_table formats a row's six numbers with one '%' template with the
same result.  Both spell exponents through one helper.  The formatter is
idempotent: parsing an emitted cell and reformatting it reproduces the
identical string.  emit_table and the command line form each row of
table.csv through one private formatter, and emit_bounds_summary and the
command line fold their records through one private tally, whose summary
is the bounds text.  Everything here is deterministic, so identical
inputs yield byte-identical outputs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from . import _EXPORTS
from .bounds import (
    CAVENDISH_FOM,
    DEFAULT_ANCHORS,
    ModelId,
    anchored_bound,
    fom_threshold,
    orders_of_improvement,
    si_bound,
)
from .catalog import (
    CATEGORIES,
    Catalog,
    ExperimentRecord,
    RecordFilter,
    _FIGURE_K,
    _csv_cell,
    _keeps_all,
    _on_earth,
    select_for_figure,
)
from .formula import _WHITESPACE_RE, format_material
from .quantities import _DEFAULT_CONSTANTS, Constants

if TYPE_CHECKING:
    from .fom import FomResult

__all__ = list(_EXPORTS["report"])


def format_sig(x: float, sig: int = 3) -> str:
    """Scientific notation with sig significant figures.

    The mantissa rounds half to even; the exponent is written as a bare
    integer ('2.79e11', '2.98e-1').  A non-finite x raises ValueError.
    """
    text = f"{x:.{sig - 1}e}"
    if "e" not in text:  # 'inf', '-inf' or 'nan'
        raise ValueError(f"cannot format {x!r} in scientific notation")
    return _bare_exponents(text)


def _bare_exponents(text: str) -> str:
    """text with every exponent Python's 'e' format writes ('e+05',
    'e-05', 'e+100') spelt as a bare integer ('e5', 'e-5', 'e100')."""
    # The exponent always has a sign and at least two digits.
    return text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


TABLE_HEADER = ("reference", "type", "element", "m", "N", "f0",
                "sqrt_sf", "sqrt_sa", "fom")
_TABLE_HEADER_LINE = ",".join(TABLE_HEADER) + "\n"

# A row's six numbers, each with format_sig()'s default 3 figures ('.2e'),
# and the same without f0 for a record that has none.
_NUMBERS = "%.2e,%.2e,%.2e,%.2e,%.2e,%.2e"
_NUMBERS_NO_F0 = "%.2e,%.2e,,%.2e,%.2e,%.2e"


def emit_table(
    ranked: Iterable[ExperimentRecord],
    results: Mapping[str, FomResult],
) -> str:
    """CSV text of every record's inputs and derived values, one row per
    record in the order given; pass rank()'s list for best FOM first.  A
    number that is not finite raises ValueError, as format_sig() does."""
    return _TABLE_HEADER_LINE + "".join(
        [_table_row(record, results[record.name]) for record in ranked])


def _table_row(record: ExperimentRecord, result: FomResult) -> str:
    """One record's line of table.csv, its "\\n" included.  Only the name
    can need quoting."""
    f0_hz = record.f0_hz
    if f0_hz is None:
        numbers = _NUMBERS_NO_F0 % (record.mass_kg, result.n_nuclei,
                                    result.sqrt_sf, result.sqrt_sa, result.fom)
    else:
        numbers = _NUMBERS % (record.mass_kg, result.n_nuclei, f0_hz,
                              result.sqrt_sf, result.sqrt_sa, result.fom)
    if "n" in numbers:  # only 'inf', '-inf' and 'nan' hold an 'n'
        raise ValueError(
            f"{record.name}: cannot format {numbers!r} in scientific notation")
    return (f"{_csv_cell(record.name)},{record.category},"
            f"{format_material(record.material)},{_bare_exponents(numbers)}\n")


class FigurePoint(NamedTuple):
    """One record prepared for plotting."""

    name: str
    category: str
    mass_kg: float
    fom: float
    marker: str  # "circle" or "circle-open"
    thermal_fom: float | None = None


def build_figure_points(
    ranked: Iterable[ExperimentRecord],
    results: Mapping[str, FomResult],
    k: int = _FIGURE_K,
) -> tuple[FigurePoint, ...]:
    """Points for the first k records of each category, in the order given.

    Given rank()'s list, these are the k best of each category, ranked.
    Differential measurements get open markers.  A thermal diamond
    accompanies a point only when the record is not thermally limited, so
    the floor is genuinely a separate feature.
    """
    points = []
    for record in select_for_figure(ranked, k):
        result = results[record.name]
        points.append(FigurePoint(
            name=record.name,
            category=record.category,
            mass_kg=record.mass_kg,
            fom=result.fom,
            marker="circle-open" if record.mode == "differential" else "circle",
            thermal_fom=None if result.thermally_limited else result.thermal_fom,
        ))
    return tuple(points)


# Log-log frame: mass from 1e-27 to 1e3 kg, FOM from 1e-12 to 1e15, widened
# by whole decades when a marker falls outside.
_X_LOG_MIN, _X_LOG_MAX = -27, 3
_Y_LOG_MIN, _Y_LOG_MAX = -12, 15
_VIEW_W, _VIEW_H = 1080, 620
_PLOT_LEFT, _PLOT_RIGHT = 80.0, 820.0
_PLOT_TOP, _PLOT_BOTTOM = 30.0, 560.0

# One marker colour per category, in CATEGORIES order.
CATEGORY_COLORS: Mapping[str, str] = dict(zip(CATEGORIES, (
    "#e377c2", "#17becf", "#1f77b4", "#ff7f0e", "#2ca02c",
    "#d62728", "#7f7f7f", "#bcbd22", "#9467bd", "#8c564b",
), strict=True))


def _decades(values: list[float], lo: int, hi: int) -> tuple[int, int]:
    """The whole decades lo..hi, widened until they hold every value."""
    logs = [math.log10(v) for v in values]
    return (min(lo, math.floor(min(logs, default=lo))),
            max(hi, math.ceil(max(logs, default=hi))))


def _axis(log_value: float, lo: int, hi: int, start: float, end: float) -> float:
    """Position of a value, given as its log10, on a log axis whose decades
    lo..hi run start..end."""
    frac = (log_value - lo) / (hi - lo)
    return start + frac * (end - start)


def _escape(text: str) -> str:
    """XML character data; '&' goes first so no entity is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _attr(text: str) -> str:
    """A double-quoted XML attribute value.  "'" stays as it is; a tab is a
    reference, as a parser reads a literal one as a space."""
    return _escape(text).replace('"', "&quot;").replace("\t", "&#9;")


def emit_figure(points: tuple[FigurePoint, ...]) -> tuple[str, str]:
    """Render the points in the order given; returns (svg_text, data_text).

    Names are as a record accepts them, and each reads back from its
    markers' data-name; a line break in a hand-built point's name does not.
    The data text has a 'name category mass fom marker' line per marker,
    each whitespace character and '#' in a name as '_', so every line has
    five fields and only the header, which starts with '#', holds one.
    Shaded bands mark the FOM ranges that would probe each model below its
    current lower bound; each band rect carries its threshold in a data
    attribute.  No points give the default frame, with its bands and grid,
    no marker or legend entry, and a data text of its header line only.
    """
    x_lo, x_hi = _decades([p.mass_kg for p in points], _X_LOG_MIN, _X_LOG_MAX)
    y_lo, y_hi = _decades(
        [p.fom for p in points]
        + [p.thermal_fom for p in points if p.thermal_fom is not None],
        _Y_LOG_MIN, _Y_LOG_MAX,
    )

    def px(mass_kg: float) -> float:
        return _axis(math.log10(mass_kg), x_lo, x_hi, _PLOT_LEFT, _PLOT_RIGHT)

    def py(fom: float) -> float:
        return _axis(math.log10(fom), y_lo, y_hi, _PLOT_BOTTOM, _PLOT_TOP)

    svg: list[str] = []
    svg.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="12">'
    )
    svg.append(f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>')

    # Shaded bands from the bottom of the frame up to each model's
    # current reach; the wider (discrete) band goes underneath.
    for model, color in zip(ModelId, ("#c8d8e8", "#9fb8cf"), strict=True):
        anchor = DEFAULT_ANCHORS[model]
        threshold = fom_threshold(anchor.lower_bound, anchor)
        top = min(max(py(threshold), _PLOT_TOP), _PLOT_BOTTOM)
        svg.append(
            f'<rect class="band" data-model="{model.value}" '
            f'data-fom-threshold="{format_sig(threshold)}" '
            f'x="{_PLOT_LEFT:.2f}" y="{top:.2f}" '
            f'width="{_PLOT_RIGHT - _PLOT_LEFT:.2f}" '
            f'height="{_PLOT_BOTTOM - top:.2f}" '
            f'fill="{color}" fill-opacity="0.55"/>'
        )

    # A grid line every g decades and a label on every 3rd line: g is 1 on
    # the default frame and grows on a widened one, so labels stay <= 12.
    # A line is placed by its decade, since 10.0 ** -324 is 0.
    x_grid = math.ceil((x_hi - x_lo) / 33)
    y_grid = math.ceil((y_hi - y_lo) / 33)
    for decade in range(x_lo + -x_lo % x_grid, x_hi + 1, x_grid):
        x = _axis(decade, x_lo, x_hi, _PLOT_LEFT, _PLOT_RIGHT)
        svg.append(
            f'<line x1="{x:.2f}" y1="{_PLOT_TOP:.2f}" '
            f'x2="{x:.2f}" y2="{_PLOT_BOTTOM:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        if decade % (3 * x_grid) == 0:
            svg.append(
                f'<text x="{x:.2f}" y="{_PLOT_BOTTOM + 16:.2f}" '
                f'text-anchor="middle">1e{decade}</text>'
            )
    for decade in range(y_lo + -y_lo % y_grid, y_hi + 1, y_grid):
        y = _axis(decade, y_lo, y_hi, _PLOT_BOTTOM, _PLOT_TOP)
        svg.append(
            f'<line x1="{_PLOT_LEFT:.2f}" y1="{y:.2f}" '
            f'x2="{_PLOT_RIGHT:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        if decade % (3 * y_grid) == 0:
            svg.append(
                f'<text x="{_PLOT_LEFT - 8:.2f}" y="{y + 4:.2f}" '
                f'text-anchor="end">1e{decade}</text>'
            )
    svg.append(
        f'<rect x="{_PLOT_LEFT:.2f}" y="{_PLOT_TOP:.2f}" '
        f'width="{_PLOT_RIGHT - _PLOT_LEFT:.2f}" '
        f'height="{_PLOT_BOTTOM - _PLOT_TOP:.2f}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    svg.append(
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.2f}" '
        f'y="{_PLOT_BOTTOM + 38:.2f}" text-anchor="middle">test mass [kg]</text>'
    )
    svg.append(
        f'<text x="22" y="{(_PLOT_TOP + _PLOT_BOTTOM) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 22 {(_PLOT_TOP + _PLOT_BOTTOM) / 2:.2f})">'
        f'figure of merit [m^2 s^-3]</text>'
    )

    data_lines = ["# name category mass fom marker"]
    for p in points:
        color = CATEGORY_COLORS[p.category]
        x, y = px(p.mass_kg), py(p.fom)
        if p.marker == "circle-open":
            paint = f'fill="none" stroke="{color}" stroke-width="2"'
        else:
            paint = f'fill="{color}"'
        svg.append(
            f'<circle class="point" data-name="{_attr(p.name)}" '
            f'data-category="{p.category}" data-marker="{p.marker}" '
            f'cx="{x:.2f}" cy="{y:.2f}" r="5" {paint}>'
            f'<title>{_escape(p.name)}: {format_sig(p.fom)}</title></circle>'
        )
        data_name = _WHITESPACE_RE.sub("_", p.name).replace("#", "_")
        data_fields = f"{data_name} {p.category} {format_sig(p.mass_kg)}"
        data_lines.append(f"{data_fields} {format_sig(p.fom)} {p.marker}")
        if p.thermal_fom is not None:
            ty = py(p.thermal_fom)
            svg.append(
                f'<path class="thermal-point" data-name="{_attr(p.name)}" '
                f'data-category="{p.category}" data-marker="diamond" '
                f'd="M {x:.2f} {ty - 6:.2f} L {x + 6:.2f} {ty:.2f} '
                f'L {x:.2f} {ty + 6:.2f} L {x - 6:.2f} {ty:.2f} Z" '
                f'fill="none" stroke="{color}" stroke-width="1.5">'
                f'<title>{_escape(p.name)} thermal floor: '
                f'{format_sig(p.thermal_fom)}</title></path>'
            )
            data_lines.append(
                f"{data_fields} {format_sig(p.thermal_fom)} diamond")

    legend_y = _PLOT_TOP + 10
    for category in CATEGORIES:
        if not any(p.category == category for p in points):
            continue
        color = CATEGORY_COLORS[category]
        svg.append(
            f'<circle cx="{_PLOT_RIGHT + 24:.2f}" cy="{legend_y:.2f}" r="5" '
            f'fill="{color}"/>'
        )
        svg.append(
            f'<text x="{_PLOT_RIGHT + 36:.2f}" y="{legend_y + 4:.2f}">'
            f'{category}</text>'
        )
        legend_y += 20

    svg.append("</svg>")
    return "\n".join(svg) + "\n", "\n".join(data_lines) + "\n"


def emit_bounds_summary(
    catalog: Catalog,
    results: Mapping[str, FomResult],
    constants: Constants = _DEFAULT_CONSTANTS,
    which: RecordFilter = "all",
) -> str:
    """Line-keyed 'key: value' summary of the bounds the catalog implies.

    The conservative entries always come from the best absolute
    measurement on Earth; the best entries honour the requested filter.
    When no record passes, the entry's record line reads '-' and its other
    lines are left out.  The baseline is the catalog's own Cavendish 1798
    record ('-' without one), and results is read only for the catalog's
    records, each once.  The baseline and every bound are computed from
    the table-precision (3 significant figure) figures of merit, so every
    printed line is consistent with the others at the precision shown.
    """
    tally = _Tally()
    for record in catalog:
        tally.add(record, results[record.name])
    return tally.summary(constants, which)


class _Tally:
    """What the bounds summary reads of the records: how many there are,
    the FOM of Cavendish 1798 and the least (fom, name) of all records and
    of those measured absolutely on Earth."""

    def __init__(self) -> None:
        self.count = 0
        self.baseline: float | None = None
        self.best: tuple[float, str] | None = None
        self.best_on_earth: tuple[float, str] | None = None

    def add(self, record: ExperimentRecord, result: FomResult) -> None:
        self.count += 1
        entry = (result.fom, record.name)
        if self.best is None or entry < self.best:
            self.best = entry
        if _on_earth(record) and (self.best_on_earth is None
                                  or entry < self.best_on_earth):
            self.best_on_earth = entry
        if record.name == "Cavendish 1798":
            self.baseline = result.fom

    def summary(self, constants: Constants, which: RecordFilter) -> str:
        """emit_bounds_summary's text for the records added so far."""
        best = self.best if _keeps_all(which) else self.best_on_earth
        baseline_name = "-" if self.baseline is None else "Cavendish 1798"
        baseline_fom = float(format_sig(
            CAVENDISH_FOM if self.baseline is None else self.baseline))

        lines = [
            f"records: {self.count}",
            f"filter: {which}",
            f"baseline_record: {baseline_name}",
            f"baseline_fom: {format_sig(baseline_fom)}",
        ]
        # (label, table-precision fom) of each entry that has a record.
        entries = []
        for label, entry in (("conservative", self.best_on_earth), ("best", best)):
            if entry is None:
                lines.append(f"{label}_record: -")
                continue
            fom = float(format_sig(entry[0]))
            entries.append((label, fom))
            # Rounded first, so a value that rounds to 0 prints 0.0, not -0.0.
            orders = round(orders_of_improvement(fom, baseline_fom), 1) + 0.0
            lines += [
                f"{label}_record: {entry[1]}",
                f"{label}_fom: {format_sig(fom)}",
                f"{label}_orders_vs_baseline: {orders:.1f}",
            ]

        for model in ModelId:
            anchor = DEFAULT_ANCHORS[model]
            key = model.value
            lines.append(f"{key}.lower_bound: {format_sig(anchor.lower_bound)}")
            for label, fom in entries:
                bound = anchored_bound(fom, anchor)
                lines += [
                    f"{key}.{label}_bound: {format_sig(bound)}",
                    f"{key}.{label}_si_bound: "
                    f"{format_sig(si_bound(model, fom, constants))}",
                ]
                if label == "best":
                    lines.append(f"{key}.best_below_lower_bound: "
                                 f"{'true' if bound < anchor.lower_bound else 'false'}")
        return "\n".join(lines) + "\n"
