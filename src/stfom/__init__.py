"""Force-noise figures of merit and spacetime-diffusion bounds.

The package evaluates precision force and acceleration experiments with
a single figure of merit, FOM = S_a * N (acceleration noise power
spectral density times the number of nuclei monitored), classifies their
thermal noise floors, and maps the best figures of merit onto the
dimensionless coupling bounds of two diffusion models.  It ships with a
reference catalog of 46 published experiments and a CLI that regenerates
the ranked table, the mass-versus-FOM figure, and the bounds summary.
"""

from .bounds import (
    CAVENDISH_FOM,
    DEFAULT_ANCHORS,
    BoundAnchor,
    ModelId,
    anchored_bound,
    fom_threshold,
    orders_of_improvement,
    si_bound,
)
from .catalog import (
    CATEGORIES,
    CSV_HEADER,
    Catalog,
    ExperimentRecord,
    QuotedValues,
    embedded_catalog,
    embedded_reference_values,
    parse_records,
    rank,
    select_for_figure,
    serialize_records,
)
from .errors import (
    CatalogError,
    ConstantsError,
    Diagnostic,
    FilterError,
    FormulaError,
    MaterialError,
    NegativeInputError,
    NonPositiveError,
    OutOfRangeError,
    ParseError,
    StfomError,
    UnknownConstantError,
    UnknownElementError,
)
from .fom import FomResult, evaluate_catalog, evaluate_record
from .formula import (
    STANDARD_ATOMIC_WEIGHTS,
    Formula,
    MaterialSpec,
    format_material,
    molar_mass,
    nuclei_count,
    nuclei_per_formula,
    parse_formula,
    parse_material,
)
from .quantities import (
    DEFAULT_CONSTANTS_TEXT,
    Constants,
    asd_to_psd,
    load_constants,
    psd_to_asd,
)
from .report import (
    FigurePoint,
    build_figure_points,
    emit_bounds_summary,
    emit_figure,
    emit_table,
    format_sig,
)

__version__ = "0.1.0"

__all__ = [
    "BoundAnchor", "CATEGORIES", "CAVENDISH_FOM", "CSV_HEADER", "Catalog",
    "CatalogError", "Constants", "ConstantsError", "DEFAULT_ANCHORS",
    "DEFAULT_CONSTANTS_TEXT", "Diagnostic", "ExperimentRecord",
    "FigurePoint", "FilterError", "FomResult", "Formula", "FormulaError",
    "MaterialError", "MaterialSpec", "ModelId", "NegativeInputError",
    "NonPositiveError", "OutOfRangeError", "ParseError", "QuotedValues",
    "STANDARD_ATOMIC_WEIGHTS", "StfomError", "UnknownConstantError",
    "UnknownElementError", "anchored_bound", "asd_to_psd",
    "build_figure_points", "embedded_catalog", "embedded_reference_values",
    "emit_bounds_summary", "emit_figure", "emit_table", "evaluate_catalog",
    "evaluate_record", "fom_threshold", "format_material", "format_sig",
    "load_constants", "molar_mass", "nuclei_count", "nuclei_per_formula",
    "orders_of_improvement", "parse_formula", "parse_material",
    "parse_records", "psd_to_asd", "rank", "select_for_figure",
    "serialize_records", "si_bound",
]
