"""Force-noise figures of merit and spacetime-diffusion bounds.

The package evaluates precision force and acceleration experiments with
a single figure of merit, FOM = S_a * N (acceleration noise power
spectral density times the number of nuclei monitored), classifies their
thermal noise floors, and maps the best figures of merit onto the
dimensionless coupling bounds of two diffusion models.  It ships with a
reference catalog of 46 published experiments and a CLI that regenerates
the ranked table, the mass-versus-FOM figure, and the bounds summary.

A public name loads its defining module on first use, so ``import stfom``
loads none of them; ``stfom.catalog`` and the other modules load the same
way.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names by defining module.  Each module reads its __all__
# from here, which is safe because this file imports no submodule.
_EXPORTS = {
    "bounds": (
        "ModelId", "BoundAnchor", "DEFAULT_ANCHORS", "CAVENDISH_FOM",
        "anchored_bound", "fom_threshold", "si_bound", "orders_of_improvement",
    ),
    "catalog": (
        "ExperimentRecord", "Catalog", "CATEGORIES", "CSV_HEADER", "parse_records",
        "embedded_catalog", "rank", "select_for_figure",
    ),
    "errors": (
        "Diagnostic", "StfomError", "FormulaError", "FilterError",
        "ConstantsError", "OutOfRangeError", "CatalogError",
    ),
    "export": ("QuotedValues", "serialize_records", "embedded_reference_values"),
    "fom": ("FomResult", "evaluate_record", "evaluate_catalog"),
    "formula": (
        "Formula", "MaterialSpec", "STANDARD_ATOMIC_WEIGHTS", "parse_formula",
        "parse_material", "format_material", "molar_mass", "nuclei_per_formula",
        "nuclei_count",
    ),
    "quantities": ("Constants", "DEFAULT_CONSTANTS_TEXT", "load_constants"),
    "report": (
        "FigurePoint", "format_sig", "emit_table", "build_figure_points",
        "emit_figure", "emit_bounds_summary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module and kept here; or a module."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
