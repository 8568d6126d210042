"""What no command runs: the records writer and the source-quoted values.

serialize_records writes a Catalog as the CSV text that parse_records
reads, and embedded_reference_values gives the nucleus counts and figures
of merit the sources quote for the embedded catalog, which the tests and
the benchmark check the pipeline against.  No module of the package
imports this one, and the command line reads neither: a command compiles
every module it imports when no bytecode cache is present, and that
compile sets its peak memory, so code that no command runs lives here,
apart from catalog.
"""

from __future__ import annotations

import io
from typing import NamedTuple

from . import _EXPORTS
from .catalog import CSV_HEADER, Catalog, _csv_cell
from .formula import format_material

__all__ = list(_EXPORTS["export"])


class QuotedValues(NamedTuple):
    """Derived values as quoted by the source, for regression checks."""

    n_nuclei: float
    fom: float


def _float_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def serialize_records(catalog: Catalog) -> str:
    """Render a Catalog as CSV text; inverse of parse_records.  Each line
    is written as it is built; only the free-text name, reference and
    notes can need quoting."""
    out = io.StringIO()
    write = out.write
    write(CSV_HEADER + "\n")
    for r in catalog:
        write(f"{_csv_cell(r.name)},{r.year},{_csv_cell(r.reference)},"
              f"{r.category},{format_material(r.material)},{r.mass_kg!r},"
              f"{_float_cell(r.n_override)},{_float_cell(r.f0_hz)},"
              f"{_float_cell(r.sqrt_sf)},{_float_cell(r.sqrt_sa)},"
              f"{_float_cell(r.temp_k)},{_float_cell(r.quality)},"
              f"{r.mode},{r.location},{'true' if r.secondhand else 'false'},"
              f"{_csv_cell(r.notes)}\n")
    return out.getvalue()


# The derived columns the sources print for each embedded record, one
# "name,N,FOM" line per record in catalog order: the nucleus count N and
# the figure of merit, spelled as the sources print them.
_QUOTED_VALUES = """\
Asenbaum '17,1.00e6,2.41e-11
Biedermann '15,1.00e8,1.70e-7
Armano '18,5.89e24,1.78e-5
Gisler '22,2.79e11,2.98e-1
Seis '22,4.51e14,8.46e-1
Martynov '16,1.20e27,1.85
Fogliano '21,4.82e11,3.01
Fuchs '24,3.79e18,5.92
Hamilton '15,2.00e7,6.93
Mamin '01,1.47e13,2.11e1
Timberlake '23,2.18e17,4.76e1
Liang '22,1.41e8,1.21e2
Maiwald '09,1.0,1.30e2
Norte '16,6.91e14,1.31e2
Monteiro '20,2.27e14,1.97e2
Kampel '17,3.00e14,2.89e2
Héritier '18,2.06e11,4.33e2
Tebbenjohanns '20,1.05e8,5.52e2
Tebbenjohanns '19,1.05e8,8.63e2
Lewandowski '21,8.26e15,1.03e3
Teufel '09,1.23e11,1.05e3
Cripe '19,4.16e14,1.60e3
Reinhardt '16,1.20e14,3.00e3
Gieseler '13,9.03e7,4.01e3
Delić '20,8.52e7,4.02e3
Corbitt '07,3.01e22,4.70e3
Westphal '21,6.66e20,1.15e4
Rider '18,4.62e12,2.60e4
Kawasaki '20,2.53e12,3.58e4
Hempston '17,2.29e7,4.06e4
De Bonis '18,4.32e5,1.08e5
Hälg '21,4.21e14,1.68e5
Priel '22,1.76e13,5.14e5
Moser '13,5.02e5,7.23e5
Weber '16,4.82e8,7.95e5
Ranjit '16,1.13e9,2.14e6
Krause '12,3.00e14,2.89e6
Nichol '12,5.72e8,3.07e6
Biercuk '10,1.30e2,5.22e6
Ranjit '15,1.13e12,3.78e7
Affolter '20,1.00e2,6.43e7
Timberlake '19,3.79e19,1.46e8
Guzmán C. '14,7.53e20,7.24e8
Shaniv '17,1.0,3.78e10
Blums '18,1.0,1.44e12
Cavendish 1798,1.00e26,1.00e14
"""


def embedded_reference_values() -> dict[str, QuotedValues]:
    """Source-quoted nucleus counts and figures of merit, by record name
    in catalog order.

    These are the derived columns the sources print; the catalog proper
    stores only inputs, so recomputing and comparing against these values
    checks the whole pipeline.
    """
    values = {}
    for line in _QUOTED_VALUES.splitlines():
        name, n_nuclei, fom = line.rsplit(",", 2)
        values[name] = QuotedValues(float(n_nuclei), float(fom))
    return values
