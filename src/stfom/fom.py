"""Spacetime-diffusion figure of merit for force-noise experiments.

The figure of merit for an experiment monitoring N nuclei with an
acceleration noise power spectral density S_a is

    FOM = S_a * N        [m^2/s^3]

Equivalently, a time-averaged acceleration variance sigma_a^2 over an
averaging time dT gives FOM = sigma_a^2 * N * dT.  Lower is better: the
FOM is directly proportional to the smallest diffusion coefficient the
experiment could have detected.

Thermal support: a mechanical mode of mass m, resonance frequency f0
(omega0 = 2 pi f0) and quality factor Q at temperature T has the force
noise floor

    S_F_th = 4 k_B T m omega0 / Q    [N^2/Hz]

and a measurement at that floor has the thermal FOM
S_F_th / m^2 * N = 4 N k_B T omega0 / (m Q).

evaluate_record is the one place these formulas are computed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import _EXPORTS
from .errors import _PRINT_MAX, OutOfRangeError
from .formula import nuclei_count
from .quantities import _DEFAULT_CONSTANTS, Constants

if TYPE_CHECKING:
    from .catalog import ExperimentRecord

__all__ = list(_EXPORTS["fom"])

# Measured and thermal amplitudes within a factor of two of each other
# are treated as thermally limited; beyond that the thermal floor gets
# its own marker.  The two rules share one constant so they partition
# the amplitude ratio axis exactly.
_THERMAL_AMPLITUDE_FACTOR = 2.0

# Relative disagreement between a quoted acceleration density and the one
# recomputed from the quoted force density that triggers a warning.
_ASD_CONSISTENCY_TOL = 0.02


class FomResult(NamedTuple):
    """Derived quantities for one record.

    n_nuclei is the nucleus count actually used (override or material
    derived).  sqrt_sf and sqrt_sa are the mutually consistent force and
    acceleration amplitude densities; fom = sqrt_sa^2 * n_nuclei.  The
    thermal fields are None unless the record carries temperature,
    resonance frequency, and quality factor.
    """

    n_nuclei: float
    sqrt_sf: float
    sqrt_sa: float
    fom: float
    thermal_sqrt_sf: float | None = None
    thermal_fom: float | None = None
    thermally_limited: bool = False
    show_thermal_marker: bool = False
    warnings: tuple[str, ...] = ()


def evaluate_record(
    record: "ExperimentRecord",
    constants: Constants = _DEFAULT_CONSTANTS,
) -> FomResult:
    """Compute the figure of merit and thermal context for one record.

    The quoted force density is authoritative when both densities are
    present; the acceleration density is recomputed from it and a warning
    is attached if the quoted one disagrees by more than 2%.  A measured
    noise below the thermal floor is physically suspect, so it is flagged
    with a warning rather than rejected.  A nucleus count, density, FOM or
    thermal floor that is not a float > 0 and at most _PRINT_MAX, the
    largest number stfom prints, raises OutOfRangeError.

    The thermal floor amplitude is sqrt(4 k_B T m omega0 / Q).  The record
    is thermally limited when the floor exceeds half the measured force
    amplitude; a separate thermal marker is shown exactly otherwise.  No
    input is sign-checked here, because a record's own check already
    refuses a density, mass, temperature, frequency or quality <= 0.
    """
    name = record.name
    mass_kg = record.mass_kg
    warnings: tuple[str, ...] = ()

    n_nuclei = record.n_override
    if n_nuclei is None:
        n_nuclei = nuclei_count(mass_kg, record.material, constants.N_A)

    sqrt_sf = record.sqrt_sf
    quoted_sa = record.sqrt_sa
    if sqrt_sf is not None:
        sqrt_sa = sqrt_sf / mass_kg
        if quoted_sa is not None:
            drift = abs(sqrt_sa - quoted_sa) / quoted_sa
            if drift > _ASD_CONSISTENCY_TOL:
                warnings = (
                    f"{name}: quoted acceleration density disagrees with "
                    f"the force density by {drift:.1%}",
                )
    else:
        # A record always carries at least one density.
        sqrt_sa = quoted_sa
        sqrt_sf = sqrt_sa * mass_kg

    fom = sqrt_sa * sqrt_sa * n_nuclei
    # Valid inputs can still overflow, for example the nucleus count of a
    # 1e300 kg mass; validation cannot see it without the material.
    if not 0.0 < n_nuclei <= _PRINT_MAX:
        raise OutOfRangeError("n_nuclei", n_nuclei, record=name)
    if not 0.0 < sqrt_sf <= _PRINT_MAX:
        raise OutOfRangeError("sqrt_sf", sqrt_sf, record=name)
    if not 0.0 < sqrt_sa <= _PRINT_MAX:
        raise OutOfRangeError("sqrt_sa", sqrt_sa, record=name)
    if not 0.0 < fom <= _PRINT_MAX:
        raise OutOfRangeError("fom", fom, record=name)

    thermal_sqrt_sf = None
    thermal_fom_value = None
    limited = False
    marker = False
    temp_k = record.temp_k
    f0_hz = record.f0_hz
    quality = record.quality
    if temp_k is not None and f0_hz is not None and quality is not None:
        k_b = constants.k_B
        omega0 = 2.0 * math.pi * f0_hz
        thermal_sqrt_sf = math.sqrt(4.0 * k_b * temp_k * mass_kg * omega0 / quality)
        # Mass times quality can underflow to 0, and a tiny positive
        # temperature the floor; both are refused below.
        denominator = mass_kg * quality
        thermal_fom_value = (4.0 * n_nuclei * k_b * temp_k * omega0 / denominator
                             if denominator else math.inf)
        if not 0.0 < thermal_sqrt_sf <= _PRINT_MAX:
            raise OutOfRangeError("thermal_sqrt_sf", thermal_sqrt_sf, record=name)
        if not 0.0 < thermal_fom_value <= _PRINT_MAX:
            raise OutOfRangeError("thermal_fom", thermal_fom_value, record=name)
        limited = thermal_sqrt_sf > sqrt_sf / _THERMAL_AMPLITUDE_FACTOR
        marker = sqrt_sf >= _THERMAL_AMPLITUDE_FACTOR * thermal_sqrt_sf
        if sqrt_sf < thermal_sqrt_sf:
            warnings += (
                f"{name}: measured force noise is below the thermal floor",
            )

    return tuple.__new__(FomResult, (
        n_nuclei, sqrt_sf, sqrt_sa, fom, thermal_sqrt_sf, thermal_fom_value,
        limited, marker, warnings,
    ))


def evaluate_catalog(catalog, constants=_DEFAULT_CONSTANTS) -> dict[str, FomResult]:
    """Evaluate every record; returns a name -> FomResult mapping."""
    return {record.name: evaluate_record(record, constants) for record in catalog}
