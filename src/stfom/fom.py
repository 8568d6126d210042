"""Spacetime-diffusion figure of merit for force-noise experiments.

The figure of merit for an experiment monitoring N nuclei with an
acceleration noise power spectral density S_a is

    FOM = S_a * N        [m^2/s^3]

Equivalently, a time-averaged acceleration variance sigma_a^2 over an
averaging time dT gives FOM = sigma_a^2 * N * dT.  Lower is better: the
FOM is directly proportional to the smallest diffusion coefficient the
experiment could have detected.

Thermal support: a mechanical mode of mass m, angular frequency omega0
and quality factor Q at temperature T has the force noise floor

    S_F_th = 4 k_B T m omega0 / Q    [N^2/Hz]

and the corresponding thermal FOM is 4 N k_B T omega0 / (m Q).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import NegativeInputError, NonPositiveError, OutOfRangeError
from .formula import nuclei_count
from .quantities import BOLTZMANN, Constants

if TYPE_CHECKING:
    from .catalog import ExperimentRecord

# Measured and thermal amplitudes within a factor of two of each other
# are treated as thermally limited; beyond that the thermal floor gets
# its own marker.  The two rules share one constant so they partition
# the amplitude ratio axis exactly.
_THERMAL_AMPLITUDE_FACTOR = 2.0

# Relative disagreement between a quoted acceleration density and the one
# recomputed from the quoted force density that triggers a warning.
_ASD_CONSISTENCY_TOL = 0.02


def accel_asd_from_force(sqrt_sf: float, mass_kg: float) -> float:
    """Acceleration ASD (m s^-2/sqrt(Hz)) from force ASD (N/sqrt(Hz))."""
    if mass_kg <= 0.0:
        raise NonPositiveError("mass_kg", mass_kg)
    if sqrt_sf < 0.0:
        raise NegativeInputError("sqrt_sf", sqrt_sf)
    return sqrt_sf / mass_kg

def force_asd_from_accel(sqrt_sa: float, mass_kg: float) -> float:
    """Force ASD (N/sqrt(Hz)) from acceleration ASD (m s^-2/sqrt(Hz))."""
    if mass_kg <= 0.0:
        raise NonPositiveError("mass_kg", mass_kg)
    if sqrt_sa < 0.0:
        raise NegativeInputError("sqrt_sa", sqrt_sa)
    return sqrt_sa * mass_kg

def fom_from_psd(s_a: float, n_nuclei: float) -> float:
    """Figure of merit from an acceleration noise PSD and a nucleus count."""
    if s_a < 0.0:
        raise NegativeInputError("s_a", s_a)
    if n_nuclei < 0.0:
        raise NegativeInputError("n_nuclei", n_nuclei)
    return s_a * n_nuclei

def _check_thermal_inputs(
    temp_k: float, mass_kg: float, omega0: float, quality: float
) -> None:
    """The input checks shared by thermal_force_psd and thermal_fom."""
    if temp_k < 0.0:
        raise NegativeInputError("temp_k", temp_k)
    if mass_kg <= 0.0:
        raise NonPositiveError("mass_kg", mass_kg)
    if omega0 <= 0.0:
        raise NonPositiveError("omega0", omega0)
    if quality <= 0.0:
        raise NonPositiveError("quality", quality)

def thermal_force_psd(
    temp_k: float,
    mass_kg: float,
    omega0: float,
    quality: float,
    k_b: float = BOLTZMANN,
) -> float:
    """Thermal force noise floor 4 k_B T m omega0 / Q in N^2/Hz.

    Parameters
    ----------
    temp_k : float
        Mode temperature in kelvin.
    mass_kg : float
        Effective mode mass in kg.
    omega0 : float
        Angular resonance frequency in rad/s.
    quality : float
        Mechanical quality factor, dimensionless.
    """
    _check_thermal_inputs(temp_k, mass_kg, omega0, quality)
    return 4.0 * k_b * temp_k * mass_kg * omega0 / quality

def thermal_fom(
    n_nuclei: float,
    temp_k: float,
    omega0: float,
    mass_kg: float,
    quality: float,
    k_b: float = BOLTZMANN,
) -> float:
    """Figure of merit of a measurement at the thermal force noise floor.

    Equals fom_from_psd(thermal_force_psd(...) / mass^2, n_nuclei); the
    mass enters inversely because the floor is a force noise.
    """
    if n_nuclei < 0.0:
        raise NegativeInputError("n_nuclei", n_nuclei)
    _check_thermal_inputs(temp_k, mass_kg, omega0, quality)
    return 4.0 * n_nuclei * k_b * temp_k * omega0 / (mass_kg * quality)

def classify_thermal(
    measured_sqrt_sf: float, thermal_sqrt_sf: float
) -> tuple[bool, bool]:
    """Compare a measured force ASD against the thermal floor.

    Returns (thermally_limited, show_thermal_marker).  The measurement is
    thermally limited when the floor amplitude exceeds half the measured
    amplitude; a separate thermal marker is warranted exactly otherwise,
    when the measured amplitude is at least twice the floor.
    """
    if measured_sqrt_sf < 0.0:
        raise NegativeInputError("measured_sqrt_sf", measured_sqrt_sf)
    if thermal_sqrt_sf < 0.0:
        raise NegativeInputError("thermal_sqrt_sf", thermal_sqrt_sf)
    limited = thermal_sqrt_sf > measured_sqrt_sf / _THERMAL_AMPLITUDE_FACTOR
    marker = measured_sqrt_sf >= _THERMAL_AMPLITUDE_FACTOR * thermal_sqrt_sf
    return limited, marker


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
    constants: Constants | None = None,
) -> FomResult:
    """Compute the figure of merit and thermal context for one record.

    The quoted force density is authoritative when both densities are
    present; the acceleration density is recomputed from it and a warning
    is attached if the quoted one disagrees by more than 2%.  A measured
    noise below the thermal floor is physically suspect, so it is flagged
    with a warning rather than rejected.  A nucleus count, density, FOM or
    thermal floor that is not a finite float > 0 raises OutOfRangeError.

    The arithmetic is that of accel_asd_from_force, force_asd_from_accel,
    fom_from_psd, angular_frequency, thermal_force_psd, thermal_fom and
    classify_thermal, in the same operation order, so every float is the
    same; their sign checks are left out because a record's own check
    already refuses what they would.
    """
    if constants is None:
        constants = Constants()
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
    # 1e300 kg mass; validation cannot see it without the material.  A fom
    # in range needs a nucleus count and an acceleration density in range,
    # so two comparisons cover all four values.
    if not (0.0 < fom < math.inf and 0.0 < sqrt_sf < math.inf):
        _raise_first_out_of_range(name, (
            ("n_nuclei", n_nuclei), ("sqrt_sf", sqrt_sf),
            ("sqrt_sa", sqrt_sa), ("fom", fom)))

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
        thermal_fom_value = (4.0 * n_nuclei * k_b * temp_k * omega0
                             / (mass_kg * quality))
        # A tiny positive temperature can still underflow the floor to 0.
        if not (0.0 < thermal_sqrt_sf < math.inf
                and 0.0 < thermal_fom_value < math.inf):
            _raise_first_out_of_range(name, (
                ("thermal_sqrt_sf", thermal_sqrt_sf),
                ("thermal_fom", thermal_fom_value)))
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


def _raise_first_out_of_range(record: str, values) -> None:
    """Raise OutOfRangeError for the first (name, value) that is not a
    finite float > 0."""
    for name, value in values:
        if not 0.0 < value < math.inf:
            raise OutOfRangeError(record, name, value)


def evaluate_catalog(catalog, constants=None) -> dict[str, FomResult]:
    """Evaluate every record; returns a name -> FomResult mapping."""
    if constants is None:
        constants = Constants()
    return {record.name: evaluate_record(record, constants) for record in catalog}
