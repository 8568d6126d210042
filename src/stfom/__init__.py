"""Force-noise figures of merit and spacetime-diffusion bounds.

The package evaluates precision force and acceleration experiments with
a single figure of merit, FOM = S_a * N (acceleration noise power
spectral density times the number of nuclei monitored), classifies their
thermal noise floors, and maps the best figures of merit onto the
dimensionless coupling bounds of two diffusion models.  It ships with a
reference catalog of 46 published experiments and a CLI that regenerates
the ranked table, the mass-versus-FOM figure, and the bounds summary.
"""

from .bounds import *
from .catalog import *
from .errors import *
from .fom import *
from .formula import *
from .quantities import *
from .report import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__, *catalog.__all__, *errors.__all__, *fom.__all__,
    *formula.__all__, *quantities.__all__, *report.__all__,
]
