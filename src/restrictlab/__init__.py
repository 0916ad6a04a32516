"""restrictlab: desk-scale numerical experiments on Fourier restriction estimates.

Measures are discretized on a dyadic torus grid; convolution powers, decay
and regularity exponents, restriction-operator norms, and the inequality
chain behind the convolution-power restriction estimate are all computable
and checkable on concrete instances.
"""

from .measures import (
    DiscreteMeasure,
    cantor,
    circle,
    dirac,
    load_measure,
    mollify,
    random_flat,
    save_measure,
    uniform,
)
from .rationals import INF
from .regularity import (
    ahlfors_alpha,
    billingsley_gamma,
    fourier_beta,
    knapp_bound,
    mockenhaupt_p0,
    theorem_range,
)
from .spectral import convolve_power, density_norm, fourier

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure",
    "INF",
    "ahlfors_alpha",
    "billingsley_gamma",
    "cantor",
    "circle",
    "convolve_power",
    "density_norm",
    "dirac",
    "fourier",
    "fourier_beta",
    "knapp_bound",
    "load_measure",
    "mockenhaupt_p0",
    "mollify",
    "random_flat",
    "save_measure",
    "theorem_range",
    "uniform",
]
