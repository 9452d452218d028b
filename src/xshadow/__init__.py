"""Classical shadow estimation that survives noisy, cross-talking readout.

The package simulates randomized single-qubit measurement experiments,
twirls the readout channel with random pre-measurement flips, learns
the channel's Fourier components from calibration data, and divides
them out of shadow estimates.  Brute-force references (dense shadow
matrices, twirling by enumeration) live with the tests, which check every
fast path against them on small systems.

The top level holds what the README's library example uses and the
error hierarchy; everything else is imported from its module
(``xshadow.protocols``, ``xshadow.noise``, ...).
"""

from .config import load_config
from .exceptions import (
    CapabilityError,
    ConfigError,
    DataFormatError,
    NotInformationallyCompleteError,
    SingularNoiseError,
    UnmitigatableComponentError,
    XShadowError,
)
from .experiments import collect_calibration, collect_tomography
from .protocols import estimate_correlators, random_correlators
from .qsim import exact_expectation

__version__ = "0.1.0"
