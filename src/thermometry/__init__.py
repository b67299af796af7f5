"""Precision limits of temperature estimation for finite quantum systems.

Builds canonical Gibbs states over arbitrary finite spectra, evaluates the
Fisher information of energy measurement and its Cramér-Rao variance
floor, provides the closed-form low-temperature bound factors with their
minima and gap tuning, and verifies by Monte Carlo that maximum-likelihood
and Bayesian processing of energy outcomes attains the floor.

The public API is the ``__all__`` of each layer module, republished here.
"""

from .bounds import *
from .errors import DegenerateExperimentError, InputFormatError
from .estimation import *
from .fisher import *
from .montecarlo import *
from .thermal import *

__version__ = "0.1.0"
