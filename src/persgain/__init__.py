"""persgain: decide when outcome heterogeneity across treatment arms is
worth personalizing on.

Modules
-------
analytic    closed-form two-arm gain, partial derivatives, mean-averaged gain
simulate    Monte Carlo gain for m arms, with or without prediction error
dataset     experiment data container, synthetic generators, CSV round trip
estimation  heterogeneity moments (s, sigma, rho, sigma_eps) from arm data
policy      assignment policies, off-policy (IPW) and oracle evaluation
analysis    study profiles, sensitivity sweeps, counterfactuals, elasticities
cli         `persgain` command-line front end
"""

__version__ = "0.1.0"

from .errors import ConfigError, InternalError, ParseError, PersgainError

__all__ = [
    "__version__",
    "PersgainError",
    "ConfigError",
    "ParseError",
    "InternalError",
]
