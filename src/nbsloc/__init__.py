"""Phase-space localization via negative binomial coherent states.

Numerics for the localization operator attached to the indicator of a
disk of radius R < 1, quantized against negative binomial states on the
unit disk: its incomplete-Beta eigenvalue spectrum, probabilistic
representations with Monte-Carlo cross-checks, the photon-counting
leakage bound, and the transferred integral kernel on the weighted
Bergman space in series and Appell closed form.
"""

from .errors import AccuracyError, ConvergenceError, DomainError
from .specfun import *
from .quadrature import *
from .states import *
from .locop import *
from .bergman import *

__version__ = "0.1.0"
