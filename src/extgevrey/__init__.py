"""Numerics for extended Gevrey weight sequences: Lambert W, associated
functions, Young conjugates, weight-function axioms and the equivalence
checks relating them.

The exported names are those of each module's `__all__`.
"""

from . import errors, lambertw, sequences, assocfn, conjugate, equivalence
from .errors import *
from .lambertw import *
from .sequences import *
from .assocfn import *
from .conjugate import *
from .equivalence import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *lambertw.__all__, *sequences.__all__,
           *assocfn.__all__, *conjugate.__all__, *equivalence.__all__]
