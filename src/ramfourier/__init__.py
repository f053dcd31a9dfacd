"""Exact computation with periodic and even functions mod r.

Core pieces: Ramanujan sums by the integer divisor-sum formula, the
DFT/IDFT pair for periodic functions, the divisor-indexed transform
pair for even functions (exact on rational input), Cauchy products in
both domains, and verifiers for the orthogonality, symmetry, kernel and
transform-bridge identities. Each module's `__all__` is the public
surface, and the package re-exports all of them.
"""

from . import arith, errors, even, funcfile, periodic, ramanujan
from .arith import *
from .errors import *
from .even import *
from .funcfile import *
from .periodic import *
from .ramanujan import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += arith.__all__
__all__ += errors.__all__
__all__ += periodic.__all__
__all__ += ramanujan.__all__
__all__ += even.__all__
__all__ += funcfile.__all__
