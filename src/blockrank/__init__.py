"""Block-aware sparse graph ranking with a decidable no-teleportation mode.

Builds a factored block-proximity operator over a directed graph, decides
from a small block indicator matrix whether ranking without uniform
teleportation is well-defined, and computes ranking vectors by sparse
power iteration.

The public names are those of each module's ``__all__``.
"""

from . import decomp, errors, graph, ranker, spectra
from .decomp import *
from .errors import *
from .graph import *
from .ranker import *
from .spectra import *

__version__ = "0.1.0"

__all__ = []
__all__ += decomp.__all__
__all__ += errors.__all__
__all__ += graph.__all__
__all__ += ranker.__all__
__all__ += spectra.__all__
