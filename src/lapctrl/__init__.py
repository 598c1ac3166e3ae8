"""Graph families, Laplacian spectra, and single-input Laplacian controllability."""

from . import compose, controllability, graph_core, spectral
from .graph_core import *
from .spectral import *
from .controllability import *
from .compose import *

__version__ = "0.1.0"

__all__ = [*graph_core.__all__, *spectral.__all__, *controllability.__all__,
           *compose.__all__, "__version__"]
