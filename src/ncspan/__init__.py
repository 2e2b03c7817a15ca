"""Exact engine for linear spans of noncommutative polynomial values on M_d(Q)."""

from .linalg import *
from .linearize import *
from .poly import *
from .span import *
from .text import *

__version__ = "0.1.0"

__all__ = linalg.__all__ + linearize.__all__ + poly.__all__ + span.__all__ + text.__all__
