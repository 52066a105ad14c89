"""Finite-dimensional matrix representations of polynomial differential operators.

Differentiation and coordinate-multiplication operators on a 1-D partition
become small dense matrices; tensor-grid lifting extends them to several
dimensions.  The package ships executable audits of the rank and nilpotency
structure of these matrices and two boundary-value experiments built on them.
The package namespace republishes each layer's ``__all__`` by wildcard import
(the use PEP 8 allows: an internal interface republished as the public API), so
a public name is declared once, in its layer.
"""

from .audits import *
from .bvp import *
from .lifting import *
from .linalg import *
from .operators import *
from .partitions import *

__version__ = "0.1.0"
