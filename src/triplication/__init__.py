"""Strong starters in odd cyclic groups by triplication.

The pipeline: build or sample a triplication table over ``Z_m``, compile it
with a discrimination scenario into a 3-valued constraint problem, solve,
and decode the solution into a verified strong starter of order ``3m``.
"""

from .errors import *
from .msp import *
from .pairings import *
from .recovery import *
from .scenarios import *
from .tables import *
from .templates import *

__version__ = "0.1.0"
