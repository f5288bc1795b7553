"""SIQR epidemic toolkit: simulation, exact recovery, online estimation."""

from .errors import *
from .identify import *
from .integrator import *
from .models import *
from .observation import *
from .observer import *
from .scenario import *

__version__ = "0.1.0"
