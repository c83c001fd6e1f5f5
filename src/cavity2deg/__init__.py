"""Exact treatment of a 2D electron gas coupled to quantized cavity modes.

Layers, bottom up:

- ``constants`` / ``core``: CODATA constants, system configuration, derived
  frequency scales (plasma, dressed) and the collective coupling gamma.
- ``singlemode``: closed-form spectrum of the gas + one mode, ground-state
  energy functional over momentum distributions, disk quadrature,
  instability witness for gamma >= 1 and for the model without the A^2 term.
- ``response``: Kubo response functions in time and frequency domain,
  optical conductivity with its suppressed Drude peak.
- ``eft``: continuum of modes; running coupling, Landau pole, renormalized
  mass, Casimir energy/pressure, dressed jellium, 1D/3D cross-checks.
- ``manymode``: exact diagonalization of M coupled modes, by rank-one
  secular updates for the structured W of a mode set and a hand-rolled
  round-robin Jacobi eigensolver for any symmetric W; truncation and
  coupling-growth scans.
- ``cli``: ``cavity2deg`` command emitting deterministic CSV/JSON datasets.

Unit modes: configs are SI end to end, or dimensionless "ratio" mode where
frequencies are given in units of the bare mode frequency.

Diagnostics go to the ``logging.getLogger("cavity2deg")`` logger, which has
a NullHandler: the eigensolvers log at DEBUG which path ran and how many
sweeps or secular steps it took.  Nothing is printed unless the caller
configures logging.
"""

import logging

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

# each module's own __all__ is the one list of its public names
from . import constants, core, eft, exceptions, manymode, response, singlemode
from .constants import *
from .exceptions import *
from .core import *
from .singlemode import *
from .response import *
from .eft import *
from .manymode import *

__all__ = ["__version__", *constants.__all__, *exceptions.__all__,
           *core.__all__, *singlemode.__all__, *response.__all__,
           *eft.__all__, *manymode.__all__]
