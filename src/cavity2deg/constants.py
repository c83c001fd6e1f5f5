"""Physical constants (CODATA 2018) used throughout the package.

Primary constants are frozen literals; the fine-structure constant is computed
from them so that its defining identity holds to machine precision.  Every
module reads the one instance ``CODATA2018``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Constants", "CODATA2018"]


@dataclass(frozen=True)
class Constants:
    """Bundle of SI constants."""

    hbar: float = 1.054571817e-34      # J s
    e: float = 1.602176634e-19         # C (exact)
    m_e: float = 9.1093837015e-31      # kg
    eps0: float = 8.8541878128e-12     # F/m
    c: float = 299792458.0             # m/s (exact)

    @property
    def alpha_fs(self) -> float:
        """Fine-structure constant e^2/(4 pi hbar c eps0)."""
        return self.e**2 / (4.0 * math.pi * self.hbar * self.c * self.eps0)


CODATA2018 = Constants()
