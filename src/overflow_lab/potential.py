"""Potential theory on closed disks.

Scope is deliberately narrow: equilibrium potentials of pointed closed disks
(log+ of r/|z - a|, harmonic measure uniform on the bounding circle).  The
capacitary degree of a disk is
SurfaceDescriptor.normal_degree in arithmetic.py.
Curvature forms of arbitrary Green functions and Dirichlet-space pairings
are out of scope and have no representation here.

Singular values are returned as the explicit marker ``math.inf`` so that a
quadrature rule can never silently consume the singular point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .records import Record

INF = math.inf


class DiskPotential(Record):
    """Equilibrium potential g(z) = log+ (r / |z - a|) of a pointed disk.

    Nonnegative, zero outside the open disk, +inf at the center; its
    curvature measure is the uniform probability measure on |z - a| = r.
    """

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0):
            raise DomainError("disk radius must be positive")

    def __call__(self, z: complex) -> float:
        return float(self.values(z))

    def values(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; singular points come out as inf.

        The one definition of log+(r/|z - a|): the definitional oracle sums
        it over fiber roots with a = 0.  Formed as log r - log|z - a|, so no
        quotient can overflow.
        """
        d = np.abs(np.asarray(z, dtype=complex) - complex(self.center))
        with np.errstate(divide="ignore"):
            out = np.log(self.radius) - np.log(d)
        return np.maximum(out, 0.0)

