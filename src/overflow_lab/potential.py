"""Potential theory on closed disks and the two model diagonal Green functions.

Scope is deliberately narrow: equilibrium potentials of pointed closed disks
(log+ of r/|z - a|, harmonic measure uniform on the bounding circle) and the
diagonal Green functions of the plane and of the projective line.  Curvature
forms of arbitrary Green functions and Dirichlet-space pairings are out of
scope and have no representation here.

Singular values are returned as the explicit marker ``math.inf`` so that a
quadrature rule can never silently consume the singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import CoincidentDivisors, DomainError, InvalidPoint
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, circle_mean

INF = math.inf


@dataclass(frozen=True)
class DiskPotential:
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

        The one definition of log+(r/|z - a|): the fiber oracles sum it over
        fiber roots with a = 0.  Formed as log r - log|z - a|, so no quotient
        can overflow.
        """
        d = np.abs(np.asarray(z, dtype=complex) - complex(self.center))
        with np.errstate(divide="ignore"):
            out = np.log(self.radius) - np.log(d)
        return np.maximum(out, 0.0)


def capacitary_degree(r: float, psi_prime0) -> float:
    """log(r / |psi'(0)|): the degree of the capacitary normal bundle."""
    if not (r > 0):
        raise DomainError("radius must be positive")
    a = abs(psi_prime0)
    if a == 0:
        raise DomainError("psi'(0) must be nonzero")
    return math.log(r) - math.log(a)


@dataclass(frozen=True)
class DiagonalGreen:
    """Green function for the diagonal: variant "C" or "P1".

    C:  g(z1, z2) = log|z1 - z2|^{-1}, associated 2-form zero.
    P1: the U(2)-invariant kernel on homogeneous pairs, associated to the
        Fubini-Study form; nonnegative everywhere.
    """

    variant: str = "C"

    def __post_init__(self):
        if self.variant not in ("C", "P1"):
            raise DomainError(f"unknown variant {self.variant!r}")


def _homogeneous(p) -> Tuple[complex, complex]:
    if isinstance(p, (tuple, list)):
        if len(p) != 2:
            raise InvalidPoint(f"expected a pair, got {p!r}")
        x0, x1 = complex(p[0]), complex(p[1])
    else:
        x0, x1 = 1.0 + 0j, complex(p)
    if x0 == 0 and x1 == 0:
        raise InvalidPoint("(0, 0) is not a projective point")
    return x0, x1


def diagonal_green(g: DiagonalGreen, p1, p2) -> float:
    """Evaluate the diagonal Green function; inf marker on the diagonal.

    For the P1 variant, points are finite chart values or homogeneous pairs
    (x0, x1) representing x1/x0.
    """
    if g.variant == "C":
        d = abs(complex(p1) - complex(p2))
        return INF if d == 0.0 else -math.log(d)
    x0, x1 = _homogeneous(p1)
    y0, y1 = _homogeneous(p2)
    cross = abs(x0 * y1 - x1 * y0)
    if cross == 0.0:
        return INF
    return (
        -math.log(cross)
        + 0.5 * math.log(abs(x0) ** 2 + abs(x1) ** 2)
        + 0.5 * math.log(abs(y0) ** 2 + abs(y1) ** 2)
    )


def capacitary_norm_P1(w: complex) -> float:
    """Capacitary norm of d/dz at a finite chart point of the line: (1+|w|^2)^{-1}."""
    return 1.0 / (1.0 + abs(complex(w)) ** 2)


def star_product_integral(g1: DiskPotential, g2: DiskPotential,
                          settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integral of the star product of two disk potentials.

    Equals g2 evaluated at the first singular point plus the mean of g1 over
    the curvature circle of g2.  Symmetric in its arguments; zero when the
    supporting disks are disjoint.
    """
    if complex(g1.center) == complex(g2.center):
        raise CoincidentDivisors("star product needs distinct singular points")
    point_term = g2(g1.center)

    def values(ts: np.ndarray) -> np.ndarray:
        z = complex(g2.center) + g2.radius * np.exp(2j * np.pi * ts)
        return g1.values(z)

    mean_term, _ = circle_mean(values, settings, label="star product mean")
    return point_term + mean_term
