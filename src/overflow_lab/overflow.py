"""The Archimedean excess of a pointed disk map, by two independent routes.

Explicit route: the boundary double integral of log|alpha(z1) - alpha(z2)|
against the harmonic measure minus the log of the capacitary jet norm.  The
dual capacitary norm of dz on the disk of radius r is r, so the jet term is
log(|alpha^(e)(0)/e!| * r^e) for target C and carries the extra factor
(1 + |alpha(0)|^2)^{-1} for target P1.

Definitional route (polynomials only): the excess as an integral of the
equilibrium potential against the fiber divisors, evaluated by locating the
fibers with a companion-matrix root solver polished by Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConstantMap,
    DomainError,
    NumericalError,
    PoleAtOrigin,
    RootConditioning,
    UnsupportedDegree,
)
from .maps import DiskMap
from .potential import capacitary_norm_P1
from .quadrature import (
    DEFAULT_SETTINGS,
    Certificate,
    QuadratureSettings,
    circle_mean,
    nevanlinna_T,
    torus_pair_log_integral,
)

#: Reports are nonnegative up to this slack; larger violations indicate a bug.
REPORT_NONNEGATIVITY_SLACK = 1e-5

#: Root moduli this close to the boundary circle poison the definitional oracle.
BOUNDARY_TANGENCY_TOL = 1e-6

ORACLE_DEGREE_BOUND = 8
ROOT_RESIDUAL_TOL = 1e-10


@dataclass
class OverflowReport:
    """A computed excess with its method tag and convergence evidence."""

    value: float
    method: str  # explicit | definitional | decomposition
    target: str  # C | P1
    radius: float
    ramification_index: int
    certificate: Optional[Certificate] = None
    boundary_tangency: bool = False

    def as_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "target": self.target,
            "radius": self.radius,
            "ramification_index": self.ramification_index,
            "boundary_tangency": self.boundary_tangency,
        }
        if self.certificate is not None:
            out["certificate"] = {
                "tol": self.certificate.tol,
                "achieved": self.certificate.achieved,
                "grid": self.certificate.grid,
            }
        return out


def _require_nonconstant(alpha: DiskMap) -> None:
    if alpha.is_constant():
        raise ConstantMap("excess is defined for nonconstant maps only")


# -- explicit route, target C -------------------------------------------------

def overflow_to_C(alpha: DiskMap, r: float,
                  settings: QuadratureSettings = DEFAULT_SETTINGS) -> OverflowReport:
    """Excess of a polynomial map from the disk of radius r to the plane."""
    _require_nonconstant(alpha)
    if not alpha.is_polynomial:
        raise DomainError("target C requires a polynomial map; use the P1 target")

    def boundary(ts: np.ndarray):
        z = r * np.exp(2j * np.pi * ts)
        p, _ = alpha.num_den_at(z)
        return p, None

    double, cert = torus_pair_log_integral(boundary, settings, label="excess kernel")
    e = alpha.ramification_index()
    jet = abs(complex(alpha.jet()))
    value = double - (math.log(jet) + e * math.log(r))
    return OverflowReport(value, "explicit", "C", r, e, certificate=cert)


# -- explicit route, target P1 ------------------------------------------------

def _p1_kernel_double_integral(alpha: DiskMap, r: float,
                               settings: QuadratureSettings) -> Tuple[float, Certificate]:
    """Double integral of the projective-line diagonal kernel along the boundary.

    Written on homogeneous pairs (den, num) so interior poles of the map never
    enter: the cross term is a polynomial expression of boundary values and
    the chart factors are separable one-dimensional integrals.
    """

    def boundary(ts: np.ndarray):
        z = r * np.exp(2j * np.pi * ts)
        p, q = alpha.num_den_at(z)
        if alpha.is_polynomial:
            # homogeneous pair (1, p): the cross term reduces to p(t) - p(s)
            return p, None
        return q, p  # homogeneous pair (x0, x1) = (den, num)

    cross, cert = torus_pair_log_integral(boundary, settings, label="P1 kernel")

    def chart(ts: np.ndarray) -> np.ndarray:
        z = r * np.exp(2j * np.pi * ts)
        p, q = alpha.num_den_at(z)
        return np.log(np.abs(p) ** 2 + np.abs(q) ** 2)

    sep, _ = circle_mean(chart, settings, label="P1 chart factor")
    return -cross + sep, cert


def overflow_to_P1(alpha: DiskMap, r: float,
                   settings: QuadratureSettings = DEFAULT_SETTINGS) -> OverflowReport:
    """Excess of a rational map from the disk of radius r to the projective line."""
    _require_nonconstant(alpha)
    if alpha.den[0] == 0:
        raise PoleAtOrigin("alpha(0) must be finite")
    method = "boundary" if not alpha.poles_inside(r) else "area"
    t_char = nevanlinna_T(alpha, r, method, settings)
    kernel, cert = _p1_kernel_double_integral(alpha, r, settings)
    e = alpha.ramification_index()
    jet = abs(complex(alpha.jet()))
    a0 = abs(complex(alpha.value_at_zero()))
    jet_norm_log = (
        math.log(jet) + e * math.log(r) + math.log(capacitary_norm_P1(a0))
    )
    value = 2.0 * t_char - kernel - jet_norm_log
    return OverflowReport(value, "explicit", "P1", r, e, certificate=cert)


# -- definitional oracle ------------------------------------------------------

def _batched_roots(poly_coeffs_desc: np.ndarray) -> np.ndarray:
    """Roots of a batch of monic-normalizable polynomials (deg x (n+1) desc order).

    Companion-matrix eigenvalues polished by Newton steps; raises if the
    residual contract cannot be met.
    """
    batch, ncoef = poly_coeffs_desc.shape
    d = ncoef - 1
    lead = poly_coeffs_desc[:, :1]
    if np.any(np.abs(lead) == 0.0):
        raise NumericalError("leading coefficient vanished in root batch")
    monic = poly_coeffs_desc / lead
    comp = np.zeros((batch, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.broadcast_to(np.eye(d - 1), (batch, d - 1, d - 1))
    comp[:, 0, :] = -monic[:, 1:]
    roots = np.linalg.eigvals(comp)

    deriv = monic[:, :-1] * np.arange(d, 0, -1)[None, :]
    scale = np.max(np.abs(monic), axis=1)[:, None] * np.maximum(1.0, np.abs(roots)) ** d
    for _ in range(6):
        pv = _polyval_batch(monic, roots)
        if np.all(np.abs(pv) <= ROOT_RESIDUAL_TOL * scale):
            break
        dv = _polyval_batch(deriv, roots)
        step = np.where(np.abs(dv) > 0, pv / np.where(dv == 0, 1, dv), 0)
        roots = roots - step
    pv = _polyval_batch(monic, roots)
    if not np.all(np.abs(pv) <= ROOT_RESIDUAL_TOL * scale):
        raise RootConditioning("root residuals exceed the solver contract")
    return roots


def _polyval_batch(coeffs_desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.broadcast_to(coeffs_desc[:, 0:1], z.shape).astype(complex).copy()
    for k in range(1, coeffs_desc.shape[1]):
        acc = acc * z + coeffs_desc[:, k : k + 1]
    return acc


def _poly_coeffs_desc(alpha: DiskMap) -> np.ndarray:
    return np.array([complex(c) for c in reversed(alpha.num)], dtype=complex)


def _fiber_log_sum(alpha: DiskMap, r: float, ts: np.ndarray,
                   tangency: dict) -> np.ndarray:
    """For each node t: sum of log(r/|zeta|) over the fiber of alpha through
    the boundary point, restricted to the open disk, trivial branch removed."""
    z0 = r * np.exp(2j * np.pi * ts)
    w = alpha(z0)
    coeffs = _poly_coeffs_desc(alpha)
    batch = np.tile(coeffs, (len(ts), 1))
    batch[:, -1] -= w
    roots = _batched_roots(batch)
    # drop the known root at the boundary node itself
    idx = np.argmin(np.abs(roots - z0[:, None]), axis=1)
    mask = np.ones(roots.shape, dtype=bool)
    mask[np.arange(len(ts)), idx] = False
    moduli = np.abs(roots)
    if np.any(mask & (np.abs(moduli - r) < BOUNDARY_TANGENCY_TOL)):
        tangency["flag"] = True
    inside = mask & (moduli < r)
    with np.errstate(divide="ignore"):
        contrib = np.where(inside, np.log(r) - np.log(moduli), 0.0)
    if not np.all(np.isfinite(contrib)):
        raise RootConditioning("fiber root at the singular point")
    return np.sum(contrib, axis=1)


def overflow_definitional_oracle(alpha: DiskMap, r: float,
                                 settings: QuadratureSettings = DEFAULT_SETTINGS,
                                 degree_bound: int = ORACLE_DEGREE_BOUND) -> OverflowReport:
    """Excess from its definition: equilibrium potential against fiber divisors.

    term1 sums log(r/|z|) over the nonzero roots of alpha - alpha(0) inside
    the open disk; term2 integrates the same fiber sum along boundary values.
    Root moduli within the tangency tolerance of the circle set the
    boundary_tangency flag and mark the value unreliable.
    """
    _require_nonconstant(alpha)
    if not alpha.is_polynomial:
        raise DomainError("definitional oracle requires a polynomial map")
    if alpha.degree > degree_bound:
        raise UnsupportedDegree(
            f"degree {alpha.degree} exceeds the oracle bound {degree_bound}"
        )
    e = alpha.ramification_index()
    tangency = {"flag": False}

    # term1: fiber of alpha(0), origin branch stripped exactly
    shifted = [c - (alpha.num[0] if k == 0 else 0) for k, c in enumerate(alpha.num)]
    quotient = shifted[e:]
    term1 = 0.0
    if len(quotient) > 1:
        roots = np.roots([complex(c) for c in reversed(quotient)])
        moduli = np.abs(roots)
        if np.any(np.abs(moduli - r) < BOUNDARY_TANGENCY_TOL):
            tangency["flag"] = True
        inside = moduli < r
        if np.any(moduli[inside] == 0.0):
            raise RootConditioning("unexpected fiber root at the origin")
        term1 = float(np.sum(np.log(r / moduli[inside])))

    term2, cert = circle_mean(
        lambda ts: _fiber_log_sum(alpha, r, ts, tangency),
        settings,
        label="definitional boundary term",
    )
    return OverflowReport(
        term1 + term2, "definitional", "C", r, e,
        certificate=cert, boundary_tangency=tangency["flag"],
    )


# -- bound check and asymptotics ----------------------------------------------

@dataclass
class BoundCheck:
    excess: float
    bound: float
    slack: float

    def as_dict(self) -> dict:
        return {"excess": self.excess, "bound": self.bound, "slack": self.slack}


def nevanlinna_bound_check(alpha: DiskMap, r: float,
                           settings: QuadratureSettings = DEFAULT_SETTINGS) -> BoundCheck:
    """Excess against its characteristic-function bound; the slack is the
    boundary double integral of the projective diagonal kernel, hence >= 0."""
    _require_nonconstant(alpha)
    if alpha.den[0] == 0:
        raise PoleAtOrigin("alpha(0) must be finite")
    method = "boundary" if not alpha.poles_inside(r) else "area"
    t_char = nevanlinna_T(alpha, r, method, settings)
    kernel, _ = _p1_kernel_double_integral(alpha, r, settings)
    e = alpha.ramification_index()
    jet = abs(complex(alpha.jet()))
    a0 = abs(complex(alpha.value_at_zero()))
    bound = 2.0 * t_char - e * math.log(r) - math.log(jet / (1.0 + a0 * a0))
    excess = bound - kernel
    return BoundCheck(excess=excess, bound=bound, slack=kernel)


@dataclass
class AsymptoticFit:
    slope: float
    intercept: float
    max_residual: float
    radii: Tuple[float, ...]
    values: Tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
            "radii": list(self.radii),
            "values": list(self.values),
        }


def polynomial_asymptotics(alpha: DiskMap, radii: Sequence[float],
                           settings: QuadratureSettings = DEFAULT_SETTINGS) -> AsymptoticFit:
    """Least-squares affine fit of the excess against log r over a radius sweep."""
    _require_nonconstant(alpha)
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise DomainError("need at least two radii to fit")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be increasing")
    values = [overflow_to_C(alpha, r, settings).value for r in radii]
    xs = np.log(np.array(radii))
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.array(values), rcond=None)
    fitted = design @ coef
    return AsymptoticFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        max_residual=float(np.max(np.abs(fitted - np.array(values)))),
        radii=tuple(radii),
        values=tuple(values),
    )
