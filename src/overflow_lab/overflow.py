"""The Archimedean excess of a pointed disk map, by two independent routes.

Explicit route, one formula for both targets: with (p, q) the coprime
homogeneous pair of the map (q = 1 for a polynomial), e its ramification
index and jet = alpha^(e)(0)/e!, the excess on the disk of radius r is
cross - (2 log|q(0)| + log|jet| + e log r), where cross is the boundary double
integral of log|p(t) q(s) - q(t) p(s)|.  For target P1 this is 2T(r) - kernel
- log(jet norm) with Jensen's 2T(r) = mean log(|p|^2 + |q|^2) - log(|p(0)|^2 +
|q(0)|^2), valid with poles inside the disk too: the circle means cancel.
Where T(r) and the kernel are reported, quadrature.nevanlinna_T takes that one
circle mean and the kernel is 2T(r) + log(|p(0)|^2 + |q(0)|^2) - cross.

Definitional route (polynomials only): the excess as an integral of the
equilibrium potential (potential.DiskPotential, the one definition of
log+(r/|zeta|)) against the fiber divisors, evaluated by locating the
fibers with one batched root solver: Aberth-Ehrlich iteration, with
companion-matrix eigenvalues only for the rows it cannot certify, then Newton
polish under a residual contract.  The same solver locates the fibers of the
direct self-intersection oracle in arithmetic.py.  Both oracles integrate one
boundary integrand, _BoundaryFibers, which warm-starts each ladder level from
the roots of the level before (node k of 2n nodes from node k // 2 of n).
For a map with real coefficients the fiber over a conjugate boundary value is
the conjugate fiber, so the integrand is even in t and each level evaluates
half of the midpoint lattice.

Both routes reject, before any integral runs, a map and radius whose boundary
values cannot be squared in float64; both fiber oracles also reject one whose
fiber roots, by Cauchy's bound, could overflow the root solver's residual scale.

The radius-sweep fit takes the excess values the sweep already reported, for
either target.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConstantMap,
    DomainError,
    NumericalError,
    RootConditioning,
    UnsupportedDegree,
)
from .maps import DiskMap
from .potential import DiskPotential
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


def _log_abs(c) -> float:
    """log|c| without leaving float range: exact-rational coefficients go by
    their integer parts, a non-finite one is a DomainError, zero is -inf."""
    if isinstance(c, (int, Fraction)):
        return math.log(abs(c.numerator)) - math.log(c.denominator) if c else -math.inf
    c = complex(c)
    big, small = sorted((abs(c.real), abs(c.imag)), reverse=True)
    if not math.isfinite(big):
        raise DomainError(f"map coefficient {c} is not finite")
    if big == 0.0:
        return -math.inf
    return math.log(big) + 0.5 * math.log1p((small / big) ** 2)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_TINY = math.log(sys.float_info.min)


def _log_size(coeffs, log_r: float) -> float:
    """log of sum_k |c_k| r^k, formed in logs (-inf when every c_k is zero)."""
    terms = [_log_abs(c) + k * log_r for k, c in enumerate(coeffs) if c != 0]
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _require_float_range(alpha: DiskMap, r: float) -> None:
    """DomainError unless the boundary data of alpha = p/q on the circle of
    radius r can be squared in float64, checked before any integral runs.

    With P = sum |p_k| r^k and Q = sum |q_k| r^k, the square of max(P, Q,
    2 P Q) (a bound for |p|, |q| and |p(t) q(s) - q(t) p(s)|) must not
    overflow, and neither |q(0)|^2 nor the square of |jet| r^e |q(0)|^2 (the
    scale of that difference near the diagonal) may fall below the smallest
    normal float; |jet| itself, whose log the excess takes, must be a normal
    float.  The bounds are formed in logs, so the check itself stays finite.
    """
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"radius must be positive and finite, got {r!r}")
    log_r = math.log(r)
    log_p, log_q = _log_size(alpha.num, log_r), _log_size(alpha.den, log_r)
    if 2.0 * max(log_p, log_q, math.log(2.0) + log_p + log_q) > _LOG_FLOAT_MAX:
        raise DomainError(f"boundary values overflow float64 when squared at radius {r!r}")
    # the jet divides by q(0)^2, so that square is checked first
    log_q0_sq = 2.0 * _log_abs(alpha.den[0])
    if log_q0_sq < _LOG_FLOAT_TINY or 2.0 * (
        _log_abs(alpha.jet()) + alpha.ramification_index() * log_r + log_q0_sq
    ) < _LOG_FLOAT_TINY:
        raise DomainError(f"boundary differences underflow float64 when squared at radius {r!r}")
    if not _LOG_FLOAT_TINY <= _log_abs(alpha.jet()) <= _LOG_FLOAT_MAX:
        raise DomainError("the leading Taylor coefficient at 0 is outside the float64 range")


# -- explicit route -----------------------------------------------------------

def _boundary_cross(alpha: DiskMap, r: float, settings: QuadratureSettings,
                    label: str) -> Tuple[float, Certificate]:
    """Double integral of log|p(t) q(s) - q(t) p(s)| over the circle of radius r,
    (p, q) = (num, den), so interior poles never enter; a polynomial uses the
    plain kernel log|p(t) - p(s)|."""

    def boundary(ts: np.ndarray):
        z = r * np.exp(2j * np.pi * ts)
        p, q = alpha.num_den_at(z)
        return (p, None) if alpha.is_polynomial else (p, q)

    return torus_pair_log_integral(boundary, settings, label=label)


def _explicit_excess(alpha: DiskMap, r: float, settings: QuadratureSettings,
                     target: str) -> OverflowReport:
    """cross - (2 log|q(0)| + log|jet| + e log r): q(0) = 1 adds exactly 0.0,
    so a polynomial's excess is the same float for both targets."""
    _require_nonconstant(alpha)
    _require_float_range(alpha, r)
    cross, cert = _boundary_cross(alpha, r, settings, "excess kernel")
    e = alpha.ramification_index()
    jet = abs(complex(alpha.jet()))
    q0 = abs(complex(alpha.den[0]))
    value = cross - (2.0 * math.log(q0) + math.log(jet) + e * math.log(r))
    return OverflowReport(value, "explicit", target, r, e, certificate=cert)


def overflow_to_C(alpha: DiskMap, r: float,
                  settings: QuadratureSettings = DEFAULT_SETTINGS) -> OverflowReport:
    """Excess of a polynomial map from the disk of radius r to the plane."""
    if not alpha.is_polynomial:
        raise DomainError("target C requires a polynomial map; use the P1 target")
    return _explicit_excess(alpha, r, settings, "C")


def overflow_to_P1(alpha: DiskMap, r: float,
                   settings: QuadratureSettings = DEFAULT_SETTINGS) -> OverflowReport:
    """Excess of a rational map from the disk of radius r to the projective line."""
    return _explicit_excess(alpha, r, settings, "P1")


def _characteristic_and_kernel(alpha: DiskMap, r: float,
                               settings: QuadratureSettings) -> Tuple[float, float]:
    """(T(r), kernel): the Ahlfors-Shimizu characteristic (nevanlinna_T, one
    circle mean) and the boundary double integral of the projective-line
    diagonal kernel, 2T(r) + log(|p(0)|^2 + |q(0)|^2) - cross."""
    _require_float_range(alpha, r)
    t_char = nevanlinna_T(alpha, r, "boundary", settings)
    cross, _ = _boundary_cross(alpha, r, settings, "P1 kernel")
    p0, q0 = complex(alpha.num[0]), complex(alpha.den[0])
    return t_char, 2.0 * t_char + math.log(abs(p0) ** 2 + abs(q0) ** 2) - cross


# -- definitional oracle ------------------------------------------------------

#: Aberth-Ehrlich steps before a row is handed to the companion eigensolver.
#: Simple roots converge cubically; on the oracle's fibers 97% of the rows stop
#: within 10 steps and all but a few in 10^4 within 15.
_ABERTH_STEPS = 30

#: A row stops iterating once every correction is at most this times max(1, |z|).
_ABERTH_STEP_TOL = 1e-14

#: Phase of the starting circle, chosen off the real axis so that no starting
#: point of a real polynomial sits on its symmetry line.
_ABERTH_PHASE = 0.4


def _batched_roots(poly_coeffs_desc: np.ndarray,
                   start: Optional[np.ndarray] = None) -> np.ndarray:
    """Roots of a batch of monic-normalizable polynomials (deg x (n+1) desc order).

    Batched Aberth-Ehrlich iteration first, from ``start`` (batch x deg
    starting points, e.g. the roots of nearby polynomials) when given, else
    from a circle.  A row is certified when its iteration converged, its roots
    are finite and the monic coefficients rebuilt from them match the input;
    uncertified rows (multiple or clustered roots, a zero constant term,
    widely spread moduli, coinciding starting points) fall back to
    companion-matrix eigenvalues.  Every row is then polished by Newton steps;
    raises if the residual contract cannot be met.
    """
    batch, ncoef = poly_coeffs_desc.shape
    d = ncoef - 1
    lead = poly_coeffs_desc[:, :1]
    if np.any(np.abs(lead) == 0.0):
        raise NumericalError("leading coefficient vanished in root batch")
    with np.errstate(over="ignore", invalid="ignore"):
        monic = poly_coeffs_desc / lead
    if not np.all(np.isfinite(monic)):
        raise NumericalError("root batch not finite after monic normalization")
    roots, certified = _aberth_roots(monic, start)
    if not np.all(certified):
        roots[~certified] = _companion_roots(monic[~certified])

    deriv = monic[:, :-1] * np.arange(d, 0, -1)[None, :]
    scale = np.max(np.abs(monic), axis=1)[:, None] * np.maximum(1.0, np.abs(roots)) ** d
    pv = _polyval_batch(monic, roots)
    for _ in range(6):
        if np.all(np.abs(pv) <= ROOT_RESIDUAL_TOL * scale):
            return roots
        dv = _polyval_batch(deriv, roots)
        step = np.where(np.abs(dv) > 0, pv / np.where(dv == 0, 1, dv), 0)
        roots = roots - step
        pv = _polyval_batch(monic, roots)
    if not np.all(np.abs(pv) <= ROOT_RESIDUAL_TOL * scale):
        raise RootConditioning("root residuals exceed the solver contract")
    return roots


def _aberth_roots(monic: np.ndarray,
                  start: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Aberth-Ehrlich iteration on a batch of monic rows: (roots, certified).

    Starts from ``start`` (batch x deg) when given, else from the circle of
    radius |a_0|^(1/d).  Works on the transposed (degree, batch) layout so
    that every ufunc runs along the batch axis, and keeps iterating only the
    rows still moving.
    """
    batch, ncoef = monic.shape
    d = ncoef - 1
    a0 = np.abs(monic[:, -1])
    if start is None:
        rho = np.where(a0 > 0.0, a0 ** (1.0 / d), 1.0)
        angles = 2.0 * np.pi * np.arange(d) / d + _ABERTH_PHASE
        z = np.exp(1j * angles)[:, None] * rho[None, :]
    else:
        z = np.array(start.T, dtype=complex)
    coeffs = np.ascontiguousarray(monic.T)
    roots = np.empty((d, batch), dtype=complex)
    converged = np.zeros(batch, dtype=bool)
    rows = np.arange(batch)
    buffers = np.empty((4, d * batch), dtype=complex)
    sizes = np.empty((2, d * batch))
    moved = np.empty(d * batch, dtype=bool)

    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_STEPS):
            n = z.shape[1]
            p, dp, repel, inv = (buf[:d * n].reshape(d, n) for buf in buffers)
            step_size, z_size = (buf[:d * n].reshape(d, n) for buf in sizes)
            big = moved[:d * n].reshape(d, n)
            # p and p' by one Horner loop (the leading coefficient is 1)
            np.add(z, coeffs[1], out=p)
            dp.fill(1.0)
            for k in range(2, ncoef):
                np.multiply(dp, z, out=dp)
                dp += p
                np.multiply(p, z, out=p)
                p += coeffs[k]
            # Aberth sum over j != k of 1/(z_k - z_j), one cyclic shift s at a
            # time; the shift d - s is the same set of pairs with the sign flipped
            repel.fill(0.0)
            for s in range(1, d // 2 + 1):
                inv[s:] = z[:-s]
                inv[:s] = z[-s:]
                np.subtract(z, inv, out=inv)
                np.reciprocal(inv, out=inv)  # inv[k] = 1 / (z[k] - z[k - s])
                repel += inv
                if 2 * s != d:
                    repel[:-s] -= inv[s:]
                    repel[-s:] -= inv[:s]
            # correction w = p / (p' - p * repel)
            np.multiply(repel, p, out=repel)
            np.subtract(dp, repel, out=dp)
            np.divide(p, dp, out=p)
            z -= p
            # a NaN correction compares False and retires the row; the
            # finiteness test below then leaves it uncertified
            np.abs(z, out=z_size)
            np.maximum(z_size, 1.0, out=z_size)
            z_size *= _ABERTH_STEP_TOL
            np.abs(p, out=step_size)
            np.greater(step_size, z_size, out=big)
            moving = np.any(big, axis=0)
            if np.all(moving):
                continue
            done = ~moving
            roots[:, rows[done]] = z[:, done]
            converged[rows[done]] = True
            rows, z, coeffs = rows[moving], z[:, moving], coeffs[:, moving]
            if rows.size == 0:
                break
    roots[:, rows] = z
    roots = roots.T.copy()

    # a zero constant term leaves the starting circle without a scale
    certified = converged & (a0 > 0.0) & np.all(np.isfinite(roots), axis=1)
    idx = np.flatnonzero(certified)
    rebuilt = _monic_from_roots(roots[idx])
    bound = ROOT_RESIDUAL_TOL * np.prod(1.0 + np.abs(roots[idx]), axis=1)
    certified[idx] = np.all(np.abs(rebuilt - monic[idx]) <= bound[:, None], axis=1)
    return roots, certified


def _monic_from_roots(roots: np.ndarray) -> np.ndarray:
    """Coefficients (desc order) of prod_k (z - roots[:, k]), row by row."""
    batch, d = roots.shape
    coeffs = np.zeros((batch, d + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for k in range(d):
        coeffs[:, 1:k + 2] -= roots[:, k:k + 1] * coeffs[:, :k + 1]
    return coeffs


def _companion_roots(monic: np.ndarray) -> np.ndarray:
    """Companion-matrix eigenvalues of a batch of monic rows (the rescue step)."""
    batch, ncoef = monic.shape
    d = ncoef - 1
    comp = np.zeros((batch, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.broadcast_to(np.eye(d - 1), (batch, d - 1, d - 1))
    comp[:, 0, :] = -monic[:, 1:]
    return np.linalg.eigvals(comp)


def _polyval_batch(coeffs_desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.broadcast_to(coeffs_desc[:, 0:1], z.shape).astype(complex).copy()
    for k in range(1, coeffs_desc.shape[1]):
        acc = acc * z + coeffs_desc[:, k : k + 1]
    return acc


def _poly_coeffs_desc(alpha: DiskMap) -> np.ndarray:
    return np.array([complex(c) for c in reversed(alpha.num)], dtype=complex)


def _require_fiber_range(alpha: DiskMap, r: float) -> None:
    """DomainError unless the root solver's residual scale stays in float64 on
    every fiber of the polynomial alpha over the disk of radius r.

    A root of alpha(zeta) = w with |w| <= P = sum |a_k| r^k obeys Cauchy's
    bound |zeta| <= B = 1 + (sum_{k<d} |a_k| + P) / |a_d|, and the residual
    scale of its monic row is at most (d + 1) B^(d + 1).  Checked in logs,
    before any root is solved.
    """
    d = alpha.degree
    log_sum = np.logaddexp(_log_size(alpha.num[:d], 0.0), _log_size(alpha.num, math.log(r)))
    log_b = float(np.logaddexp(0.0, log_sum - _log_abs(alpha.num[d])))
    if (d + 1) * log_b + math.log(d + 1) > _LOG_FLOAT_MAX:
        raise DomainError(f"fiber roots may overflow float64 at radius {r!r}")


class _BoundaryFibers:
    """Boundary-term integrand of both fiber oracles.

    For each node t: the disk potential log+(r/|zeta|) summed over the fiber of
    alpha through the boundary point, trivial branch removed.
    ``tangent`` is set once a fiber root lies within the tangency tolerance of
    the circle.  Each call keeps its roots: on a level of twice the previous
    node count (the next ladder level, halved or not), node k starts the root
    solver from the roots of old node k // 2, which sits 1/(4n) away on the
    circle; any other call starts cold.
    """

    def __init__(self, alpha: DiskMap, r: float):
        self.alpha = alpha
        self.r = r
        self.potential = DiskPotential(0j, r)
        self.coeffs = _poly_coeffs_desc(alpha)
        self.tangent = False
        self._roots = None

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        r = self.r
        z0 = r * np.exp(2j * np.pi * ts)
        w = self.alpha(z0)
        batch = np.tile(self.coeffs, (len(ts), 1))
        batch[:, -1] -= w
        start = None
        if self._roots is not None and len(ts) == 2 * len(self._roots):
            start = self._roots[np.arange(len(ts)) // 2]
        roots = self._roots = _batched_roots(batch, start)
        # drop the known root at the boundary node itself
        idx = np.argmin(np.abs(roots - z0[:, None]), axis=1)
        mask = np.ones(roots.shape, dtype=bool)
        mask[np.arange(len(ts)), idx] = False
        if np.any(mask & (np.abs(np.abs(roots) - r) < BOUNDARY_TANGENCY_TOL)):
            self.tangent = True
        contrib = np.where(mask, self.potential.values(roots), 0.0)
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
    boundary_tangency flag and mark the value unreliable.  A real map's fiber
    sum is even in t (conjugate boundary points have conjugate fibers), so
    its boundary term evaluates half of each lattice.
    """
    _require_nonconstant(alpha)
    if not alpha.is_polynomial:
        raise DomainError("definitional oracle requires a polynomial map")
    if alpha.degree > degree_bound:
        raise UnsupportedDegree(
            f"degree {alpha.degree} exceeds the oracle bound {degree_bound}"
        )
    _require_float_range(alpha, r)
    _require_fiber_range(alpha, r)
    e = alpha.ramification_index()
    tangent = False

    # term1: fiber of alpha(0), origin branch stripped exactly
    shifted = [c - (alpha.num[0] if k == 0 else 0) for k, c in enumerate(alpha.num)]
    quotient = shifted[e:]
    term1 = 0.0
    if len(quotient) > 1:
        roots = _batched_roots(np.array([[complex(c) for c in reversed(quotient)]]))[0]
        tangent = bool(np.any(np.abs(np.abs(roots) - r) < BOUNDARY_TANGENCY_TOL))
        potential = DiskPotential(0j, r).values(roots)
        if np.any(np.isinf(potential)):
            raise RootConditioning("unexpected fiber root at the origin")
        term1 = float(np.sum(potential))

    fibers = _BoundaryFibers(alpha, r)
    term2, cert = circle_mean(
        fibers, settings, label="definitional boundary term",
        even=alpha.real_coefficients,
    )
    return OverflowReport(
        term1 + term2, "definitional", "C", r, e,
        certificate=cert, boundary_tangency=tangent or fibers.tangent,
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
    t_char, kernel = _characteristic_and_kernel(alpha, r, settings)
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


def polynomial_asymptotics(radii: Sequence[float],
                           values: Sequence[float]) -> AsymptoticFit:
    """Least-squares affine fit of excess values against log r over a radius sweep.

    The values are the sweep's own reports (either target), so nothing is
    recomputed here.
    """
    radii = [float(r) for r in radii]
    values = [float(v) for v in values]
    if len(values) != len(radii):
        raise DomainError("need one value per radius")
    if len(radii) < 2:
        raise DomainError("need at least two radii to fit")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be increasing")
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
