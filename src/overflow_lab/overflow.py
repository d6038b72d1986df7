"""The Archimedean excess of a pointed disk map, by two independent routes.

Explicit route, one formula for both targets: with (p, q) the coprime
homogeneous pair of the map (q = 1 for a polynomial), e its ramification
index and jet = alpha^(e)(0)/e!, the excess on the disk of radius r is
cross - (2 log|q(0)| + log|jet| + e log r), where cross is the boundary double
integral of log|p(t) q(s) - q(t) p(s)|.  For target P1 this is 2T(r) - kernel
- log(jet norm) with Jensen's 2T(r) = mean log(|p|^2 + |q|^2) - log(|p(0)|^2 +
|q(0)|^2), valid with poles inside the disk too: the circle means cancel.
The bound check reports this P1 excess against its bound from T(r)
(quadrature.nevanlinna_T, one circle mean); the slack between them is the
kernel.

Definitional route (polynomials only): the excess as an integral of the
equilibrium potential (potential.DiskPotential, the one definition of
log+(r/|zeta|)) against the fiber divisors, evaluated by locating the
fibers with one batched root solver: companion-matrix eigenvalues for a
cold batch, Newton steps from predicted roots for a warm one.  Its term1,
the fiber sum over alpha(0), is by Jensen's formula the constant kappa of
the direct self-intersection oracle in arithmetic.py less log|jet| + e log r,
so that oracle reports through this one.  The boundary integrand,
_BoundaryFibers, solves its first ladder level cold and predicts each later
level from the roots of the level before (node k of 2n nodes from node
k // 2 of n), each root moved to first order along its fiber, so that Newton
corrects it; it solves each level as one root batch.  For a map with real
coefficients the fiber over a conjugate boundary value is the conjugate
fiber, so the integrand is even in t and each level evaluates half of the
midpoint lattice.
The integrand kinks wherever a fiber root crosses the circle, so each level
subtracts its Lyness-Ninham midpoint error at those crossings, read off the
roots the level solved (_kink_correction), and the ladder compares the
corrected levels.  The holonomy comparison value's mean of log+|alpha|
(log_plus_mean) kinks where |alpha| = 1 and takes the same correction, with
w = q/p as the one fiber branch at radius 1, and the log-spike correction at
the poles of alpha.

Both routes reject, before any integral runs, a map and radius whose boundary
values cannot be squared in float64.  Both then integrate a map
alpha = P(z^K) as P on the circle of radius r^K, which the circle of radius r
covers K times (_power_reduction), with alpha(0) q taken from P's numerator
p, which cancels in both, unless that makes p larger on the circle, as near
a pole by 0: the orbit zeta z, zeta^K = 1, of each boundary point never
enters a kernel row or a fiber, and the reports keep alpha's radius and
ramification index.  The oracle rejects a P of degree
beyond its bound, or whose fiber roots at r^K, by Cauchy's bound, could
overflow the root solver's residual scale.

The radius-sweep fit takes the excess values the sweep already reported, for
either target.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
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
from .records import Record

#: Root moduli this close to the boundary circle poison the definitional oracle.
BOUNDARY_TANGENCY_TOL = 1e-6

ORACLE_DEGREE_BOUND = 8
ROOT_RESIDUAL_TOL = 1e-10


class OverflowReport(Record):
    """A computed excess with its method tag and convergence evidence."""

    value: float
    method: str  # explicit | definitional
    target: str  # C | P1
    radius: float
    ramification_index: int
    certificate: Certificate
    boundary_tangency: bool = False


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
    The torus kernel forms log|q| and f = p/q rescaled by a power of two for
    every map, a polynomial's q = 1 included, so the size of f needs no bound
    of its own.
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


def _power_reduction(alpha: DiskMap, r: float) -> Tuple[DiskMap, int, float]:
    """(P, K, r^K) for alpha(z) = P(z^K) with K the largest such power, the
    gcd of the exponents of the nonconstant terms of num and den, and P's
    numerator p less alpha(0) q where that leaves it no larger.

    The circle of radius r covers that of radius r^K K times, so alpha's
    cross integral, term1 and fiber mean at r are P's at r^K, and alpha's e
    is K times P's with the same jet: both routes integrate P at r^K.  The
    pair (p - c q, q) has the kernel p(t) q(s) - q(t) p(s) of (p, q) for any
    constant c, and a polynomial's fiber rows alpha - w only move by c.  With
    c = alpha(0) = p(0)/q(0), exact for exact coefficients, the numerator's
    constant term is 0, so a large alpha(0) no longer rounds the rest of
    f = p/q away.  That numerator is kept when its sum of |c_k| r^k at r^K is
    no larger than p's, as it always is for a polynomial (q = 1); near a pole
    by 0, where alpha(0) is large but f on the circle is not, p stays.  A
    DomainError when r^K is not a normal float64.
    """
    k = math.gcd(*(j for coeffs in (alpha.num, alpha.den)
                   for j, c in enumerate(coeffs) if j and c != 0))
    radius = r
    if k > 1:
        try:
            radius = r ** k
        except OverflowError:
            radius = math.inf
        if not sys.float_info.min <= radius < math.inf:
            raise DomainError(f"radius {r!r} to the power {k} leaves the float64 range")
    num, den = alpha.num[::k], alpha.den[::k]
    at_zero = num[0] / den[0]
    shifted = [0] + list(num[1:]) + [0] * (len(den) - len(num))
    for j, c in enumerate(den[1:], 1):
        shifted[j] -= at_zero * c
    if _log_size(shifted, math.log(radius)) <= _log_size(num, math.log(radius)):
        num = shifted
    return DiskMap(num, den), k, radius


# -- explicit route -----------------------------------------------------------

def _boundary_cross(alpha: DiskMap, r: float,
                    settings: QuadratureSettings) -> Tuple[float, Certificate]:
    """Double integral of log|p(t) q(s) - q(t) p(s)| over the circle of radius r,
    (p, q) = (num, den), so interior poles never enter; a polynomial has
    q = 1."""

    def boundary(ts: np.ndarray):
        return alpha.num_den_at(r * np.exp(2j * np.pi * ts))

    return torus_pair_log_integral(boundary, settings, label="excess kernel")


def _explicit_excess(alpha: DiskMap, r: float, settings: QuadratureSettings,
                     target: str) -> OverflowReport:
    """cross - (2 log|q(0)| + log|jet| + e log r), cross taken on P at r^K
    (_power_reduction): q(0) = 1 adds exactly 0.0, so a polynomial's excess
    is the same float for both targets."""
    _require_nonconstant(alpha)
    _require_float_range(alpha, r)
    base, _, radius = _power_reduction(alpha, r)
    cross, cert = _boundary_cross(base, radius, settings)
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


# -- definitional oracle ------------------------------------------------------

#: Newton steps a warm batch may take; a start predicted along the fiber
#: is about one step from its root, so the batch stops well before.
_NEWTON_STEPS = 8

#: The batch stops stepping once every step is at most this times max(1, |z|).
_NEWTON_STEP_TOL = 1e-14


def _batched_roots(poly_coeffs_desc: np.ndarray,
                   start: Optional[np.ndarray] = None) -> np.ndarray:
    """Roots of a batch of monic-normalizable polynomials (deg x (n+1) desc order).

    A cold batch (no ``start``) takes companion-matrix eigenvalues.  A warm
    one takes Newton steps from ``start`` (batch x deg starting points, e.g.
    the roots of nearby polynomials moved along their fibers).  A warm row is
    certified when its steps converged, its roots are finite and the monic
    coefficients rebuilt from them match the input; uncertified rows
    (coinciding starts, multiple or clustered roots, starts too far out)
    take eigenvalues.  Raises when some row then misses the residual
    contract.
    """
    d = poly_coeffs_desc.shape[1] - 1
    lead = poly_coeffs_desc[:, :1]
    if np.any(np.abs(lead) == 0.0):
        raise NumericalError("leading coefficient vanished in root batch")
    with np.errstate(over="ignore", invalid="ignore"):
        monic = poly_coeffs_desc / lead
    if not np.all(np.isfinite(monic)):
        raise NumericalError("root batch not finite after monic normalization")
    if start is None:
        roots = _companion_roots(monic)
    else:
        roots, converged = _newton_roots(monic, start)
        with np.errstate(all="ignore"):
            bound = ROOT_RESIDUAL_TOL * np.prod(1.0 + np.abs(roots), axis=1)
            rebuilt = np.abs(_monic_from_roots(roots) - monic) <= bound[:, None]
        # the rebuild bound alone is looser than the residual contract
        uncertified = ~(converged & np.all(np.isfinite(roots), axis=1) & np.all(rebuilt, axis=1))
        if np.any(uncertified):
            roots[uncertified] = _companion_roots(monic[uncertified])
    scale = np.max(np.abs(monic), axis=1)[:, None] * np.maximum(1.0, np.abs(roots)) ** d
    if not np.all(np.abs(_polyval_batch(monic, roots)) <= ROOT_RESIDUAL_TOL * scale):
        raise RootConditioning("root residuals exceed the solver contract")
    return roots


def _newton_roots(monic: np.ndarray, start: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Newton steps from ``start`` on every root of a batch of monic rows,
    until each step is within _NEWTON_STEP_TOL or _NEWTON_STEPS have run:
    (roots, converged), a row converged when its last steps were."""
    z = np.array(start, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            # p and p' by one Horner loop (the leading coefficient is 1)
            p, dp = z + monic[:, 1:2], np.ones_like(z)
            for k in range(2, monic.shape[1]):
                dp = dp * z + p
                p = p * z + monic[:, k:k + 1]
            step = p / dp
            z -= step
            # a step that is not finite compares False
            small = np.abs(step) <= _NEWTON_STEP_TOL * np.maximum(1.0, np.abs(z))
            if np.all(small):
                break
    return z, np.all(small, axis=1)


def _monic_from_roots(roots: np.ndarray) -> np.ndarray:
    """Coefficients (desc order) of prod_k (z - roots[:, k]), row by row."""
    batch, d = roots.shape
    coeffs = np.zeros((batch, d + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for k in range(d):
        coeffs[:, 1:k + 2] -= roots[:, k:k + 1] * coeffs[:, :k + 1]
    return coeffs


def _companion_roots(monic: np.ndarray) -> np.ndarray:
    """Companion-matrix eigenvalues of a batch of monic rows: every cold row,
    and the warm rows Newton's steps leave uncertified."""
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


def _predicted_start(deriv: np.ndarray, roots: np.ndarray, z_old: np.ndarray,
                     z_new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Starting points for the fibers over the boundary points z_new, row k
    from the fiber ``roots[old[k]]`` over ``z_old[old[k]]``.

    Along a fiber alpha(w) = alpha(z), dw = alpha'(z) / alpha'(w) dz, so each
    root w moves to w + alpha'(z') / alpha'(w) (z - z'); where that step is
    not finite (alpha'(w) = 0) the start stays at w.  ``deriv`` holds the
    coefficients of alpha' in descending order.
    """
    with np.errstate(all="ignore"):
        deriv = deriv[None, :]
        slope = _polyval_batch(deriv, z_old[:, None]) / _polyval_batch(deriv, roots)
        w = roots[old]
        step = slope[old] * (z_new - z_old[old])[:, None]
        return np.where(np.isfinite(step), w + step, w)


#: Offsets, in cells, of the 8 nodes around a cell that the kink correction
#: fits, and the matrix taking their values to the ascending coefficients of
#: the degree-7 interpolant in x = (t - t_j) / h.  Its derivatives carry an
#: error of h^(8-n), so the n-th jump term one of h^9; the degree-5 fit on 6
#: nodes left 1.4e-11 on max(0, sin 2 pi t - 0.3) at 64 nodes, this one 5.7e-14.
_STENCIL = np.arange(-3, 5)
_CENTER = int(-_STENCIL[0])  # the index of offset 0


def _lagrange_fit(nodes: Sequence[int]) -> np.ndarray:
    """Column i: the ascending coefficients of the Lagrange basis polynomial
    of node i, the inverse of the nodes' Vandermonde matrix without a LAPACK
    call (whose first use costs every command that imports this module)."""
    fit = []
    for i, xi in enumerate(nodes):
        poly = [1.0]
        for xj in nodes[:i] + nodes[i + 1:]:
            # times (x - xj) / (xi - xj)
            poly = [(a - xj * b) / (xi - xj) for a, b in zip([0.0] + poly, poly + [0.0])]
        fit.append(poly)
    return np.array(fit).T


_STENCIL_FIT = _lagrange_fit(_STENCIL.tolist())

#: Bernoulli polynomials B_2 .. B_6 (ascending coefficients), each divided by
#: its index factorial: the weights of the jump terms n = 1 .. 5.
_BERNOULLI = np.array([
    [1 / 6, -1, 1, 0, 0, 0, 0],
    [0, 1 / 2, -3 / 2, 1, 0, 0, 0],
    [-1 / 30, 0, 1, -2, 1, 0, 0],
    [0, -1 / 6, 0, 5 / 3, -5 / 2, 1, 0],
    [1 / 42, 0, -1 / 2, 0, 5 / 2, -3, 1],
]) / np.array([[math.factorial(n + 1)] for n in range(1, 6)])


def _jump_weights() -> np.ndarray:
    """The jump terms of a crossing at x of the interpolant sum_p c_p x^p are
    sum_n (-1)^n P^(n)(x) B_(n+1)(x) / (n+1)! = sum_p c_p W_p(x); row p holds
    the ascending coefficients of the polynomial W_p."""
    weights = np.zeros((len(_STENCIL), len(_STENCIL) + 1))
    for p in range(1, len(_STENCIL)):
        for n in range(1, min(p, len(_BERNOULLI)) + 1):
            # the n-th derivative of x^p is perm(p, n) x^(p - n)
            weights[p, p - n:p + 2] += (-1) ** n * math.perm(p, n) * _BERNOULLI[n - 1, :n + 2]
    return weights


_JUMP_WEIGHTS = _jump_weights()

#: Sample points per cell at which the interpolant's sign is read; a pair of
#: crossings closer than one sample spacing is not resolved.
_CELL_SAMPLES = 32
_SAMPLES = np.linspace(0.0, 1.0, _CELL_SAMPLES + 1)
_SAMPLE_POWERS = np.vander(_SAMPLES, len(_STENCIL), increasing=True).T

#: A match of a fiber root to the next node's roots is unambiguous when the
#: nearest root is this many times closer than the second nearest.
_MATCH_MARGIN = 4.0


def _branch_steps(deriv: np.ndarray, roots: np.ndarray, z: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Match each fiber root at row i to a root at row i + 1: (next,
    ambiguous), both (rows - 1) x roots.

    Each root is moved to the next node by the warm start's first-order step
    and matched to the nearest root there.  A match is ambiguous unless that
    root is _MATCH_MARGIN times closer than any other; every match of a row
    whose matches do not form a permutation is ambiguous.
    """
    rows, m = roots.shape
    if m == 1:
        return np.zeros((rows - 1, 1), dtype=int), np.zeros((rows - 1, 1), dtype=bool)
    pred = _predicted_start(deriv, roots[:-1], z[:-1], z[1:], np.arange(rows - 1))
    nearest, second = np.full((2, rows - 1, m), np.inf)
    nxt = np.zeros((rows - 1, m), dtype=int)
    # one candidate root of the next row at a time (m is at most 7)
    for b, target in enumerate(roots[1:].T):
        dist = np.abs(pred - target[:, None])
        closer = dist < nearest
        second = np.where(closer, nearest, np.minimum(second, dist))
        nearest = np.where(closer, dist, nearest)
        nxt[closer] = b
    ambiguous = ~(_MATCH_MARGIN * nearest < second)
    # distinct targets: the powers 2^next add up to 2^m - 1 without a carry
    ambiguous |= (np.sum(np.left_shift(1, nxt), axis=1) != (1 << m) - 1)[:, None]
    return nxt, ambiguous


#: Rows of a level's fibers padded on each side for the kink correction's
#: stencils: the cell from row i to row i + 1 reads rows i - 3 .. i + 4.
_PAD = int(_STENCIL[-1])


def _kink_correction(deriv: np.ndarray, roots: np.ndarray, z: np.ndarray,
                     r: float) -> Optional[float]:
    """Midpoint error, times the node count, of the fiber sum
    sum_w max(0, g(w)), g = log(r/|w|), from its crossings: roots (rows x
    branches) over consecutive lattice nodes z, padded by _PAD rows on each
    side, whose rows only serve as stencil nodes; the cells from each
    unpadded row to the next are counted.  None when a crossing cannot be
    resolved.

    Lyness and Ninham (Math. Comp. 21, 1967): a periodic integrand whose
    derivatives jump by [f^(n)] at c has midpoint error
    sum_n (-1)^n [f^(n)](c) h^(n+1) B_(n+1)(c/h - 1/2) / (n+1)!.  At a
    crossing f = max(0, g) jumps by sign(g') g^(n); n = 1..5 is taken, from
    the interpolant of g on the _STENCIL nodes around the crossing's cell,
    along the branch tracked by _branch_steps.  A cell is examined when g
    changes sign across it or is no larger at its start than the branch's
    last, present and next steps together, twice what a quadratic dipping
    below 0 inside the cell can be.  Its crossings are the sign changes of
    the interpolant on _CELL_SAMPLES points, the ends being the node values
    themselves, so a sign change between nodes is counted in exactly one
    cell and a pair inside a cell is found too.  An ambiguous match anywhere
    on a crossing's stencil leaves it unresolved.
    """
    m = roots.shape[1]
    if m == 0:
        return 0.0
    g = math.log(r) - np.log(np.abs(roots))
    nxt, ambiguous = _branch_steps(deriv, roots, z)
    cells = np.arange(len(nxt))[:, None]
    prv = np.zeros_like(nxt)  # rows that are no permutation are ambiguous throughout
    prv[cells, nxt] = np.arange(m)
    ahead = g[cells + 1, nxt]
    step = np.abs(ahead - g[:-1])
    inner = slice(1, -1)
    near = step[inner] + step[cells[:-2], prv[cells[:-2], np.arange(m)]] + step[cells[2:], nxt[inner]]
    examined = ((g[1:-2] > 0) != (ahead[inner] > 0)) | (np.abs(g[1:-2]) <= near)
    row, branch = np.nonzero(examined[_PAD - 1:len(roots) - _PAD - 1])
    if len(row) == 0:
        return 0.0
    row += _PAD
    # the branch through each examined (row, root) at the stencil's rows
    branches = {0: branch}
    for k in range(1, _STENCIL[-1] + 1):
        branches[k] = nxt[row + k - 1, branches[k - 1]]
    for k in range(-1, _STENCIL[0] - 1, -1):
        branches[k] = prv[row + k, branches[k + 1]]
    values = np.stack([g[row + k, branches[k]] for k in _STENCIL], axis=1)
    unsure = np.zeros(len(row), dtype=bool)
    for k in _STENCIL[:-1]:
        unsure |= ambiguous[row + k, branches[k]]
    coeffs = values @ _STENCIL_FIT.T
    ends = values[:, _CENTER:_CENTER + 2]
    samples = coeffs @ _SAMPLE_POWERS
    samples[:, 0], samples[:, -1] = ends[:, 0], ends[:, 1]
    positive = samples > 0
    cell, k = np.nonzero(positive[:, 1:] != positive[:, :-1])
    if np.any(unsure[cell]):
        return None
    # each sign change of the interpolant brackets a crossing: the secant
    # of the bracket, then Newton steps kept inside it
    c, rising = coeffs[cell], positive[cell, k + 1]
    lo, hi = _SAMPLES[k], _SAMPLES[k + 1]
    f_lo, f_hi = samples[cell, k], samples[cell, k + 1]
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    degree = len(_STENCIL) - 1
    slope_coeffs = c[:, 1:] * np.arange(1, degree + 1)
    for _ in range(2):
        powers = np.vander(x, degree + 1, increasing=True)
        value = np.sum(c * powers, axis=1)
        slope = np.sum(slope_coeffs * powers[:, :-1], axis=1)
        step = np.divide(value, slope, out=np.zeros_like(value), where=slope != 0)
        x = np.clip(x - step, lo, hi)
    jumps = np.sum(c * (np.vander(x, degree + 2, increasing=True) @ _JUMP_WEIGHTS.T), axis=1)
    return float(np.sum(np.where(rising, jumps, -jumps)))


def _log_spike_error(spikes: np.ndarray, n: int) -> float:
    """Midpoint error on the n-node lattice of -sum_s log|1 - s e(-t)|, the
    log spikes of the fiber sum: where the boundary point r e(t) nears a
    root eta = r s of alpha - alpha(0), a fiber root nears 0.

    Over the midpoints t_k = (k + 1/2)/n, prod_k (1 - s e(-t_k)) = 1 + s^n,
    so the lattice mean of log|1 - s e(-t)| is (1/n) log|1 + s^n| and its
    integral is log max(1, |s|); the error is negligible unless |s| is
    close to 1, and exactly -(log 2)/n for a spike on the circle at t = 1/2.
    """
    inside = np.where(np.abs(spikes) <= 1.0, spikes, 1.0 / spikes)
    return -float(np.sum(np.log(np.abs(1.0 + inside ** n)))) / n


def _origin_fiber(alpha: DiskMap) -> np.ndarray:
    """The nonzero roots of alpha - alpha(0): its e-fold root 0 and its
    constant term are stripped exactly, by dividing out z^e."""
    quotient = alpha.num[alpha.ramification_index():]
    if len(quotient) == 1:
        return np.empty(0, dtype=complex)
    return _batched_roots(np.array([[complex(c) for c in reversed(quotient)]]))[0]


class _BoundaryFibers:
    """Boundary-term integrand of the definitional oracle.

    For each node t: the disk potential log+(r/|zeta|) summed over the fiber of
    alpha through the boundary point z, less the trivial root z, taken as the
    root nearest to it.  ``tangent`` is set once any other fiber root lies
    within the tangency tolerance of the circle at a node, as where a
    crossing falls on a node.  A call solves its nodes as one root batch and
    keeps the level's roots: on a level of twice the previous node count (the
    next ladder level, halved or not), node k starts Newton's steps from the
    roots of old node k // 2, which sits 1/(4n) away on the circle, each
    moved to first order along its fiber; any other call is cold and takes
    eigenvalues.  ``kink_correction`` then reads the level's midpoint error off
    those roots, with no further root solve, and adds that of the log spikes
    at ``origin_fiber``, the nonzero roots of alpha - alpha(0).
    """

    def __init__(self, alpha: DiskMap, r: float):
        self.alpha = alpha
        self.r = r
        self.potential = DiskPotential(0j, r)
        self.coeffs = _poly_coeffs_desc(alpha)
        self.deriv = self.coeffs[:-1] * np.arange(alpha.degree, 0, -1)
        self.tangent = False
        self._nodes = self._roots = self._branches = None

    @cached_property
    def origin_fiber(self) -> np.ndarray:
        """The nonzero roots of alpha - alpha(0), solved on first use."""
        return _origin_fiber(self.alpha)

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        r, n = self.r, len(ts)
        z0 = r * np.exp(2j * np.pi * ts)
        rows = np.tile(self.coeffs, (n, 1))
        rows[:, -1] -= self.alpha(z0)
        start = None
        if self._roots is not None and n == 2 * len(self._roots):
            z_old = r * np.exp(2j * np.pi * self._nodes)
            start = _predicted_start(self.deriv, self._roots, z_old, z0, np.arange(n) // 2)
        roots = _batched_roots(rows, start)
        mask = np.ones(roots.shape, dtype=bool)
        mask[np.arange(n), np.argmin(np.abs(roots - z0[:, None]), axis=1)] = False
        if np.any(mask & (np.abs(np.abs(roots) - r) < BOUNDARY_TANGENCY_TOL)):
            self.tangent = True
        branches = roots[mask].reshape(n, -1)
        contrib = self.potential.values(branches)
        if not np.all(np.isfinite(contrib)):
            raise RootConditioning("fiber root at the singular point")
        self._nodes, self._roots, self._branches = ts, roots, branches
        return np.sum(contrib, axis=1)

    def kink_correction(self, n: int) -> Optional[float]:
        """Midpoint error of the last call on the n-node lattice, its kinks
        (see _lattice_kinks) and its log spikes."""
        kinks = _lattice_kinks(self.deriv, self._branches, self._nodes, self.r, n)
        if kinks is None:
            return None
        return kinks + _log_spike_error(self.origin_fiber / self.r, n)


def _lattice_kinks(deriv: np.ndarray, branches: np.ndarray, ts: np.ndarray,
                   r: float, n: int) -> Optional[float]:
    """Midpoint error of the mean over the n-node lattice of the fiber sum
    sum_w max(0, log(r/|w|)), from its crossings (see _kink_correction):
    ``branches`` holds the roots w over the nodes ``ts``, which are the whole
    lattice or, for a real map, its first half, completed here by the
    conjugate nodes and fibers of the mirrored half.  None when a crossing
    cannot be resolved, or when fewer than 4 stencils span the lattice."""
    if n < 4 * len(_STENCIL) and branches.shape[1]:
        return None
    z = r * np.exp(2j * np.pi * ts)
    if len(z) < n:
        z, branches = (np.concatenate([a, a[::-1].conj()]) for a in (z, branches))

    def padded(a):  # the periodic lattice, continued around the circle
        return np.concatenate([a[-_PAD:], a, a[:_PAD]])

    kinks = _kink_correction(deriv, padded(branches), padded(z), r)
    return None if kinks is None else kinks / n


def overflow_definitional_oracle(alpha: DiskMap, r: float,
                                 settings: QuadratureSettings = DEFAULT_SETTINGS) -> OverflowReport:
    """Excess from its definition: equilibrium potential against fiber divisors.

    Both terms are taken on P at r^K for alpha = P(z^K) (_power_reduction),
    and so are the degree bound and the fiber-range guard.
    term1 sums log(r/|z|) over the nonzero roots of alpha - alpha(0) inside
    the open disk; term2 integrates the same fiber sum along boundary values,
    each level of its circle mean corrected for the kinks where a fiber root
    crosses the circle and for the log spikes where one passes through 0
    (_BoundaryFibers.kink_correction); the certificate is the gap between
    two corrected levels.  A root of alpha - alpha(0) within the tangency
    tolerance of the circle, or any other fiber root within it at a node,
    sets the boundary_tangency flag and marks the value less certain; K > 1
    sets it too, since alpha's fiber through z then holds the roots zeta z
    of the circle, zeta^K = 1.  A real map's fiber sum is even in t
    (conjugate boundary points have conjugate fibers), so its boundary term
    evaluates half of each lattice.
    """
    _require_nonconstant(alpha)
    if not alpha.is_polynomial:
        raise DomainError("definitional oracle requires a polynomial map")
    _require_float_range(alpha, r)
    base, k, radius = _power_reduction(alpha, r)
    if base.degree > ORACLE_DEGREE_BOUND:
        raise UnsupportedDegree(
            f"degree {base.degree} exceeds the oracle bound {ORACLE_DEGREE_BOUND}"
        )
    _require_fiber_range(base, radius)
    e = alpha.ramification_index()

    # term1: fiber of base(0), origin branch stripped exactly
    fibers = _BoundaryFibers(base, radius)
    roots = fibers.origin_fiber
    tangent = bool(np.any(np.abs(np.abs(roots) - radius) < BOUNDARY_TANGENCY_TOL))
    potential = DiskPotential(0j, radius).values(roots)
    if np.any(np.isinf(potential)):
        raise RootConditioning("unexpected fiber root at the origin")
    term1 = float(np.sum(potential))

    term2, cert = circle_mean(
        fibers, settings, label="definitional boundary term",
        even=base.real_coefficients, correction=fibers.kink_correction,
    )
    return OverflowReport(
        term1 + term2, "definitional", "C", r, e,
        certificate=cert, boundary_tangency=k > 1 or tangent or fibers.tangent,
    )


def log_plus_mean(alpha: DiskMap, r: float,
                  settings: QuadratureSettings = DEFAULT_SETTINGS) -> Tuple[float, Certificate]:
    """Mean of log+|alpha| over the circle of radius r, kink-corrected.

    log+|alpha| = log+(1/|w|) with w = q/p is the oracle's fiber sum with w as
    the one branch at radius 1, so each level subtracts the same jump terms
    where |alpha| crosses 1 (_lattice_kinks) and the ladder compares the
    corrected levels.  Near a pole eta of alpha, log+|alpha| is
    -log|1 - (eta/r) e(-t)| plus a smooth term, so each level also subtracts
    the log-spike error at the poles over r.  A map with real coefficients
    has an even integrand.
    """
    nodes = branch = None
    poles = np.empty(0, dtype=complex)
    if not alpha.is_polynomial:
        poles = _batched_roots(np.array([[complex(c) for c in reversed(alpha.den)]]))[0]

    def values(ts: np.ndarray) -> np.ndarray:
        nonlocal nodes, branch
        p, q = alpha.num_den_at(r * np.exp(2j * np.pi * ts))
        nodes, branch = ts, (q / p)[:, None]
        return np.maximum(-np.log(np.abs(branch[:, 0])), 0.0)

    def correction(n: int) -> Optional[float]:
        kinks = _lattice_kinks(None, branch, nodes, 1.0, n)
        return None if kinks is None else kinks + _log_spike_error(poles / r, n)

    with np.errstate(divide="ignore", invalid="ignore"):  # zeros and poles of alpha
        return circle_mean(values, settings, label="log-plus boundary mean",
                           even=alpha.real_coefficients, correction=correction)


# -- bound check and asymptotics ----------------------------------------------

class BoundCheck(Record):
    excess: float
    bound: float
    slack: float
    characteristic: float   # 2 T(r)


def nevanlinna_bound_check(alpha: DiskMap, r: float,
                           settings: QuadratureSettings = DEFAULT_SETTINGS) -> BoundCheck:
    """The P1 excess against its characteristic-function bound
    2T(r) - e log r - log(|jet| / (1 + |alpha(0)|^2)); the slack, bound minus
    excess, is the boundary double integral of the projective diagonal
    kernel, hence >= 0."""
    excess = overflow_to_P1(alpha, r, settings).value
    t_char = nevanlinna_T(alpha, r, "boundary", settings)
    e = alpha.ramification_index()
    jet = abs(complex(alpha.jet()))
    a0 = abs(complex(alpha.value_at_zero()))
    bound = 2.0 * t_char - e * math.log(r) - math.log(jet / (1.0 + a0 * a0))
    return BoundCheck(excess=excess, bound=bound, slack=bound - excess,
                      characteristic=2.0 * t_char)


class AsymptoticFit(Record):
    slope: float
    intercept: float
    max_residual: float
    radii: Tuple[float, ...]
    values: Tuple[float, ...]


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
