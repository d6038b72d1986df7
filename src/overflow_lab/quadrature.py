"""Numerical integration on circles and the torus, plus Nevanlinna characteristics.

Every rule runs one doubling ladder, which accepts a level once it lies within
the tolerance of the level before.  A circle mean's levels are midpoint rules,
less the rule's own error where a caller supplies it (the kinks of a log+
integrand); the torus rule's levels are Richardson pairs.

Integrands with logarithmic singularities along coincidence curves are handled
by a staggered midpoint product rule: the inner torus lattice is a fixed even
factor finer than the outer one and shifted by a quarter of its cell, so the two
lattices never meet and the diagonal is never sampled.  The leading 1/N error
of the diagonal band is removed by pairing each raw level with the one before,
2 I(N) - I(N/2) (for the translation invariant part of the kernel this
cancellation is exact at every N).

The torus kernel sums a level's inner lattice by Graeffe root squaring.  The
inner nodes are the m roots of y^m = -i, so an outer row's sum of
log|p(t) q(s) - q(t) p(s)| is log|prod_j P(y_j)| for the row polynomial
P(y) = q(t) A(y) - p(t) B(y), whose coefficients A and B one FFT reads off the
level's inner values of p and q; the product is one value of P's log2(m)-th
Graeffe iterate, O(d^2 log m) per row with no root solved (Cerlienco, Mignotte
& Piras, J. Symbolic Comput. 4, 1987).  The diagonal root is divided out
exactly first.  Every map is the pair (p, q), a polynomial with q = 1, and
every row is built and evaluated at -i.  Fiber roots of equal modulus whose
powers meet under squaring lose the iterate's accuracy, so every row is run
again as the reciprocal polynomial turned by a fraction of a node, and a row
whose two sums disagree is summed directly, as is every row of a level whose
degree makes a Graeffe row cost at least its m pairs.  The roots zeta e(t),
zeta^K = 1, of a map P(z^K) are such a merging orbit, so the explicit route
integrates P on radius r^K.

The direct sum takes log|q(t)| + log|q(s)| as one sum of logs per lattice and
the differences f(t) - f(s) of f = p/q, first scaled by an exact power of two
when f is far from modulus 1.  It walks the outer rows it is given in row
blocks of about 2**16 pairs into two reused buffers, so the working set stays
in cache, and takes one log per squared modulus.

The Ahlfors-Shimizu characteristic T(r) has one boundary formula for every
map, Jensen's formula for the lift (p, q): one circle mean of
log(|p|^2 + |q|^2), poles inside the disk included.  Its independent check is
the area integral against the log(r/|z|) weight, which uses a Gauss rule
generated for the weight u*log(1/u) on (0,1); its recurrence coefficients are
computed once from the exact rational moments 1/(k+2)^2, so the radial rule
converges spectrally for the smooth pullback densities that arise here.  Its
angular lattice runs the same ladder, and the accepted level must agree with
the rule of half as many radial nodes.

All grid reductions use numpy's pairwise summation; results are deterministic
for fixed settings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, NoConvergence, NumericalError
from .maps import DiskMap
from .records import Record


#: Finest lattice a ladder may reach, base_grid * 2**max_depth.  The settings
#: in use top out at 2**17 nodes and the tightest reference runs at 2**22;
#: settings beyond it are refused before any lattice is allocated.
MAX_LATTICE = 1 << 24


class QuadratureSettings(Record):
    """Grid controls shared by the circle and torus rules.

    ``base_grid`` is the coarsest lattice size (a power of two), doubling up
    to ``max_depth`` times until two successive accepted estimates differ by
    less than ``tol``; the finest lattice, base_grid * 2**max_depth, may not
    exceed MAX_LATTICE.
    """

    base_grid: int = 256
    tol: float = 1e-6
    max_depth: int = 6

    def __post_init__(self):
        if self.base_grid < 2 or (self.base_grid & (self.base_grid - 1)) != 0:
            raise DomainError("base_grid must be a power of two >= 2")
        if not (self.tol > 0):
            raise DomainError("tol must be positive")
        if self.max_depth < 0:
            raise DomainError("max_depth must be nonnegative")
        # in exponents, so a huge depth never builds a huge integer
        if self.base_grid.bit_length() - 1 + self.max_depth > MAX_LATTICE.bit_length() - 1:
            raise DomainError(
                f"base_grid {self.base_grid} doubled {self.max_depth} times exceeds "
                f"the finest lattice {MAX_LATTICE}"
            )


DEFAULT_SETTINGS = QuadratureSettings()


class Certificate(Record):
    """Convergence evidence attached to an accepted estimate."""

    tol: float
    achieved: float
    grid: int


def _midpoints(n: int, offset: float = 0.0) -> np.ndarray:
    return (np.arange(n) + 0.5 + offset) / n


def _ladder(estimate: Callable[[int], Optional[float]],
            settings: QuadratureSettings,
            label: str) -> Tuple[float, Certificate]:
    """Doubling ladder of every circle, torus and area rule over
    ``estimate(n)``, the rule's level on n nodes: two successive levels within
    ``tol`` accept the latter, a non-finite level raises at once, and a level
    of None is compared with neither of its neighbours."""
    prev = delta = None
    n = settings.base_grid
    for _ in range(settings.max_depth + 1):
        level = estimate(n)
        if level is not None and not math.isfinite(level):
            raise NumericalError(f"{label}: estimate not finite at grid {n}")
        if level is not None and prev is not None:
            delta = abs(level - prev)
            if delta <= settings.tol:
                return level, Certificate(settings.tol, delta, n)
        prev = level
        n *= 2
    last = "no two combined levels" if delta is None else f"last delta {delta:.3g}"
    raise NoConvergence(
        f"{label}: no convergence at grid {n // 2} ({last}, tol {settings.tol:.3g})"
    )


def circle_mean(values: Callable[[np.ndarray], np.ndarray],
                settings: QuadratureSettings = DEFAULT_SETTINGS,
                label: str = "circle mean",
                even: bool = False,
                correction: Optional[Callable[[int], Optional[float]]] = None,
                ) -> Tuple[float, Certificate]:
    """Mean over [0,1) of a periodic integrand, midpoint rule with doubling.

    The ladder compares the midpoint levels themselves, which converge
    exponentially for a smooth periodic integrand.

    ``even`` declares the integrand symmetric under t -> 1 - t.  The midpoint
    lattice of n nodes is symmetric too (node k mirrors node n - 1 - k), so
    each level evaluates ``values`` on its first n/2 nodes only and takes
    their mean, which is the full rule; ladder and certificate are unchanged.

    ``correction(n)``, called after each level's values on the n-node
    lattice, returns that level's midpoint error, which is subtracted, or
    None when the level cannot be corrected: an integrand that kinks passes
    its jump terms here, and the ladder skips an uncorrected level.
    """

    def estimate(n: int) -> Optional[float]:
        ts = _midpoints(n)[: n // 2] if even else _midpoints(n)
        mean = float(np.mean(np.asarray(values(ts), dtype=float)))
        if correction is None or not math.isfinite(mean):
            return mean
        error = correction(n)
        return None if error is None else mean - error

    return _ladder(estimate, settings, label)


#: Inner-lattice refinement of the torus product rule.  Equal-weight circle
#: rules are exponentially accurate except for fiber points within ~1/N of the
#: circle, so refining one axis by a fixed even factor buys that accuracy at
#: linear cost; kept even so the lattices never collide.
_INNER_REFINE = 8

#: Pairs per row block of the direct torus sum.  Each of its two reused float64
#: buffers then holds 512 KiB, so both stay in a per-core L2 cache; the outer
#: rows are walked in blocks of max(1, _BLOCK_ELEMENTS // m).
_BLOCK_ELEMENTS = 1 << 16

#: log of the largest |f| = |p/q| on the lattices beyond which the direct sum
#: rescales f; within it f is used as divided.
_RATIO_LOG_LIMIT = 64 * math.log(2.0)


def torus_pair_log_integral(boundary: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                            settings: QuadratureSettings = DEFAULT_SETTINGS,
                            label: str = "torus log integral") -> Tuple[float, Certificate]:
    """Double integral of log|p(t) q(s) - q(t) p(s)| over the unit torus.

    ``boundary`` evaluates the homogeneous pair (p, q) along the circle
    parameter, once on each level's n outer nodes and then on its 8n inner
    ones.  The plain ratio kernel log|f(t) - f(s)| is the case q = 1.
    The two staggered midpoint lattices are refined together, the inner one
    kept a fixed factor finer and shifted by a quarter of its cell so no
    inner node meets an outer one.  The diagonal band adds an error exactly
    proportional to one over the lattice size, so each ladder level is the
    Richardson pair 2 I(N) - I(N/2) of the raw levels, which removes it; the
    first raw level has no pair and is not compared.  A raw level's inner
    sums are Graeffe's (_graeffe_cross_sum), with the direct sum for the rows
    that fail its check; both evaluate the same rule.
    """

    previous = None  # the raw level on half as many nodes

    def estimate(n: int) -> Optional[float]:
        nonlocal previous
        m = n * _INNER_REFINE
        p1, q1 = boundary(_midpoints(n))
        p2, q2 = boundary(_midpoints(m, 0.25))
        raw = 0.5 * _graeffe_cross_sum(p1, q1, p2, q2, label) / (n * m)
        coarse, previous = previous, raw
        if coarse is None:  # no pair yet; a non-finite level still raises at once
            return None if math.isfinite(raw) else raw
        return 2.0 * raw - coarse

    return _ladder(estimate, settings, label)


#: Inner coefficients below this fraction of the largest are the FFT's
#: rounding and are set to zero, so that a row's exponents are exact.
_COEFF_FLOOR = 1e-14

#: A diagonal root is divided out of a row when the division leaves a
#: remainder within this fraction of the row's coefficient 1-norm.
_DEFLATION_REMAINDER = 1e-12

#: A row whose sums for its polynomial and for the check polynomial differ by
#: more than this times m goes to _log_cross_sum.
_CHECK_GAP = 1e-13

#: The check polynomial is the reciprocal of the row turned by this fraction
#: of a turn of its nodes.  Unturned, a row whose roots all lie near the
#: circle is nearly its own reciprocal, and the two Graeffe passes round alike.
_CHECK_TURN = 0.125


def _inner_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients A_0..A_{m-1} of the polynomial taking ``values`` at the
    inner nodes y_j = e((j + 3/4)/m), the roots of y^m = -i: the boundary
    polynomial reduced mod y^m + i, exact for any degree.  Real and imaginary
    parts below _COEFF_FLOOR of the largest modulus are set to zero.  Constant
    values, a polynomial's q, are their own constant coefficient."""
    m = len(values)
    if np.all(values == values[0]):
        a = np.zeros(m, complex)
        a[0] = values[0]
    else:
        a = np.fft.fft(values) / m * np.exp(-1.5j * np.pi * np.arange(m) / m)
    floor = _COEFF_FLOOR * np.max(np.abs(a))
    a.real[np.abs(a.real) < floor] = 0.0
    a.imag[np.abs(a.imag) < floor] = 0.0
    return a


def _scaled(values: np.ndarray, k) -> np.ndarray:
    """``values`` times 2**-k, exactly for every k; an array k scales the
    columns of a 2-d ``values``."""
    parts = np.ascontiguousarray(values, complex).view(float)
    return np.ldexp(parts, -np.repeat(k, 2) if np.ndim(k) else -k).view(complex)


def _graeffe_step(polys: np.ndarray) -> np.ndarray:
    """P(y) P(-y) = E(y^2)^2 - y^2 O(y^2)^2 as a polynomial in y^2, for each
    column P(y) = E(y^2) + y O(y^2) of coefficients (constant term first):
    its roots are the squares of P's."""
    even, odd = polys[0::2], polys[1::2]
    out = np.zeros_like(polys)
    for a, e in enumerate(even):
        out[a: a + len(even)] += e * even
    for a, o in enumerate(odd):
        out[a + 1: a + 1 + len(odd)] -= o * odd
    return out


def _graeffe_iterate(polys: np.ndarray, steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """``steps`` Graeffe steps on each column: the iterate, each column scaled
    by a power of two before every step, and the log of what that took out."""
    log_scale = np.zeros(polys.shape[1])
    for step in range(steps + 1):
        parts = np.max(np.abs(polys.view(float)), axis=0)
        top = np.maximum(parts[0::2], parts[1::2])
        k = np.frexp(top)[1]
        polys = _scaled(polys, k)
        log_scale += k
        if step < steps:
            polys = _graeffe_step(polys)
            log_scale *= 2.0
    return polys, log_scale * math.log(2.0)


def _log_abs_at(iterate: np.ndarray, log_scale: np.ndarray, point: complex) -> np.ndarray:
    """log|e^log_scale R(point)| for each column R of ``iterate``."""
    powers = point ** np.arange(len(iterate))
    return log_scale + np.log(np.abs(np.sum(iterate * powers[:, None], axis=0)))


def _graeffe_cross_sum(p1, q1, p2, q2, label: str) -> float:
    """_log_cross_sum on the lattices of a torus level: p1 at the n outer
    nodes t_i = (i + 1/2)/n, n even, and p2 at the m = 2^k roots of
    y^m = -i, y_j = e((j + 3/4)/m).  The rows _graeffe_rows leaves are
    summed by _log_cross_sum on their own outer values."""
    if not (np.all(q1) and np.all(q2)):
        raise NumericalError(f"{label}: lattice hit a pole")
    ok, total = _graeffe_rows(p1, q1, p2, q2)
    if not np.all(ok):
        total += _log_cross_sum(p1[~ok], q1[~ok], p2, q2, label)
    return total


def _graeffe_rows(p1, q1, p2, q2) -> Tuple[np.ndarray, float]:
    """(ok, sum): the outer rows whose Graeffe inner sums pass their check,
    and _log_cross_sum's sum over those rows.

    Row i's sum of log|K| over the inner lattice is log|prod_j P_i(y_j)| for
    P_i(y) = q(t_i) A(y) - p(t_i) B(y), where A and B are p's and q's
    coefficients on the inner lattice.  The diagonal root y = e(t_i) is
    divided out of P_i, and its lattice term is exactly
    log|e(m t_i) + i| = (1/2) log 2; the rest is log|P_i's log2(m)-th
    Graeffe iterate at -i|.  Each row is checked against the reciprocal of
    P_i(y e(_CHECK_TURN / m)), which has the same modulus at the turned
    nodes, and is ok when its two sums are within _CHECK_GAP m.  No row is
    ok when p2 or q2 vanishes throughout or is not finite, or when a row's
    Graeffe products, (deg + 1)^2 per step, are at least its m pairs.
    """
    n, m = len(p1), len(p2)
    tops = [float(np.max(np.abs(v))) for v in (p2, q2)]
    if not all(0.0 < top < math.inf for top in tops):
        return np.zeros(n, dtype=bool), 0.0
    # p and q scaled by powers of two to a largest modulus in [1, 2), so a
    # polynomial's q = 1 stays as it is: log|K| gains kp + kq
    kp, kq = (math.frexp(top)[1] - 1 for top in tops)
    a, f1 = _inner_coefficients(_scaled(p2, kp)), _scaled(p1, kp)
    b, g1 = _inner_coefficients(_scaled(q2, kq)), _scaled(q1, kq)
    deg = int(np.flatnonzero((a != 0) | (b != 0))[-1])
    steps = m.bit_length() - 1
    if m <= (deg + 1) ** 2 * steps:  # a row costs Graeffe at least m pairs
        return np.zeros(n, dtype=bool), 0.0
    polys = a[: deg + 1, None] * g1 - b[: deg + 1, None] * f1

    # synthetic division by y - e(t_i), kept where the remainder vanishes
    diagonal = np.zeros(n, dtype=bool)
    if deg >= 1:
        roots = np.exp(1j * np.pi * (2 * np.arange(n) + 1) / n)
        quotient = np.zeros_like(polys)
        acc = polys[deg]
        for k in range(deg - 1, -1, -1):
            quotient[k] = acc
            acc = polys[k] + roots * acc
        diagonal = np.abs(acc) <= _DEFLATION_REMAINDER * np.sum(np.abs(polys), axis=0)
        polys[:, diagonal] = quotient[:, diagonal]

    turn = np.exp(2j * np.pi * _CHECK_TURN * np.arange(deg + 1) / m)
    check = np.conj((polys * turn[:, None])[::-1])
    with np.errstate(all="ignore"):
        iterate, log_scale = _graeffe_iterate(np.concatenate([polys, check], axis=1), steps)
        direct = _log_abs_at(iterate[:, :n], log_scale[:n], -1j)
        checked = _log_abs_at(iterate[:, n:], log_scale[n:],
                              -1j * np.exp(-2j * np.pi * _CHECK_TURN))
        ok = np.abs(direct - checked) <= _CHECK_GAP * m
    shift = m * (kp + kq) * math.log(2.0) + diagonal * (0.5 * math.log(2.0))
    return ok, 2.0 * float(np.sum(direct[ok] + shift[ok]))


def _log_cross_sum(p1, q1, p2, q2, label: str) -> float:
    """Sum of log|K|^2, K = p1 q2 - q1 p2, over the product lattice.

    |K|^2 = |q1|^2 |q2|^2 |f1 - f2|^2 with f = p/q: the q factors are one sum
    of logs per lattice, q exactly 0 raises, and f is divided by a power of
    two near the geometric mean of its largest and smallest nonzero modulus
    when max|f| lies beyond 2**+-64.  Each row block puts its squared
    moduli |f1 - f2|^2 into two reused buffers, built in real arithmetic,
    and adds the sum of their logs.  A block whose sum is -inf holds an
    exactly zero squared modulus (a shared boundary value, or a square that
    underflows) and raises.  Block sums combine pairwise.
    """
    n, m = len(p1), len(p2)
    if not (np.all(q1) and np.all(q2)):
        raise NumericalError(f"{label}: lattice hit a pole")
    log_q1, log_q2 = np.log(np.abs(q1)), np.log(np.abs(q2))
    with np.errstate(divide="ignore"):  # log 0 = -inf where p vanishes
        log_f = np.concatenate([np.log(np.abs(p1)) - log_q1, np.log(np.abs(p2)) - log_q2])
    top = np.max(log_f)
    bottom = np.min(log_f[log_f > -math.inf], initial=top)
    # f = (p 2^-k) / q with 2^k near the geometric mean of the largest and
    # smallest nonzero |f|, so that the squares |f1 - f2|^2 of values that
    # span up to about 2**1000 stay in the float range; the sum gets back
    # 2 k log 2 per pair, and log|q|^2 = 2 log|q| once per row and column
    k = (int(round(0.5 * (top + bottom) / math.log(2.0)))
         if _RATIO_LOG_LIMIT < abs(top) < math.inf else 0)
    f1, f2 = (_scaled(p, k) / q for p, q in ((p1, q1), (p2, q2)))
    q_sum = m * np.sum(log_q1) + n * np.sum(log_q2) + n * m * k * math.log(2.0)
    total = float(2.0 * q_sum)
    rows = max(1, _BLOCK_ELEMENTS // m)
    f1r, f1i = np.ascontiguousarray(f1.real), np.ascontiguousarray(f1.imag)
    f2r, f2i = np.ascontiguousarray(f2.real), np.ascontiguousarray(f2.imag)
    bufs = [np.empty((rows, m)) for _ in range(2)]
    starts = range(0, n, rows)
    sums = np.empty(len(starts))
    for b, lo in enumerate(starts):
        hi = min(lo + rows, n)
        re, sq = (buf[: hi - lo] for buf in bufs)
        np.subtract(f1r[lo:hi, None], f2r, out=re)
        re *= re
        np.subtract(f1i[lo:hi, None], f2i, out=sq)
        sq *= sq
        sq += re
        with np.errstate(divide="ignore"):
            sums[b] = np.sum(np.log(sq, out=sq))
        if sums[b] == -math.inf:
            raise NumericalError(f"{label}: lattice hit an exact coincidence of boundary values")
    return total + float(np.sum(sums))


# -- Gauss rule for the weight u log(1/u) on (0,1) --------------------------

def _chebyshev_recurrence(n: int):
    """Three-term recurrence for the weight u*log(1/u) du on (0,1), exact."""
    moments = [Fraction(1, (l + 2) ** 2) for l in range(2 * n)]
    sigma_prev = [Fraction(0)] * (2 * n)
    sigma = list(moments)
    alpha = [moments[1] / moments[0]]
    beta = [moments[0]]
    for k in range(1, n):
        sigma_next = [Fraction(0)] * (2 * n)
        for l in range(k, 2 * n - k):
            sigma_next[l] = (
                sigma[l + 1]
                - alpha[k - 1] * sigma[l]
                - beta[k - 1] * sigma_prev[l]
            )
        alpha.append(sigma_next[k + 1] / sigma_next[k] - sigma[k] / sigma[k - 1])
        beta.append(sigma_next[k] / sigma[k - 1])
        sigma_prev, sigma = sigma, sigma_next
    return alpha, beta


@lru_cache(maxsize=None)
def gauss_log_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating f against u*log(1/u) du on (0,1)."""
    alpha, beta = _chebyshev_recurrence(n)
    jacobi = np.zeros((n, n))
    for k in range(n):
        jacobi[k, k] = float(alpha[k])
    for k in range(1, n):
        off = math.sqrt(float(beta[k]))
        jacobi[k, k - 1] = jacobi[k - 1, k] = off
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = float(beta[0]) * vecs[0, :] ** 2
    return nodes, weights


# -- Nevanlinna characteristic ----------------------------------------------

def _fubini_study_density(alpha: DiskMap, z: np.ndarray) -> np.ndarray:
    """Density of the pulled-back Fubini-Study form against dx dy, pole-safe."""
    wn, q2 = alpha.derivative_num_den_at(z)
    p, q = alpha.num_den_at(z)
    denom = (np.abs(q) ** 2 + np.abs(p) ** 2) ** 2
    return (np.abs(wn) ** 2) / (np.pi * denom)


#: Radial Gauss nodes of the area route; its accepted level is checked against
#: the rule of half as many nodes, which must agree within the tolerance.
_RADIAL_NODES = 48


def nevanlinna_T(alpha: DiskMap, r: float, method: str = "boundary",
                 settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Ahlfors-Shimizu characteristic of alpha = p/q at radius r.

    boundary:  Jensen's formula for the lift (p, q), valid for every map,
               poles inside the disk included:
               (1/2) int log(|p|^2 + |q|^2)(r e(t)) dt - (1/2) log(|p(0)|^2 + |q(0)|^2).
    area:      int over the disk of log(r/|z|) against the pulled-back
               Fubini-Study form, in polar coordinates with the log weight
               absorbed into the radial Gauss rule; the independent check of
               the boundary formula.
    """
    if alpha.is_constant():
        return 0.0
    if method == "boundary":

        def values(ts: np.ndarray) -> np.ndarray:
            z = r * np.exp(2j * np.pi * ts)
            p, q = alpha.num_den_at(z)
            return np.log(np.abs(p) ** 2 + np.abs(q) ** 2)

        mean, _ = circle_mean(values, settings, label="nevanlinna boundary")
        p0, q0 = complex(alpha.num[0]), complex(alpha.den[0])
        return 0.5 * mean - 0.5 * math.log(abs(p0) ** 2 + abs(q0) ** 2)
    if method == "area":

        def estimate(n_theta: int, radial_nodes: int) -> float:
            nodes, weights = gauss_log_rule(radial_nodes)
            phases = np.exp(2j * np.pi * _midpoints(n_theta))
            total = 0.0
            for u, w in zip(nodes, weights):
                dens = _fubini_study_density(alpha, r * u * phases)
                total += w * float(np.mean(dens))
            return 2.0 * math.pi * r * r * total

        value, cert = _ladder(lambda n: estimate(n, _RADIAL_NODES), settings,
                              "nevanlinna area integral")
        gap = abs(value - estimate(cert.grid, _RADIAL_NODES // 2))
        if gap > settings.tol:
            raise NoConvergence(
                f"nevanlinna area integral: radial rules of {_RADIAL_NODES} and "
                f"{_RADIAL_NODES // 2} nodes differ by {gap:.3g} at grid {cert.grid}"
            )
        return value
    raise DomainError(f"unknown method {method!r}")
