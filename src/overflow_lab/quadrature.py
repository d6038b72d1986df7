"""Numerical integration on circles and the torus, plus Nevanlinna characteristics.

Integrands with logarithmic singularities along coincidence curves are handled
by a staggered midpoint product rule: the inner torus lattice is a fixed even
factor finer than the outer one and shifted by a quarter of its cell, so the two
lattices never meet and the diagonal is never sampled.  The leading 1/N error
of the diagonal band is removed by Richardson extrapolation (for the
translation invariant part of the kernel this cancellation is exact at every N).

The torus kernel walks the outer lattice in row blocks of about 2**16 pairs.
Each block's differences are formed in real arithmetic into a few reused
buffers, so the working set stays in cache at every lattice size.

The Ahlfors-Shimizu characteristic T(r) has one boundary formula for every
map, Jensen's formula for the lift (p, q): one circle mean of
log(|p|^2 + |q|^2), poles inside the disk included.  Its independent check is
the area integral against the log(r/|z|) weight, which uses a Gauss rule
generated for the weight u*log(1/u) on (0,1); its recurrence coefficients are
computed once from the exact rational moments 1/(k+2)^2, so the radial rule
converges spectrally for the smooth pullback densities that arise here, and
the accepted level must agree with the rule of half as many radial nodes.

All grid reductions use numpy's pairwise summation; results are deterministic
for fixed settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, NoConvergence, NumericalError
from .maps import DiskMap


@dataclass(frozen=True)
class QuadratureSettings:
    """Grid controls shared by the circle and torus rules.

    ``base_grid`` is the coarsest lattice size (a power of two), doubling up
    to ``max_depth`` times until two successive accepted estimates differ by
    less than ``tol``.
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


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class Certificate:
    """Convergence evidence attached to an accepted estimate."""

    tol: float
    achieved: float
    grid: int


def _midpoints(n: int, offset: float = 0.0) -> np.ndarray:
    return (np.arange(n) + 0.5 + offset) / n


def _richardson_ladder(estimate: Callable[[int], float],
                       settings: QuadratureSettings,
                       label: str) -> Tuple[float, Certificate]:
    """Doubling ladder of the circle and torus rules over ``estimate(n)``, the
    raw rule on n nodes: two successive Richardson pairs 2*I(2N) - I(N) within
    ``tol`` accept the latter, and a non-finite level raises at once."""
    raw_prev = richardson_prev = None
    n = settings.base_grid
    for _ in range(settings.max_depth + 1):
        raw = estimate(n)
        if not math.isfinite(raw):
            raise NumericalError(f"{label}: estimate not finite at grid {n}")
        if raw_prev is not None:
            richardson = 2.0 * raw - raw_prev
            if richardson_prev is not None and abs(richardson - richardson_prev) <= settings.tol:
                return richardson, Certificate(
                    settings.tol, abs(richardson - richardson_prev), n
                )
            richardson_prev = richardson
        raw_prev = raw
        n *= 2
    raise NoConvergence(f"{label}: no convergence at grid {n // 2}")


def circle_mean(values: Callable[[np.ndarray], np.ndarray],
                settings: QuadratureSettings = DEFAULT_SETTINGS,
                label: str = "circle mean",
                even: bool = False) -> Tuple[float, Certificate]:
    """Mean over [0,1) of a periodic integrand, midpoint rule with doubling.

    Integrable log spikes at a fixed offset from the lattice contribute an
    exactly-1/N error term which the Richardson pair removes; for smooth
    periodic integrands the pair converges as fast as the raw sequence.

    ``even`` declares the integrand symmetric under t -> 1 - t.  The midpoint
    lattice of n nodes is symmetric too (node k mirrors node n - 1 - k), so
    each level evaluates ``values`` on its first n/2 nodes only and takes
    their mean, which is the full rule; ladder and certificate are unchanged.
    """

    def estimate(n: int) -> float:
        ts = _midpoints(n)[: n // 2] if even else _midpoints(n)
        return float(np.mean(np.asarray(values(ts), dtype=float)))

    return _richardson_ladder(estimate, settings, label)


#: Inner-lattice refinement of the torus product rule.  Equal-weight circle
#: rules are exponentially accurate except for fiber points within ~1/N of the
#: circle, so refining one axis by a fixed even factor buys that accuracy at
#: linear cost; kept even so the lattices never collide.
_INNER_REFINE = 8

#: Pairs per row block of the torus kernel.  Each reused float64 buffer is then
#: 512 KiB, so the two or three of them stay in a per-core L2 cache; the outer
#: lattice is walked in blocks of max(1, _BLOCK_ELEMENTS // m) rows.
_BLOCK_ELEMENTS = 1 << 16


def torus_pair_log_integral(boundary: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                            settings: QuadratureSettings = DEFAULT_SETTINGS,
                            label: str = "torus log integral") -> Tuple[float, Certificate]:
    """Double integral of log|p(t) q(s) - q(t) p(s)| over the unit torus.

    ``boundary`` evaluates the homogeneous pair (p, q) along the circle
    parameter.  The plain ratio kernel log|f(t) - f(s)| is the case q = 1.
    The two staggered midpoint lattices are refined together, the inner one
    kept a fixed factor finer and shifted by a quarter of its cell so no
    inner node meets an outer one; each level's diagonal-band error is
    exactly proportional to one over the lattice size, which the Richardson
    pair removes.
    """

    def estimate(n: int) -> float:
        m = n * _INNER_REFINE
        p1, q1 = boundary(_midpoints(n))
        p2, q2 = boundary(_midpoints(m, 0.25))
        return 0.5 * _log_cross_sum(p1, q1, p2, q2, label) / (n * m)

    return _richardson_ladder(estimate, settings, label)


def _log_cross_sum(p1, q1, p2, q2, label: str) -> float:
    """Sum of log|p1 q2 - q1 p2|^2 over the product lattice (q = None means 1).

    The outer lattice is walked in row blocks; each block's squared modulus is
    built from real and imaginary parts in reused buffers, its log taken in
    place, and the block sums combined with numpy's pairwise summation.  An
    exactly zero squared modulus (a shared boundary value, or a square that
    underflows) makes a block's sum non-finite; only then is the block rebuilt
    and searched for the zero.
    """
    n, m = len(p1), len(p2)
    rows = max(1, _BLOCK_ELEMENTS // m)
    p1r, p1i = np.ascontiguousarray(p1.real), np.ascontiguousarray(p1.imag)
    p2r, p2i = np.ascontiguousarray(p2.real), np.ascontiguousarray(p2.imag)
    plain = q1 is None
    if not plain:
        q1r, q1i = np.ascontiguousarray(q1.real), np.ascontiguousarray(q1.imag)
        q2r, q2i = np.ascontiguousarray(q2.real), np.ascontiguousarray(q2.imag)
        tmp_buf = np.empty((rows, m))
    re_buf = np.empty((rows, m))
    im_buf = np.empty((rows, m))

    def squared_modulus(lo: int, hi: int) -> np.ndarray:
        re, im = re_buf[: hi - lo], im_buf[: hi - lo]
        a_r, a_i = p1r[lo:hi, None], p1i[lo:hi, None]
        if plain:
            np.subtract(a_r, p2r, out=re)
            np.subtract(a_i, p2i, out=im)
        else:
            # p1 q2 - q1 p2, with p1 = a_r + i a_i and q1 = b_r + i b_i
            b_r, b_i = q1r[lo:hi, None], q1i[lo:hi, None]
            tmp = tmp_buf[: hi - lo]
            np.multiply(a_r, q2r, out=re)
            re -= np.multiply(a_i, q2i, out=tmp)
            re -= np.multiply(b_r, p2r, out=tmp)
            re += np.multiply(b_i, p2i, out=tmp)
            np.multiply(a_r, q2i, out=im)
            im += np.multiply(a_i, q2r, out=tmp)
            im -= np.multiply(b_r, p2i, out=tmp)
            im -= np.multiply(b_i, p2r, out=tmp)
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        return np.add(re, im, out=re)

    starts = range(0, n, rows)
    sums = np.empty(len(starts))
    for b, lo in enumerate(starts):
        hi = min(lo + rows, n)
        sq = squared_modulus(lo, hi)
        with np.errstate(divide="ignore"):
            sums[b] = np.sum(np.log(sq, out=sq))
        if not math.isfinite(sums[b]) and np.any(squared_modulus(lo, hi) == 0.0):
            raise NumericalError(
                f"{label}: lattice hit an exact coincidence of boundary values"
            )
    return float(np.sum(sums))


# -- circle log means -------------------------------------------------------

def circle_log_mean(alpha: DiskMap, c: complex, r: float,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integral over t in [0,1) of log|alpha(r e^{2 pi i t}) - c|."""
    c = complex(c)

    def values(ts: np.ndarray) -> np.ndarray:
        z = r * np.exp(2j * np.pi * ts)
        p, q = alpha.num_den_at(z)
        mod = np.abs(p - c * q)
        if np.any(mod == 0.0):
            raise NumericalError("circle_log_mean: value c attained on the grid")
        return np.log(mod) - np.log(np.abs(q))

    value, _ = circle_mean(values, settings, label="circle_log_mean")
    return value


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

        prev = None
        n_theta = settings.base_grid
        for _ in range(settings.max_depth + 1):
            est = estimate(n_theta, _RADIAL_NODES)
            if prev is not None and abs(est - prev) <= settings.tol:
                coarse = estimate(n_theta, _RADIAL_NODES // 2)
                if abs(est - coarse) > settings.tol:
                    raise NoConvergence(
                        f"nevanlinna area integral: radial rules of {_RADIAL_NODES} and "
                        f"{_RADIAL_NODES // 2} nodes differ by {abs(est - coarse):.3g}"
                    )
                return est
            prev = est
            n_theta *= 2
        raise NoConvergence("nevanlinna area integral did not stabilize")
    raise DomainError(f"unknown method {method!r}")
