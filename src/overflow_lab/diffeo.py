"""Truncated groups of formal diffeomorphisms tangent to the identity.

A level-n element is X + a_2 X^2 + ... + a_{n+1} X^{n+1} modulo X^{n+2},
under composition.  The Haar measure in these coefficients is Lebesgue, the
integer elements form a cocompact lattice, and the unit cube of coefficient
vectors is a fundamental domain.  The group acts on series with fixed leading
term a X^e by phi -> phi o g^{-1}.  Group elements and orbit elements hold
exact Fractions, so composition, inversion, the action and the reduction to
the fundamental domain are exact (a float coefficient converts exactly).
The measure-theoretic facts behind the action are checked in float numpy
batches: the constant Jacobian (e a)^n of the orbit coordinate map, and the
lattice-point counting bound for how often an orbit meets a coefficient box.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import (
    DomainError,
    EnumerationTooLarge,
    LevelMismatch,
    NumericalError,
    StepTooSmall,
)
from .records import Record
from .series import TruncatedSeries, compose, compositional_inverse

ENUMERATION_CAP = 10_000


class TruncatedDiffeo(Record):
    """X plus higher terms, truncated at level n (coefficients a_2..a_{n+1}).

    Coefficients are stored as exact Fractions; a float converts exactly, so
    float(c) gives it back unchanged.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def level(self) -> int:
        return len(self.coeffs)

    def as_series(self, order: int) -> TruncatedSeries:
        return TruncatedSeries([0, 1, *self.coeffs]).truncate(order)


def identity_diffeo(level: int) -> TruncatedDiffeo:
    return TruncatedDiffeo((0,) * level)


def _from_series(s: TruncatedSeries, level: int) -> TruncatedDiffeo:
    return TruncatedDiffeo(tuple(s.truncate(level + 1).coeffs[2:]))


def group_compose(x: TruncatedDiffeo, y: TruncatedDiffeo) -> TruncatedDiffeo:
    """Truncated composition x(y(X)) at the common level."""
    if x.level != y.level:
        raise LevelMismatch(f"levels {x.level} and {y.level}")
    order = x.level + 1
    return _from_series(compose(x.as_series(order), y.as_series(order)), x.level)


def group_invert(x: TruncatedDiffeo) -> TruncatedDiffeo:
    return _from_series(compositional_inverse(x.as_series(x.level + 1)), x.level)


class OrbitElement(Record):
    """Series a X^e + higher terms, truncated at level n beyond the lead."""

    e: int
    a: int
    coeffs: tuple  # coefficients of X^{e+1} .. X^{e+n}, stored as Fractions

    def __post_init__(self):
        if self.e < 1:
            raise DomainError("leading exponent must be >= 1")
        if self.a == 0:
            raise DomainError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def level(self) -> int:
        return len(self.coeffs)

    def as_series(self) -> TruncatedSeries:
        return TruncatedSeries([0] * self.e + [self.a, *self.coeffs])


def act(g: TruncatedDiffeo, phi: OrbitElement) -> OrbitElement:
    """The left action phi o g^{-1}, truncated back to the orbit level."""
    if g.level != phi.level:
        raise LevelMismatch(f"levels {g.level} and {phi.level}")
    order = phi.e + phi.level
    inv = compositional_inverse(g.as_series(order))
    moved = compose(phi.as_series().truncate(order), inv)
    return OrbitElement(phi.e, phi.a, tuple(moved.coeffs[phi.e + 1 :]))


def haar_sample(n: int, seed: int) -> TruncatedDiffeo:
    """Fundamental-domain representative with i.i.d. uniform coefficients."""
    if n < 1:
        raise DomainError("level must be >= 1")
    rng = np.random.default_rng(seed)
    return TruncatedDiffeo(tuple(float(x) for x in rng.uniform(size=n)))


def reduce_to_fundamental(phi: OrbitElement) -> Tuple[TruncatedDiffeo, OrbitElement]:
    """Split an integer orbit element as gamma acting on a domain representative.

    Successive generators X + b X^k shift the coefficient at X^{e+k-1} by
    -a e b without touching lower ones, so each coefficient lands in
    [0, e |a|) in turn; everything stays in exact integers and the returned
    pair reconstructs the input via the group action.
    """
    if any(c.denominator != 1 for c in phi.coeffs):
        raise DomainError("reduction needs integer coefficients")
    n = phi.level
    span = phi.e * abs(phi.a)
    current = phi
    total = identity_diffeo(n)
    ae = phi.e * phi.a
    for k in range(2, n + 2):
        c = int(current.coeffs[k - 2])
        remainder = c % span
        b = (c - remainder) // ae
        if b != 0:
            gen_coeffs = [0] * n
            gen_coeffs[k - 2] = b
            gen = TruncatedDiffeo(tuple(gen_coeffs))
            current = act(gen, current)
            total = group_compose(gen, total)
        assert 0 <= int(current.coeffs[k - 2]) < span
    gamma = group_invert(total)
    return gamma, current


# -- Jacobian of the orbit coordinate map --------------------------------------

def _orbit_coordinates(phi: OrbitElement, points: np.ndarray) -> np.ndarray:
    """Coefficients e+1 .. e+n of phi o g, one row per row g_2..g_{n+1} of points.

    Float Horner in g, phi o g = (..(f_N g + f_{N-1}) g + ..) + f_0 modulo
    X^{N+1}, with N = e + n, over the whole batch at once.
    """
    batch, n = points.shape
    order = phi.e + n
    g = np.zeros((order + 1, batch))
    g[1] = 1.0
    g[2 : n + 2] = points.T
    f = [float(c) for c in phi.as_series().coeffs]
    acc = np.zeros((order + 1, batch))
    acc[0] = f[order]
    for k in range(order - 1, -1, -1):
        acc = _batched_truncated_product(acc, g, order, v_val=1)
        acc[0] += f[k]
    return acc[phi.e + 1 :].T


#: Largest leading exponent of the Jacobian check and of the Monte-Carlo
#: measure.  The check's orbit coordinates take (e + n)^3 interpreted steps:
#: e = 25, 50 and 100 at level 2 took 0.34, 0.70 and 2.9 s, and e = 64 at
#: level 6 takes about a second; the measure's e-fold power loop took 2.4 s
#: at e = 200 on 1000 samples.
MAX_LEADING_EXPONENT = 64


def _jacobian_expected(e: int, a: int, n: int) -> float:
    """The closed form (e a)^n, once the inputs pass the checks that run
    before any sampling: a level in 0..6, a leading exponent in
    1..MAX_LEADING_EXPONENT and (e a)^n in the float range."""
    if not 0 <= n <= 6:
        raise DomainError("finite-difference check needs a level in 0..6")
    if not 1 <= e <= MAX_LEADING_EXPONENT:
        raise DomainError(f"leading exponent must be in 1..{MAX_LEADING_EXPONENT}")
    try:
        return float((e * a) ** n)
    except OverflowError:
        raise DomainError("the Jacobian (e a)^n is outside the float64 range") from None


class JacobianCheck(Record):
    determinant: float
    expected: float
    relative_error: float


def jacobian_check(e: int, a: int, n: int, phi: OrbitElement,
                   g: TruncatedDiffeo, h: float = 1e-3) -> JacobianCheck:
    """Central-difference Jacobian of g -> phi o g against the constant (e a)^n.

    Differencing is deliberately independent of the exact-composition path:
    its purpose is to confirm the closed form, not to reuse it.  Determinants
    at steps h and h/2 must agree, and neither may leave a coordinate
    unchanged, the determinant 0 or the float range.
    """
    expected = _jacobian_expected(e, a, n)
    if phi.e != e or phi.a != a or phi.level != n:
        raise DomainError("orbit element does not match (e, a, n)")
    if g.level != n:
        raise LevelMismatch(f"sample point level {g.level}, expected {n}")
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"step must be positive and finite, got {h!r}")
    if n == 0:
        return JacobianCheck(1.0, 1.0, 0.0)
    base = np.array([float(c) for c in g.coeffs])

    def determinant(step: float) -> float:
        for i in np.flatnonzero((base + step == base) | (base - step == base))[:1]:
            raise StepTooSmall(f"step {step!r} leaves coordinate {i} = {float(base[i])!r}"
                               " unchanged")
        # rows i and n + i move coordinate i by +step and -step
        shift = step * np.eye(n)
        with np.errstate(all="ignore"):
            coords = _orbit_coordinates(phi, np.concatenate([base + shift, base - shift]))
            cols = (coords[:n] - coords[n:]) / (2 * step)
            det = float(np.linalg.det(cols.T))
        if not math.isfinite(det):
            raise NumericalError(f"finite differences leave the float range at step {step!r}")
        if det == 0.0:
            raise StepTooSmall(f"determinant is 0 at step {step!r}")
        return det

    det_h = determinant(h)
    det_h2 = determinant(h / 2)
    scale = max(abs(expected), 1.0)
    if abs(det_h - det_h2) > 1e-5 * scale:
        raise StepTooSmall(
            f"determinant unstable across step halving: {det_h} vs {det_h2}"
        )
    return JacobianCheck(
        determinant=det_h2,
        expected=expected,
        relative_error=abs(det_h2 - expected) / scale,
    )


def sampled_jacobian_check(e: int, a: int, n: int, seed: int,
                           h: float = 1e-3) -> JacobianCheck:
    """jacobian_check at a standard normal orbit tail and a uniform sample
    point drawn from ``seed``, once the inputs pass."""
    _jacobian_expected(e, a, n)
    rng = np.random.default_rng(seed)
    phi = OrbitElement(e, a, tuple(float(x) for x in rng.normal(size=n)))
    g = TruncatedDiffeo(tuple(float(x) for x in rng.uniform(size=n)))
    return jacobian_check(e, a, n, phi, g, h)


# -- Monte-Carlo lattice-box bound ----------------------------------------------
#
# A batch of series is a 2-d array with one row per coefficient and one column
# per series, so that each coefficient of the batch is a contiguous row.  The
# sampler never multiplies a row it knows is zero: a series' coefficients
# below its valuation (inv^k vanishes below X^k), and an inverse's
# coefficients once they are fixed.  Every coefficient still adds its nonzero
# terms in the same order, so the floats, and the counts, are bit for bit
# those of the full loops.

def _batched_truncated_product(u: np.ndarray, v: np.ndarray, order: int,
                               u_val: int = 0, v_val: int = 0) -> np.ndarray:
    """Coefficients 0..order of u v, for u and v zero below u_val and v_val.

    Coefficient k adds u_i v_(k-i) in the order of increasing i.
    """
    out = np.zeros((order + 1, u.shape[1]))
    for i in range(u_val, min(u.shape[0], order + 1 - v_val)):
        top = min(v.shape[0], order + 1 - i)
        out[i + v_val : i + top] += u[i] * v[v_val:top]
    return out


def _batched_inverse(g: np.ndarray, order: int) -> np.ndarray:
    """Compositional inverses of a batch of X + sum a_j X^j, to the order.

    The inverse is the fixed point of inv = X - sum_j g_j inv^j.  Coefficient
    k of inv^j, j >= 2, needs only coefficients of inv below k, so coefficient
    k is fixed in pass k - 1 of the iteration from inv = X, and is computed
    once here, from the same products added in the same order.
    """
    top = g.shape[0] - 1
    inv = np.zeros((order + 1, g.shape[1]))
    inv[1] = 1.0
    # pows[j] = inv^j (j >= 1), filled one coefficient at a time
    pows = [None, inv] + [np.zeros_like(inv) for _ in range(2, top + 1)]
    for k in range(2, order + 1):
        # inv^j = inv^(j-1) inv, whose terms start at i = j - 1
        for i in range(1, k):
            for j in range(2, min(i + 1, top) + 1):
                pows[j][k] += pows[j - 1][i] * inv[k - i]
        correction = np.zeros(g.shape[1])
        for j in range(2, min(k, top) + 1):
            correction += g[j] * pows[j][k]
        inv[k] = -correction
    return inv


def _box_hits(a: int, e: int, span: int, powers: list, box: np.ndarray) -> np.ndarray:
    """Samples for which some tail t_1..t_n in [0, span)^n puts phi o g^{-1} in the box.

    ``powers[i]`` holds inv^{e+i} for each sample's inverse inv = g^{-1}, so
    phi o g^{-1} = a powers[0] + sum_i t_i powers[i].  inv^{e+i} is exactly 0
    below X^{e+i} and exactly 1 at it, so coefficient e+k is the partial sum
    over i < k plus t_k and ignores t_{k+1}..t_n: a depth-first search over
    the tail fixes t_k at depth k and drops a branch's samples as soon as
    their coefficient e+k leaves its box.  Each partial sum adds the terms in
    the order i = 1..n, skipping t_i = 0, from a powers[0].
    """
    n = len(powers) - 1
    in_event = np.zeros(powers[0].shape[1], dtype=bool)
    # (k, samples still inside, their coefficients e+k .. e+n of
    # a powers[0] + sum_{i<k} t_i powers[i])
    stack = [(1, np.arange(in_event.size), a * powers[0][e + 1 :])]
    while stack:
        k, cols, moved = stack.pop()
        for t in range(span):
            coeff = moved[0] + t if t else moved[0]
            inside = np.abs(coeff) <= box[k - 1]
            if not inside.any():
                continue
            if k == n:
                in_event[cols[inside]] = True
                continue
            sub = cols[inside]
            rest = moved[1:, inside]
            if t:
                rest = rest + t * powers[k][e + k + 1 :, sub]
            stack.append((k + 1, sub, rest))
    return in_event


#: Elements of each coefficient array of the sampler, which draws and searches
#: a shard's samples max(1, _BLOCK_ELEMENTS // (order + 1)) at a time, so its
#: memory stays bounded whatever the shard's size.  The generator draws the
#: blocks' rows in order, so the counts are those of one batch, bit for bit.
_BLOCK_ELEMENTS = 1 << 18


class MeasureBoundReport(Record):
    estimate: float
    stderr: float
    paper_bound: float
    product_bound: float
    samples: int
    shards: int
    seed: int
    uninformative: bool


def measure_bound_mc(e: int, a: int, rho: float, box_radius: float, n: int,
                     samples: int = 100_000, seed: int = 0,
                     shards: int = 4) -> MeasureBoundReport:
    """Frequency with which a translated orbit lattice meets a coefficient box.

    Samples the fundamental cube and counts samples g for which some domain
    representative phi = a X^e + t_1 X^{e+1} + .. + t_n X^{e+n}, 0 <= t_k <
    e |a|, has all trailing coefficients of phi o g^{-1} within |coeff_i| <=
    box_radius * rho^{-i}; ``_box_hits`` searches the representatives.  The
    counting bound compares two closed forms: the published exponent
    (n+2e+2)(n-1)/2 and the sharper product-form exponent sum of i = e+1 ..
    e+n; the former is the weaker (larger) bound and is reported as
    ``paper_bound``.
    """
    if n < 1 or n > 4:
        raise DomainError("level must be between 1 and 4")
    if not 1 <= e <= MAX_LEADING_EXPONENT or a == 0:  # e < 1 or a = 0: an empty span e |a|
        raise DomainError(f"need leading exponent e in 1..{MAX_LEADING_EXPONENT} and "
                          f"coefficient a != 0, got {e}, {a}")
    if samples < 1 or shards < 1:
        raise DomainError("need positive samples and shards")
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be positive and finite, got {rho!r}")
    # a zero box is the degenerate event of measure zero
    if not (math.isfinite(box_radius) and box_radius >= 0):
        raise DomainError(f"box radius must be nonnegative and finite, got {box_radius!r}")
    span = e * abs(a)
    if span**n > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"{span}^{n} domain representatives")
    order = e + n
    paper_exponent = (n + 2 * e + 2) * (n - 1) / 2
    product_exponent = sum(range(e + 1, e + n + 1))
    try:
        box = box_radius * np.array([rho ** -(e + 1 + i) for i in range(n)])
        paper_bound = (2 * box_radius) ** n * rho ** (-paper_exponent)
        product_bound = (2 * box_radius) ** n * rho ** (-product_exponent)
    except OverflowError:
        raise DomainError(
            f"the box or bounds overflow at rho {rho!r}, box radius {box_radius!r}"
        ) from None

    hits = 0
    block = max(1, _BLOCK_ELEMENTS // (order + 1))
    # shard k holds samples // shards samples, one more for k < samples % shards;
    # only the first min(shards, samples) hold any
    for shard in range(min(shards, samples)):
        count = samples // shards + (shard < samples % shards)
        rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
        for lo in range(0, count, block):
            g = np.zeros((n + 2, min(block, count - lo)))
            g[1] = 1.0
            g[2:] = rng.uniform(size=(g.shape[1], n)).T
            inv = _batched_inverse(g, order)
            # powers of the inverse: inv^e .. inv^{e+n}
            power = inv
            for k in range(1, e):
                power = _batched_truncated_product(power, inv, order, k, 1)
            powers = [power]
            for k in range(e, e + n):
                powers.append(_batched_truncated_product(powers[-1], inv, order, k, 1))
            hits += int(np.sum(_box_hits(a, e, span, powers, box)))

    estimate = hits / samples
    stderr = math.sqrt(max(estimate * (1 - estimate), 1e-300) / samples)
    return MeasureBoundReport(
        estimate=estimate,
        stderr=stderr,
        paper_bound=paper_bound,
        product_bound=product_bound,
        samples=samples,
        shards=shards,
        seed=seed,
        uninformative=(rho <= 1.0 or paper_bound >= 1.0),
    )
