"""Integer-side invariants of glued disk-and-series surfaces.

A surface descriptor is a pointed closed disk of radius r together with a
formal change of coordinate psi (psi(0) = 0, psi'(0) != 0); its capacitary
normal degree is log(r/|psi'(0)|) and the surface is pseudoconcave exactly
when that degree is positive.  A morphism to the affine line glues an
analytic polynomial map with the formal series alpha_hat = alpha_an o psi,
whose integrality up to the working order is certified exactly.

Self-intersection numbers of the pushed-forward equilibrium divisor are
computed two ways: from the three-part decomposition (normal degree times
ramification, finite-place excess, Archimedean excess) and from a direct
evaluation of the intersection pairing.  The in-text corollary that doubles
the boundary double integral is reported alongside, labeled disputed: on the
reference family it exceeds the two agreeing routes by exactly a factor two.

Every boundary quantity is read from the public reports of overflow.py, on
the exact analytic map: the decomposition and D take the explicit excess, the
direct route takes the definitional oracle's fiber sums (Jensen's formula
turns its root sum into the constant kappa), and the projective-line
self-intersection reads overflow.nevanlinna_bound_check, whose slack over the
P1 excess (the same cross integral as `overflow --target P1`) is its kernel.

The float layers (numpy, maps, overflow, quadrature) are imported inside the
functions that integrate, so the exact constructions (the section-count
bounds and the integer series) load none of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import (
    CertificateViolation,
    DomainError,
    NotIntegral,
    NotInvertible,
    NotPseudoconcave,
)
from .records import Record
from .series import (
    TruncatedSeries,
    compose,
    compositional_inverse,
    valuation_and_leading,
)

if TYPE_CHECKING:
    from .maps import DiskMap
    from .quadrature import QuadratureSettings


# -- surfaces and morphisms ---------------------------------------------------

class SurfaceDescriptor(Record):
    """The pair (disk radius, gluing series); degrees are never cached."""

    radius: float
    psi: TruncatedSeries

    def __post_init__(self):
        if not (float(self.radius) > 0):
            raise DomainError("radius must be positive")
        if self.psi.coeffs[0] != 0:
            raise DomainError("psi(0) must vanish")
        if self.psi.order < 1 or self.psi.coeffs[1] == 0:
            raise DomainError("psi'(0) must be nonzero")

    @property
    def normal_degree(self) -> float:
        return math.log(float(self.radius)) - math.log(abs(float(self.psi.coeffs[1])))

    @property
    def pseudoconcave(self) -> bool:
        return self.normal_degree > 0


class MorphismToLine(Record):
    """Glued pair (alpha_hat, alpha_an) with its exact integrality certificate."""

    surface: SurfaceDescriptor
    alpha_an: DiskMap
    alpha_hat: TruncatedSeries
    order: int
    ramification: int

    @property
    def constant_term(self) -> Fraction:
        return self.alpha_hat.coeffs[0]


def build_morphism(desc: SurfaceDescriptor, alpha_an: DiskMap,
                   order: int = 24) -> MorphismToLine:
    """Compose the analytic side with psi exactly and certify integrality.

    Raises NotIntegral with the first offending index when the composed
    series has a non-integer coefficient at or below the working order.
    """
    if not alpha_an.is_polynomial:
        raise DomainError("analytic side must be a polynomial map")
    if not all(isinstance(c, (int, Fraction)) for c in alpha_an.num):
        raise DomainError("analytic side must have rational coefficients")
    if order < max(2, alpha_an.degree):
        raise DomainError("order too small to see the map's coefficients")

    an_series = TruncatedSeries(
        list(alpha_an.num) + [Fraction(0)] * (order + 1 - len(alpha_an.num))
    )
    psi = desc.psi.truncate(order)
    alpha_hat = compose(an_series, psi)
    for k, c in enumerate(alpha_hat.coeffs):
        if c.denominator != 1:
            raise NotIntegral(k, c)
    e_hat, _ = valuation_and_leading(alpha_hat, drop_constant=True)
    e_an = alpha_an.ramification_index()
    if e_hat != e_an:
        raise CertificateViolation(
            f"ramification mismatch: formal {e_hat} vs analytic {e_an}"
        )
    return MorphismToLine(desc, alpha_an, alpha_hat, order, e_hat)


# -- finite-place excess ------------------------------------------------------

def arithmetic_excess(alpha_hat: TruncatedSeries) -> float:
    """log |a_e| of the leading non-constant coefficient (rational base field)."""
    _, a_e = valuation_and_leading(alpha_hat, drop_constant=True)
    return math.log(abs(a_e))


# -- self-intersections -------------------------------------------------------

class SelfIntersectionA1(Record):
    value: float
    normal_part: float      # e(alpha) * deg
    finite_excess: float
    archimedean_excess: float
    doubled_corollary_value: float  # disputed in-text variant


def _jet_term(alpha: DiskMap, r: float) -> float:
    """log|jet| + e log r: the part of the boundary double integral that the
    excess subtracts."""
    return math.log(abs(complex(alpha.jet()))) + alpha.ramification_index() * math.log(r)


def self_intersection_A1(m: MorphismToLine,
                         settings: QuadratureSettings) -> SelfIntersectionA1:
    """Three-part decomposition of the self-intersection over the affine line."""
    from .overflow import overflow_to_C

    e = m.ramification
    normal_part = e * m.surface.normal_degree
    finite = arithmetic_excess(m.alpha_hat)
    r = float(m.surface.radius)
    arch = overflow_to_C(m.alpha_an, r, settings)
    # the disputed variant doubles the boundary double integral: excess plus jet term
    doubled = 2.0 * (arch.value + _jet_term(m.alpha_an, r))
    return SelfIntersectionA1(
        value=normal_part + finite + arch.value,
        normal_part=normal_part,
        finite_excess=finite,
        archimedean_excess=arch.value,
        doubled_corollary_value=doubled,
    )


def self_intersection_direct_oracle(m: MorphismToLine,
                                    settings: QuadratureSettings) -> float:
    """Self-intersection evaluated directly on the pushed-forward divisor.

    The degree part is the constant kappa of the direct image of the
    equilibrium potential log+(r/|zeta|) at alpha(0); Jensen's formula on that
    fiber gives kappa = log|jet| + e log r + sum log(r/|eta|) over the
    nontrivial fiber roots eta inside the disk.  The boundary part integrates
    the direct image against its own curvature measure.  The root sum and the
    boundary part are the two terms of the definitional oracle, so this route
    shares its fiber roots and stays independent of the torus integral and
    of psi.
    """
    from .overflow import overflow_definitional_oracle

    r = float(m.surface.radius)
    oracle = overflow_definitional_oracle(m.alpha_an, r, settings)
    return oracle.value + _jet_term(m.alpha_an, r)


class SelfIntersectionP1(Record):
    value: float
    height_part: float      # 2 ht(alpha(0))
    characteristic_part: float  # 2 T(r)
    kernel_part: float      # the subtracted double integral
    upper_bound: float      # height + characteristic parts


def projective_height(x: Fraction) -> float:
    """Standard height of a rational point on the line, written coprimely."""
    frac = Fraction(x)
    x0, x1 = frac.denominator, frac.numerator
    return 0.5 * math.log(x0 * x0 + x1 * x1)


def self_intersection_P1(m: MorphismToLine,
                         settings: QuadratureSettings) -> SelfIntersectionP1:
    """Self-intersection over the projective line: heights plus characteristic,
    less the kernel, which is the slack of the characteristic bound on the P1 excess."""
    from .overflow import nevanlinna_bound_check

    ht = projective_height(m.constant_term)
    check = nevanlinna_bound_check(m.alpha_an, float(m.surface.radius), settings)
    upper = 2.0 * ht + check.characteristic
    return SelfIntersectionP1(
        value=upper - check.slack,
        height_part=2.0 * ht,
        characteristic_part=check.characteristic,
        kernel_part=check.slack,
        upper_bound=upper,
    )


# -- the capacity-normalized invariant and degree bounds -----------------------

def D_invariant(m: MorphismToLine, settings: QuadratureSettings,
                target: str = "A1") -> float:
    """Self-intersection divided by the capacitary normal degree.

    Defined for pseudoconcave surfaces only; always at least the
    ramification index since both excess parts are nonnegative.
    """
    from .overflow import overflow_to_C, overflow_to_P1

    deg = m.surface.normal_degree
    if not (deg > 0):
        raise NotPseudoconcave(f"normal degree {deg} is not positive")
    finite = arithmetic_excess(m.alpha_hat)
    if target == "A1":
        arch = overflow_to_C(m.alpha_an, float(m.surface.radius), settings).value
    elif target == "P1":
        arch = overflow_to_P1(m.alpha_an, float(m.surface.radius), settings).value
    else:
        raise DomainError(f"unknown target {target!r}")
    return m.ramification + (finite + arch) / deg


class HolonomyBound(Record):
    degree_bound: int
    d_invariant: float
    cdt_bound: float


def holonomy_degree_bound(m: MorphismToLine,
                          settings: QuadratureSettings) -> HolonomyBound:
    """Cap on the degree of the function field over the subfield the map generates.

    The primary bound is the floor of the capacity-normalized invariant; the
    comparison value is the boundary log-plus integral scaled by Euler's
    constant e (the classical holonomy-counting form).  D_invariant raises
    NotPseudoconcave before any boundary integral runs.
    """
    from .overflow import log_plus_mean

    d_value = D_invariant(m, settings)
    mean, _ = log_plus_mean(m.alpha_an, float(m.surface.radius), settings)
    return HolonomyBound(
        degree_bound=math.floor(d_value + 1e-12),
        d_invariant=d_value,
        cdt_bound=math.e * mean / m.surface.normal_degree,
    )


# -- section-count bounds -----------------------------------------------------

def dim_bound_C(n: int, d: int) -> int:
    """Sum of the positive parts (n + 1 - i d); grows like n^2 / (2 d).

    The k = floor(n/d) + 1 positive terms form an arithmetic progression.
    """
    if d < 1:
        raise DomainError("degree parameter must be >= 1")
    if n < 0:
        return 0
    k = n // d + 1
    return k * (n + 1) - d * k * (k - 1) // 2


def _floor_sum(count: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a j + b) / m) over j in range(count), for a, b >= 0 and
    m >= 1, by the Euclid-like reduction in O(log) steps."""
    total = 0
    while True:
        if a >= m:
            total += count * (count - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += count * (b // m)
            b %= m
        top = a * count + b
        if top < m:
            return total
        count, b = divmod(top, m)
        m, a = a, m


def dim_bound_CNB(n: int, cd, mu: int) -> int:
    """Filtration count with component degree cd (rational) and multiplicity mu:
    the sum over i = 0 .. floor(n/cd) of 1 + floor((n - i cd) / mu).

    With cd = a/b, K = floor(n b / a) and c = n b - K a, the index j = K - i
    turns each term into 1 + floor((a j + c) / (b mu)), at least 1, so the
    sum is K + 1 plus a floor sum.
    """
    cd = Fraction(cd)
    if cd <= 0:
        raise DomainError("cd must be positive")
    if mu < 1:
        raise DomainError("mu must be >= 1")
    if n < 0:
        return 0
    a, b = cd.numerator, cd.denominator
    k, c = divmod(n * b, a)
    return k + 1 + _floor_sum(k + 1, b * mu, a, c)


# -- integer series with decaying composed coefficients ------------------------

class GrelemResult(Record):
    alpha_hat: TruncatedSeries      # X^e + higher integer terms
    composed: TruncatedSeries       # alpha_hat o psi^{-1}, exact rationals
    lam: Fraction                   # psi'(0)
    certificate_checked: int        # orders verified exactly
    convergent: bool                # |lam| > 1: sup bound applies
    sup_bound: Optional[float]


def _round_half_toward_zero(x: Fraction) -> int:
    floor = x.numerator // x.denominator
    frac = x - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor if floor >= 0 else floor + 1


def grelem_construct(psi: TruncatedSeries, e: int, order: int) -> GrelemResult:
    """Greedy integer series whose composition with psi^{-1} decays geometrically.

    Coefficient n is the nearest integer (ties toward zero) to the negated
    scaled partial composition, which forces |a_n| <= |lambda|^{-n} / 2
    exactly for every computed order; a violation would be a bug, not an
    input error.
    """
    if e < 1:
        raise DomainError("the leading exponent e must be >= 1")
    if order <= e:
        raise DomainError("order must exceed e")
    if psi.coeffs[0] != 0:
        raise DomainError("psi(0) must vanish")
    lam = psi.coeffs[1]
    if lam == 0:
        raise NotInvertible("psi'(0) vanishes")

    inv = compositional_inverse(psi.truncate(order))
    base = inv
    for _ in range(e - 1):
        base = base * inv
    # base = inv^e; running composition c = alpha_hat o psi^{-1}
    c = base
    alpha_coeffs = [Fraction(0)] * (order + 1)
    alpha_coeffs[e] = Fraction(1)
    power = base
    for n in range(e + 1, order + 1):
        power = power * inv  # inv^n
        p_n = c.coeffs[n]
        a_n = _round_half_toward_zero(-(lam**n) * p_n)
        alpha_coeffs[n] = Fraction(a_n)
        if a_n != 0:
            c = c + a_n * power

    half = Fraction(1, 2)
    bound_base = Fraction(1) / abs(lam)
    for n in range(e + 1, order + 1):
        if abs(c.coeffs[n]) > half * bound_base**n:
            raise CertificateViolation(
                f"composed coefficient at order {n} exceeds the decay bound"
            )

    lam_f = abs(float(lam))
    convergent = lam_f > 1.0
    sup_bound = None
    if convergent:
        sup_bound = (1 - 0.5 / lam_f) / (1 - 1 / lam_f) * lam_f ** (-e)
    return GrelemResult(
        alpha_hat=TruncatedSeries(alpha_coeffs),
        composed=c,
        lam=lam,
        certificate_checked=order,
        convergent=convergent,
        sup_bound=sup_bound,
    )
