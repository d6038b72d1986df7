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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (
    CertificateViolation,
    DomainError,
    NotIntegral,
    NotInvertible,
    NotPseudoconcave,
)
from .maps import DiskMap
from .overflow import (
    _BoundaryFibers,
    _batched_roots,
    _characteristic_and_kernel,
    _poly_coeffs_desc,
    _require_fiber_range,
    overflow_to_C,
    overflow_to_P1,
)
from .potential import DiskPotential
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, circle_mean
from .series import (
    TruncatedSeries,
    compose,
    compositional_inverse,
    valuation_and_leading,
)


# -- surfaces and morphisms ---------------------------------------------------

@dataclass(frozen=True)
class SurfaceDescriptor:
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

    @property
    def pseudoconvex(self) -> bool:
        return self.normal_degree < 0


@dataclass(frozen=True)
class MorphismToLine:
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
    if desc.psi.backend != "rational":
        raise DomainError("psi must have rational coefficients")
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

def arithmetic_excess(alpha_hat: TruncatedSeries,
                      norm: Optional[Callable[[Fraction], Fraction]] = None) -> float:
    """log of the norm of the leading non-constant coefficient.

    The default norm is the absolute value (rational base field); other
    number fields may plug in their own norm-to-the-rationals here.
    """
    if alpha_hat.backend != "rational":
        raise DomainError("finite-place excess needs exact coefficients")
    _, a_e = valuation_and_leading(alpha_hat, drop_constant=True)
    size = abs(a_e) if norm is None else abs(norm(a_e))
    return math.log(float(size))


# -- self-intersections -------------------------------------------------------

@dataclass(frozen=True)
class SelfIntersectionA1:
    value: float
    normal_part: float      # e(alpha) * deg
    finite_excess: float
    archimedean_excess: float
    doubled_corollary_value: float  # disputed in-text variant
    boundary_tangency: bool = False

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "parts": {
                "normal": self.normal_part,
                "finite_excess": self.finite_excess,
                "archimedean_excess": self.archimedean_excess,
            },
            "doubled_corollary_value": self.doubled_corollary_value,
            "doubled_corollary_status": "disputed",
        }


def self_intersection_A1(m: MorphismToLine,
                         settings: QuadratureSettings = DEFAULT_SETTINGS,
                         ) -> SelfIntersectionA1:
    """Three-part decomposition of the self-intersection over the affine line."""
    e = m.ramification
    normal_part = e * m.surface.normal_degree
    finite = arithmetic_excess(m.alpha_hat)
    alpha_float = DiskMap(tuple(float(c) for c in m.alpha_an.num))
    r = float(m.surface.radius)
    arch = overflow_to_C(alpha_float, r, settings)
    # the disputed variant doubles the boundary double integral: excess plus jet term
    jet = abs(complex(alpha_float.jet()))
    doubled = 2.0 * (arch.value + (math.log(jet) + arch.ramification_index * math.log(r)))
    return SelfIntersectionA1(
        value=normal_part + finite + arch.value,
        normal_part=normal_part,
        finite_excess=finite,
        archimedean_excess=arch.value,
        doubled_corollary_value=doubled,
        boundary_tangency=arch.boundary_tangency,
    )


_KAPPA_ANGLES = 8
_KAPPA_RADIUS = 1e-2


def _pushforward_potential(alpha: DiskMap, r: float, ws: np.ndarray) -> np.ndarray:
    """For each w: the disk potential log+(r/|zeta|) summed over the fiber of w."""
    batch = np.tile(_poly_coeffs_desc(alpha), (len(ws), 1))
    batch[:, -1] -= ws
    potential = DiskPotential(0j, r).values(_batched_roots(batch))
    if np.any(np.isinf(potential)):
        raise DomainError("fiber hits the disk center")
    return np.sum(potential, axis=1)


def self_intersection_direct_oracle(m: MorphismToLine,
                                    settings: QuadratureSettings = DEFAULT_SETTINGS,
                                    ) -> float:
    """Self-intersection evaluated directly on the pushed-forward divisor.

    The degree part is the constant kappa in the expansion of the direct
    image of the equilibrium potential at the image point, extracted by a
    shrinking-radius limit (angular averages at s and s/2 combined by
    Richardson); the boundary part integrates that direct image against its
    own curvature measure via the fiber root sums.
    """
    if m.alpha_an.degree > 8:
        raise DomainError("direct oracle restricted to degree <= 8")
    alpha = DiskMap(tuple(float(c) for c in m.alpha_an.num))
    r = float(m.surface.radius)
    _require_fiber_range(alpha, r)
    q0 = complex(alpha.value_at_zero())

    def kappa_at(s: float) -> float:
        ws = q0 + s * np.exp(2j * np.pi * (np.arange(_KAPPA_ANGLES) / _KAPPA_ANGLES))
        return float(np.mean(_pushforward_potential(alpha, r, ws))) + math.log(s)

    f1 = kappa_at(_KAPPA_RADIUS)
    f2 = kappa_at(_KAPPA_RADIUS / 2)
    weight = 2.0 ** _KAPPA_ANGLES
    kappa = (weight * f2 - f1) / (weight - 1.0)

    boundary_term, _ = circle_mean(
        _BoundaryFibers(alpha, r), settings,
        label="direct oracle boundary term", even=alpha.real_coefficients,
    )
    return kappa + boundary_term


@dataclass(frozen=True)
class SelfIntersectionP1:
    value: float
    height_part: float      # 2 ht(alpha(0))
    characteristic_part: float  # 2 T(r)
    kernel_part: float      # the subtracted double integral
    upper_bound: float      # height + characteristic parts

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "parts": {
                "height": self.height_part,
                "characteristic": self.characteristic_part,
                "kernel": self.kernel_part,
            },
            "upper_bound": self.upper_bound,
        }


def projective_height(x: Fraction) -> float:
    """Standard height of a rational point on the line, written coprimely."""
    frac = Fraction(x)
    x0, x1 = frac.denominator, frac.numerator
    return 0.5 * math.log(x0 * x0 + x1 * x1)


def self_intersection_P1(m: MorphismToLine,
                         settings: QuadratureSettings = DEFAULT_SETTINGS,
                         ) -> SelfIntersectionP1:
    """Self-intersection over the projective line: heights plus characteristic."""
    alpha = DiskMap(tuple(float(c) for c in m.alpha_an.num))
    r = float(m.surface.radius)
    ht = projective_height(m.constant_term)
    t_char, kernel = _characteristic_and_kernel(alpha, r, settings)
    value = 2.0 * ht + 2.0 * t_char - kernel
    return SelfIntersectionP1(
        value=value,
        height_part=2.0 * ht,
        characteristic_part=2.0 * t_char,
        kernel_part=kernel,
        upper_bound=2.0 * ht + 2.0 * t_char,
    )


# -- the capacity-normalized invariant and degree bounds -----------------------

def D_invariant(m: MorphismToLine,
                settings: QuadratureSettings = DEFAULT_SETTINGS,
                target: str = "A1") -> float:
    """Self-intersection divided by the capacitary normal degree.

    Defined for pseudoconcave surfaces only; always at least the
    ramification index since both excess parts are nonnegative.
    """
    deg = m.surface.normal_degree
    if not (deg > 0):
        raise NotPseudoconcave(f"normal degree {deg} is not positive")
    finite = arithmetic_excess(m.alpha_hat)
    alpha_float = DiskMap(tuple(float(c) for c in m.alpha_an.num))
    if target == "A1":
        arch = overflow_to_C(alpha_float, float(m.surface.radius), settings).value
    elif target == "P1":
        arch = overflow_to_P1(alpha_float, float(m.surface.radius), settings).value
    else:
        raise DomainError(f"unknown target {target!r}")
    return m.ramification + (finite + arch) / deg


@dataclass(frozen=True)
class HolonomyBound:
    degree_bound: int
    d_invariant: float
    cdt_bound: float

    def as_dict(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "d_invariant": self.d_invariant,
            "cdt_bound": self.cdt_bound,
        }


def holonomy_degree_bound(m: MorphismToLine,
                          settings: QuadratureSettings = DEFAULT_SETTINGS,
                          ) -> HolonomyBound:
    """Cap on the degree of the function field over the subfield the map generates.

    The primary bound is the floor of the capacity-normalized invariant; the
    comparison value is the boundary log-plus integral scaled by Euler's
    constant e (the classical holonomy-counting form).
    """
    deg = m.surface.normal_degree
    if not (deg > 0):
        raise NotPseudoconcave(f"normal degree {deg} is not positive")
    d_value = D_invariant(m, settings)
    alpha = DiskMap(tuple(float(c) for c in m.alpha_an.num))
    r = float(m.surface.radius)

    def logplus(ts: np.ndarray) -> np.ndarray:
        z = r * np.exp(2j * np.pi * ts)
        p, q = alpha.num_den_at(z)
        return np.maximum(np.log(np.abs(p / q)), 0.0)

    mean, _ = circle_mean(logplus, settings, label="log-plus boundary mean")
    cdt = math.e * mean / deg
    return HolonomyBound(
        degree_bound=math.floor(d_value + 1e-12),
        d_invariant=d_value,
        cdt_bound=cdt,
    )


# -- section-count bounds -----------------------------------------------------

def dim_bound_C(n: int, d: int) -> int:
    """Sum of the positive parts (n + 1 - i d); grows like n^2 / (2 d)."""
    if d < 1:
        raise DomainError("degree parameter must be >= 1")
    if n < 0:
        return 0
    total = 0
    i = 0
    while n + 1 - i * d > 0:
        total += n + 1 - i * d
        i += 1
    return total


def dim_bound_CNB(n: int, cd, mu: int) -> int:
    """Filtration count with component degree cd (rational) and multiplicity mu."""
    cd = Fraction(cd)
    if cd <= 0:
        raise DomainError("cd must be positive")
    if mu < 1:
        raise DomainError("mu must be >= 1")
    if n < 0:
        return 0
    total = 0
    for i in range(math.floor(Fraction(n) / cd) + 1):
        term = 1 + math.floor(Fraction(n - i * cd) / mu)
        if term > 0:
            total += term
    return total


# -- integer series with decaying composed coefficients ------------------------

@dataclass(frozen=True)
class GrelemResult:
    alpha_hat: TruncatedSeries      # X^e + higher integer terms
    composed: TruncatedSeries       # alpha_hat o psi^{-1}, exact rationals
    lam: Fraction                   # psi'(0)
    certificate_checked: int        # orders verified exactly
    convergent: bool                # |lam| > 1: sup bound applies
    sup_bound: Optional[float]

    def as_dict(self) -> dict:
        return {
            "alpha_hat": [str(c) for c in self.alpha_hat.coeffs],
            "composed": [str(c) for c in self.composed.coeffs],
            "lambda": str(self.lam),
            "certificate_checked": self.certificate_checked,
            "convergent": self.convergent,
            "sup_bound": self.sup_bound,
        }


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
    if psi.backend != "rational":
        raise DomainError("psi must have rational coefficients")
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
