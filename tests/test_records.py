from fractions import Fraction

import pytest

from overflow_lab.arithmetic import SurfaceDescriptor
from overflow_lab.diffeo import OrbitElement, TruncatedDiffeo
from overflow_lab.errors import DomainError
from overflow_lab.lattice import IntersectionLattice
from overflow_lab.maps import DiskMap, parse_map
from overflow_lab.overflow import AsymptoticFit, BoundCheck, OverflowReport
from overflow_lab.potential import DiskPotential
from overflow_lab.quadrature import Certificate, QuadratureSettings
from overflow_lab.records import Record
from overflow_lab.series import TruncatedSeries


class Point(Record):
    x: int
    y: int = 0


def _report(**changes):
    fields = dict(value=1.5, method="explicit", target="C", radius=2.0,
                  ramification_index=1, certificate=Certificate(1e-6, 1e-8, 256))
    return OverflowReport(**{**fields, **changes})


class TestConstruction:
    def test_by_position_keyword_and_default(self):
        assert Point._fields == ("x", "y")
        assert (Point(1, 2).x, Point(1, 2).y) == (1, 2)
        assert Point(y=2, x=1) == Point(1, 2) == Point(1, y=2)
        assert Point(3).y == 0 and Point(x=3) == Point(3, 0)
        assert QuadratureSettings(tol=1e-3) == QuadratureSettings(256, 1e-3, 6)
        assert QuadratureSettings.base_grid == 256  # a default is still a class attribute

    @pytest.mark.parametrize("make", [
        lambda: Point(),
        lambda: Point(y=1),
        lambda: Point(1, 2, 3),
        lambda: Point(1, z=3),
        lambda: Point(1, x=1),
        lambda: Certificate(1e-6, 1e-8),
    ], ids=["missing", "missing-keyword", "too-many", "unknown", "repeated", "certificate"])
    def test_bad_fields_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_repr_names_the_fields(self):
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"
        assert repr(Certificate(1e-6, 0.25, 512)) == (
            "Certificate(tol=1e-06, achieved=0.25, grid=512)")


class TestFrozen:
    def test_assignment_and_deletion_refused(self):
        settings = QuadratureSettings()
        with pytest.raises(AttributeError):
            settings.tol = 1e-3
        with pytest.raises(AttributeError):
            del settings.tol
        with pytest.raises(AttributeError):
            settings.extra = 1
        assert settings.tol == 1e-6

    def test_hash_by_value(self):
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert {QuadratureSettings(), QuadratureSettings(256, 1e-6, 6)} == {QuadratureSettings()}
        assert len({Certificate(1e-6, 0.1, 64), Certificate(1e-6, 0.2, 64)}) == 2

    def test_reports_frozen_and_hashable(self):
        report = _report()
        with pytest.raises(AttributeError):
            report.value = 2.5
        with pytest.raises(AttributeError):
            del report.boundary_tangency
        assert (report.value, report.boundary_tangency) == (1.5, False)
        assert hash(report) == hash(_report())
        assert {_report(), _report(), _report(target="P1")} == {_report(), _report(target="P1")}
        fit = AsymptoticFit(1.0, 0.0, 0.0, (1.0, 2.0), (0.0, 0.7))
        check = BoundCheck(0.5, 1.0, 0.5, 2.0)
        assert hash(fit) == hash(AsymptoticFit(1.0, 0.0, 0.0, (1.0, 2.0), (0.0, 0.7)))
        assert hash(check) == hash(BoundCheck(0.5, 1.0, 0.5, 2.0))

    def test_normalised_fields(self):
        # __post_init__ may still rewrite a frozen record's fields
        lattice = IntersectionLattice(("E",), ((-2,),), (1,), 0)
        assert lattice.matrix == ((Fraction(-2),),) and type(lattice.cc) is Fraction
        assert TruncatedDiffeo((0.5, 1)).coeffs == (Fraction(1, 2), Fraction(1))
        assert DiskMap((0, 2), (2,)) == DiskMap((0, 1))


class TestEquality:
    def test_by_class_and_field_values(self):
        assert Point(1, 2) == Point(1, 2)
        assert Point(1, 2) != Point(2, 1)
        assert _report() == _report()
        assert _report() != _report(target="P1")

    def test_other_class_with_same_fields_differs(self):
        class Other(Record):
            x: int
            y: int = 0

        assert Point(1, 2) != Other(1, 2)
        assert Point(1, 2) != (1, 2)


class TestValidation:
    @pytest.mark.parametrize("make", [
        lambda: QuadratureSettings(base_grid=3),
        lambda: DiskPotential(radius=0),
        lambda: OrbitElement(0, 1, ()),
        lambda: SurfaceDescriptor(1.0, TruncatedSeries([1, 1])),
    ], ids=["settings", "potential", "orbit", "surface"])
    def test_post_init_raises_domain_error(self, make):
        with pytest.raises(DomainError):
            make()


def test_disk_map_cached_properties():
    alpha = parse_map("z^2+3*z")
    assert not alpha.is_constant()
    assert alpha._wronskian is alpha._wronskian  # computed once, kept on the instance
    assert "_wronskian" in vars(alpha)
    assert (alpha.ramification_index(), alpha.jet()) == (1, 3)
    assert alpha == parse_map("z^2+3*z")  # a cached value is not a field
