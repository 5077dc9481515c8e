"""Exact arithmetic tower: Gaussian rationals, polynomials, rational functions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uvbraid.matrices import Matrix
from uvbraid.scalars import (
    G_I,
    G_ONE,
    G_ZERO,
    GaussianRational,
    MissingVariable,
    MultiPoly,
    PolyRing,
    RatFunc,
    VanishingDenominator,
    parse_gaussian,
    render_gaussian,
)

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
tiny_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# small domains so that equal values across the three types are drawn often
mixed_scalars = st.one_of(
    st.integers(-2, 2),
    tiny_fractions,
    st.builds(GaussianRational, tiny_fractions, st.sampled_from([0, 0, 1])),
)


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(2, -1)
        assert a + b == GaussianRational(Fraction(5, 2), 2)
        assert a - b == GaussianRational(Fraction(-3, 2), 4)
        # (1/2 + 3i)(2 - i) = 1 - 1/2 i + 6i + 3 = 4 + 11/2 i
        assert a * b == GaussianRational(4, Fraction(11, 2))

    def test_i_squares_to_minus_one(self):
        assert G_I * G_I == -G_ONE

    def test_int_coercion_both_sides(self):
        a = GaussianRational(3, 1)
        assert 1 + a == a + 1 == GaussianRational(4, 1)
        assert 2 * a == a * 2
        assert a / 2 == GaussianRational(Fraction(3, 2), Fraction(1, 2))

    @given(gaussians)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == G_ONE

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + G_ZERO == a
        assert a * G_ONE == a

    @given(mixed_scalars, mixed_scalars)
    @example(3, GaussianRational(3))
    @example(Fraction(-1, 2), GaussianRational(Fraction(-1, 2)))
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_pow(self):
        a = GaussianRational(1, 1)
        assert a ** 2 == GaussianRational(0, 2)
        assert a ** 0 == G_ONE
        assert a ** -2 == (a ** 2).inverse()

    @given(gaussians)
    def test_render_parse_roundtrip(self, a):
        assert parse_gaussian(render_gaussian(a)) == a

    def test_parse_forms(self):
        assert parse_gaussian("7") == GaussianRational(7)
        assert parse_gaussian("-2/3") == GaussianRational(Fraction(-2, 3))
        assert parse_gaussian("i") == G_I
        assert parse_gaussian("-i") == -G_I
        assert parse_gaussian("1/2+1/3*i") == GaussianRational(
            Fraction(1, 2), Fraction(1, 3)
        )
        with pytest.raises(ValueError):
            parse_gaussian("x + 1")

    @pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (Fraction(1, 3), 2.0)])
    def test_float_parts_are_refused(self, parts):
        with pytest.raises(TypeError, match="not an exact scalar"):
            GaussianRational(*parts)

    @pytest.mark.parametrize("text", ["1/0", "2/0*i", "1+3/0*i", "-0/0"])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator") as exc:
            parse_gaussian(text)
        assert repr(text) in str(exc.value)


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


class TestMultiPoly:
    def test_construction_and_str(self, ring):
        x, y = ring.rf("x"), ring.rf("y")
        f = (x + y) * (x - y)
        assert str(f.num) == "x^2 - y^2"
        assert str(ring.one()) == "1"
        assert str(ring.zero()) == "0"

    def test_graded_lex_display_order(self, ring):
        x, y, z = (ring.rf(v) for v in "xyz")
        f = (x * y * z + x + y * y + 1).num
        assert str(f) == "x*y*z + y^2 + x + 1"

    def test_evaluate(self, ring):
        f = (ring.rf("x") * ring.rf("x") + 2 * ring.rf("y")).num
        point = {"x": GaussianRational(3), "y": GaussianRational(-1), "z": G_ZERO}
        assert f.evaluate(point) == GaussianRational(7)
        with pytest.raises(MissingVariable):
            f.evaluate({"x": G_ONE})

    def test_substitute_into_other_ring(self, ring):
        target = PolyRing(("u",))
        u = target.rf("u")
        f = (ring.rf("x") * ring.rf("y")).num
        out = f.substitute({"x": u + 1, "y": u - 1, "z": target.rf(0)}, target)
        assert out == u * u - 1

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 4))
    def test_exact_div_inverts_multiplication(self, a, b, e):
        ring = PolyRing(("x", "y"))
        x, y = ring.rf("x"), ring.rf("y")
        p = (x + a) ** e * (y + b)
        q = (x + a) ** e
        assert p.num.exact_div(q.num) == (y + b).num

    def test_exact_div_rejects_inexact(self, ring):
        x, y = ring.rf("x"), ring.rf("y")
        with pytest.raises(ValueError, match="inexact"):
            (x * x + y).num.exact_div((x + y).num)

    def test_monic_scales_leading_coefficient(self, ring):
        x = ring.rf("x")
        f = (3 * x * x + 6).num
        assert str(f.monic()) == "x^2 + 2"


class TestRatFunc:
    def test_monomial_cancellation(self, ring):
        x, y = ring.rf("x"), ring.rf("y")
        f = (x * x * y) / (x * y * y)
        assert f == x / y
        assert str(f) == "x/(y)"

    def test_denominator_made_monic(self, ring):
        x = ring.rf("x")
        f = x / (2 * x + 2)
        assert str(f.den) == "x + 1"

    def test_cross_multiplication_equality(self, ring):
        x, y = ring.rf("x"), ring.rf("y")
        assert (x * x - y * y) / (x + y) == x - y
        assert (x * x - y * y) / (x + y) != x + y

    def test_zero_normalizes_to_canonical_zero(self, ring):
        x = ring.rf("x")
        f = (x - x) / (x + 1)
        assert f.is_zero()
        assert f.den.is_one()

    def test_division_by_zero_raises(self, ring):
        x = ring.rf("x")
        with pytest.raises(VanishingDenominator):
            x / (x - x)

    def test_evaluate_detects_pole(self, ring):
        x = ring.rf("x")
        f = 1 / (x - 1)
        point = {"x": G_ONE, "y": G_ZERO, "z": G_ZERO}
        with pytest.raises(VanishingDenominator):
            f.evaluate(point)
        point["x"] = GaussianRational(3)
        assert f.evaluate(point) == GaussianRational(Fraction(1, 2))

    def test_as_variable(self, ring):
        assert ring.rf("y").as_variable() == "y"
        assert (ring.rf("y") + 1).as_variable() is None
        assert (2 * ring.rf("y")).as_variable() is None

    @given(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9))
    @settings(max_examples=40)
    def test_field_arithmetic_matches_fractions(self, an, ad, bn, bd):
        ring = PolyRing(("x",))
        a = ring.rf(Fraction(an, ad))
        b = ring.rf(Fraction(bn, bd))
        total = a + b
        assert total.is_constant()
        assert total.constant_value() == GaussianRational(
            Fraction(an, ad) + Fraction(bn, bd)
        )

    def test_polynomials_and_rational_functions_are_unhashable(self, ring):
        # ring.const(3) == 3 and (x^2 - 1)/(x - 1) == x + 1 hold, and the
        # removed hashes told each pair apart
        x = ring.rf("x")
        for value in (ring.const(3), (x * x - 1) / (x - 1)):
            with pytest.raises(TypeError):
                hash(value)

    def test_matrices_are_unhashable(self, ring):
        # a hash of the shape alone made every same-shape matrix collide
        with pytest.raises(TypeError):
            hash(Matrix.identity(ring, 2))

    def test_inverse_roundtrip(self, ring):
        x, y = ring.rf("x"), ring.rf("y")
        f = (x + y) / (x - y)
        assert f * f.inverse() == ring.rf(1)
        assert (f.inverse().inverse()) == f
