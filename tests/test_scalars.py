"""Exact arithmetic tower: Gaussian rationals, polynomials, rational functions."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import uvbraid.scalars
from uvbraid import cli
from uvbraid.analysis import burnside_dim, generate_constraints, spin, verify_relations
from uvbraid.groups import make_spec
from uvbraid.matrices import Matrix
from uvbraid.reps import build_local_rep
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

from test_matrices import dense_integer_parts

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
tiny_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# small domains so that equal values across the three types are drawn often
mixed_scalars = st.one_of(
    st.integers(-2, 2),
    tiny_fractions,
    st.builds(GaussianRational, tiny_fractions, st.sampled_from([0, 0, 1])),
)

_XYZ = PolyRing(("x", "y", "z"))
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), gaussians, max_size=4
).map(lambda terms: MultiPoly(_XYZ, {_XYZ.monomial(e): c for e, c in terms.items() if c}))


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


class FractionGaussian:
    """Reference Q(i): a pair of Fraction parts, the form GaussianRational
    had before it moved to (a + b*i)/d over ints."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return FractionGaussian(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionGaussian(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionGaussian(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return FractionGaussian(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = FractionGaussian(1)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self):
        return not self.re and not self.im

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = {1: "i", -1: "-i"}.get(self.im, f"{self.im}*i")
        if not self.re:
            return imag
        return f"{self.re}{'+' if self.im > 0 else ''}{imag}"


# denominators up to 12 share factors often, so sums and products reduce
wide_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
wide_gaussians = st.one_of(
    st.builds(GaussianRational, wide_fractions, wide_fractions),
    st.builds(GaussianRational, wide_fractions),
    st.builds(GaussianRational, st.integers(-9, 9), st.integers(-9, 9)),
    st.just(G_ZERO),
)


def _ref(g: GaussianRational) -> FractionGaussian:
    return FractionGaussian(g.re, g.im)


def _assert_canonical(g):
    assert type(g) is GaussianRational
    assert all(type(x) is int for x in (g.a, g.b, g.d))
    assert g.d > 0 and math.gcd(g.a, g.b, g.d) == 1
    if not g.a and not g.b:
        assert (g.a, g.b, g.d) == (0, 0, 1)


def _assert_agrees(g, ref):
    _assert_canonical(g)
    assert (g.re, g.im) == (ref.re, ref.im)


class TestGaussianRationalAgainstFractionPairs:
    """The (a + b*i)/d kernel against the Fraction-pair reference."""

    @given(wide_gaussians, wide_gaussians)
    @settings(max_examples=300)
    def test_field_operations(self, x, y):
        rx, ry = _ref(x), _ref(y)
        _assert_agrees(x + y, rx + ry)
        _assert_agrees(x - y, rx - ry)
        _assert_agrees(x * y, rx * ry)
        _assert_agrees(-x, FractionGaussian(0) - rx)
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inverse()
        else:
            _assert_agrees(x / y, rx / ry)
            _assert_agrees(y.inverse(), ry.inverse())
        assert (x == y) == ((rx.re, rx.im) == (ry.re, ry.im))
        assert x == GaussianRational(x.re, x.im)

    @given(wide_gaussians, st.one_of(st.integers(-30, 30), wide_fractions))
    def test_mixed_operands(self, x, q):
        rx, rq = _ref(x), FractionGaussian(q)
        _assert_agrees(x + q, rx + rq)
        _assert_agrees(q + x, rx + rq)
        _assert_agrees(x - q, rx - rq)
        _assert_agrees(q - x, rq - rx)
        _assert_agrees(x * q, rx * rq)
        _assert_agrees(q * x, rx * rq)
        if q:
            _assert_agrees(x / q, rx / rq)
        if not x.is_zero():
            _assert_agrees(q / x, rq / rx)
        assert (x == q) == (rx.re == q and not rx.im)

    @given(wide_gaussians, st.integers(-6, 6))
    def test_powers(self, x, k):
        if x.is_zero() and k < 0:
            with pytest.raises(ZeroDivisionError):
                x ** k
        else:
            _assert_agrees(x ** k, _ref(x) ** k)

    @given(wide_gaussians)
    def test_str_and_parse_round_trip(self, x):
        text = str(x)
        assert text == render_gaussian(x) == str(_ref(x))
        _assert_agrees(parse_gaussian(text), _ref(x))
        assert repr(x) == f"GaussianRational({x.re!r}, {x.im!r})"

    @given(wide_fractions, wide_fractions, st.integers(1, 6))
    def test_parse_reduces_unreduced_text(self, re, im, k):
        # "2/4+6/8*i" reads as 1/2+3/4*i, the canonical form
        text = f"{re.numerator * k}/{re.denominator * k}"
        if im:
            sign = "+" if im > 0 else "-"
            text += f"{sign}{abs(im.numerator) * k}/{im.denominator * k}*i"
        _assert_agrees(parse_gaussian(text), FractionGaussian(re, im))

    @pytest.mark.parametrize("value", [
        GaussianRational(0), GaussianRational(-0), G_ONE - G_ONE,
        GaussianRational(Fraction(1, 3), Fraction(-1, 3)) * 0,
        G_I * G_I + 1, GaussianRational(Fraction(0, 5), Fraction(0, 7)),
    ])
    def test_zero_is_zero_zero_one(self, value):
        assert (value.a, value.b, value.d) == (0, 0, 1)
        assert value.is_zero() and not value

    def test_constructor_reaches_canonical_form(self):
        g = GaussianRational(Fraction(1, 6), Fraction(-3, 4))
        assert (g.a, g.b, g.d) == (2, -9, 12)
        g = GaussianRational(Fraction(5, 2), 3)
        assert (g.a, g.b, g.d) == (5, 6, 2)
        assert GaussianRational(True).a == 1 and type(GaussianRational(True).a) is int
        assert GaussianRational("3/9", "-2") == GaussianRational(Fraction(1, 3), -2)

    def test_from_ints_normalizes_sign_and_gcd(self):
        g = GaussianRational.from_ints(4, -6, -8)
        assert (g.a, g.b, g.d) == (-2, 3, 4)
        assert GaussianRational.from_ints(0, 0, -7) == G_ZERO
        with pytest.raises(ZeroDivisionError):
            GaussianRational.from_ints(1, 1, 0)

    def test_parts_are_read_only_fractions(self):
        g = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        assert (g.re, g.im) == (Fraction(1, 2), Fraction(3, 4))
        assert type(g.re) is Fraction
        with pytest.raises(AttributeError):
            g.re = Fraction(1)

    @given(st.one_of(st.integers(), st.fractions()))
    @example(2 ** 61 - 1)
    @example(Fraction(1, 2 ** 61 - 1))  # the denominator is the hash modulus
    @example(Fraction(-7, 3 * (2 ** 61 - 1)))
    @example(-1)  # hash(-1) is -2
    @example(Fraction(-1, 1))
    def test_real_values_hash_like_the_rational(self, x):
        g = GaussianRational(x)
        assert g == x and hash(g) == hash(x)

    @given(st.lists(st.lists(wide_gaussians, min_size=3, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_integer_terms_match_the_fraction_lcm(self, rows):
        """The old computation: lcm of every part's Fraction denominator."""
        m = Matrix.from_rows(PolyRing(("x",)), rows)
        parts = [[x.re for x in r] for r in rows], [[x.im for x in r] for r in rows]
        lcm = math.lcm(*(q.denominator for part in parts for r in part for q in r))
        want = tuple([[q.numerator * (lcm // q.denominator) for q in r] for r in part]
                     for part in parts)
        assert dense_integer_parts(m) == (*want, lcm)


@pytest.fixture
def fraction_builds(monkeypatch):
    """Every Fraction built while the fixture is live, through a counting
    wrapper of ``Fraction.__new__`` on the class ``uvbraid.scalars`` uses
    (Fraction arithmetic builds its results there too)."""
    cls = uvbraid.scalars.Fraction
    original = cls.__new__
    built = []

    def counted(klass, *args, **kwargs):
        built.append(args)
        return original(klass, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    return built


class TestNoFractionInTheArithmeticPath:
    def test_the_counter_sees_fractions(self, fraction_builds):
        assert (G_ONE / 2).re == Fraction(1, 2)
        assert len(fraction_builds) >= 1

    def test_symbolic_verification(self, fraction_builds):
        spec = make_spec("uv", 6, 3)
        assert verify_relations(build_local_rep("upsilon", spec), spec).all_passed
        assert fraction_builds == []

    def test_constraint_generation(self, fraction_builds):
        system = generate_constraints(2, make_spec("uv", 4, 1))
        assert len(system.equations) == 15
        assert fraction_builds == []

    def test_span_engines_at_an_integer_point(self, fraction_builds):
        rep = build_local_rep(
            "upsilon-prime", make_spec("uv", 5, 1),
            {"s1_1": 2, "s2_1": -3, "s3_1": 5, "s4_1": 7},
        )
        mats = [m for _g, m in rep.generator_images()]
        assert burnside_dim(mats) == 25
        e1 = Matrix.column(rep.ring, [1, 0, 0, 0, 0])
        assert len(spin(mats, [e1])) == 5
        assert fraction_builds == []


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

    @given(polys, st.tuples(*[st.integers(-3, 3)] * 3))
    @settings(max_examples=60)
    def test_evaluate_agrees_with_substitution_into_the_constants(self, f, values):
        point = dict(zip(_XYZ.vars, values))
        assert f.evaluate(point) == f.substitute(point, PolyRing(())).constant_value()

    def test_only_the_variables_that_occur_are_read(self, ring):
        f = (ring.rf("x") * ring.rf("x") + 2).num
        point = {"x": 3, "y": 0.5, "w": 1}
        assert f.evaluate(point) == GaussianRational(11)
        assert f.substitute(point, PolyRing(())) == 11
        with pytest.raises(TypeError, match="not a scalar: 0.5"):
            f.evaluate({"x": 0.5})

    def test_an_unbound_variable_that_occurs_raises(self, ring):
        f = (ring.rf("x") * ring.rf("y") + ring.rf("z")).num
        with pytest.raises(MissingVariable, match="no value bound for 'y'"):
            f.evaluate({"x": 1, "z": 0.5})
        with pytest.raises(MissingVariable, match="does not bind 'y'"):
            f.substitute({"x": 1, "z": 2}, PolyRing(()))

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

    def test_exact_div_refuses_a_quotient_that_borrows_across_fields(self, ring):
        x, y, z = (ring.var(v) for v in ring.vars)
        # x*z - y as ints is a positive monomial with a negative y exponent;
        # y / z borrows from the lowest variable field, y / x from the top one
        for num, den in [(x * z, y), (x ** 2, x * y), (z, y), (x * y ** 2, x ** 2),
                         (y, z), (y, x)]:
            with pytest.raises(ValueError, match="inexact"):
                num.exact_div(den)
        assert (x * z * y).exact_div(x * y) == z

    @given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 6), gaussians, max_size=8))
    @settings(max_examples=80)
    def test_int_order_is_graded_lex_order(self, terms):
        ring = PolyRing(("a", "b", "c", "d", "e", "f"))
        p = MultiPoly(ring, {ring.monomial(e): c for e, c in terms.items() if c})
        decoded = [ring.exponents(m) for m in sorted(p.terms, reverse=True)]
        assert decoded == sorted(decoded, key=lambda e: (sum(e), e), reverse=True)
        assert set(decoded) == {e for e, c in terms.items() if c}
        if p.terms:
            assert ring.exponents(p.leading()[0]) == decoded[0]

    def test_products_and_powers_past_the_degree_limit_are_refused(self, monkeypatch):
        monkeypatch.setattr(uvbraid.scalars, "_FIELD_BITS", 2)  # degrees up to 3
        ring = PolyRing(("x", "y"))
        x, y = ring.var("x"), ring.var("y")
        square = x * x + y
        assert str(square * y) == "x^2*y + y^2"
        with pytest.raises(ValueError, match="^exponents up to 4 exceed the "
                           "packed-monomial field limit 3$"):
            square * square
        with pytest.raises(ValueError, match="^exponents up to 4 exceed .* limit 3$"):
            (x * y) * (x * x + 1)
        assert str((x + y) ** 3) == "x^3 + 3*x^2*y + 3*x*y^2 + y^3"
        with pytest.raises(ValueError, match="^exponents up to 6 exceed .* limit 3$"):
            square ** 3
        with pytest.raises(ValueError, match="^exponents up to 4 exceed .* limit 3$"):
            ring.monomial((4, 0))
        with pytest.raises(ValueError, match="exponents up to 4 exceed .* limit 3"):
            ring.rf("x") ** 4

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

    @given(polys, polys.filter(lambda p: not p.is_zero()))
    @example(_XYZ.var("x") * _XYZ.var("y") - _XYZ.var("z"),
             _XYZ.var("x") * _XYZ.var("y") - _XYZ.var("z"))
    @settings(max_examples=80)
    def test_constructor_brings_every_pair_to_the_normal_form(self, num, den):
        f = RatFunc(num, den)
        assert f.den.leading()[1] == G_ONE
        terms = [_XYZ.exponents(m) for m in [*f.num.terms, *f.den.terms]]
        assert [min(e[v] for e in terms) for v in range(3)] == [0, 0, 0]
        assert (f.num * den).terms == (num * f.den).terms
        if f.num.terms == f.den.terms:
            assert f.den.is_one()

    def test_a_pair_with_equal_parts_is_one(self, ring):
        x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
        p = x * y - z
        f = RatFunc(p, p)
        assert (f.num.terms, f.den.terms) == (ring.one().terms, ring.one().terms)
        assert str(f) == "1"
        # equal values that still print apart, as the module docstring says
        x = ring.rf("x")
        assert (x * x - 1) / (x - 1) == x + 1
        assert str((x * x - 1) / (x - 1)) == "(x^2 - 1)/(x - 1)"

    @given(polys, polys.filter(lambda p: not p.is_zero()))
    @settings(max_examples=60)
    def test_powers_are_the_k_fold_products(self, num, den):
        f = RatFunc(num, den)
        # -1 and +-i over a non-constant denominator: see the next test
        assume(f.den.is_one() or not any(f == z for z in (-1, G_I, -G_I)))
        product = _XYZ.rf(1)
        for k in range(5):
            power = f ** k
            assert (power.num.terms, power.den.terms) == (product.num.terms, product.den.terms)
            product = product * f

    def test_a_root_of_unity_over_a_nonconstant_denominator(self, ring):
        """The k-fold product collapses to 1/1 at every multiple of the
        order and then restarts from f; num^k/den^k collapses only where
        num^k = den^k.  Both are normal and equal in value."""
        x = ring.rf("x")
        f = (-x - 1) / (x + 1)
        assert str(f ** 2) == "1"
        assert f ** 3 == f * f * f == -1
        assert str(f ** 3) == "(-x^3 - 3*x^2 - 3*x - 1)/(x^3 + 3*x^2 + 3*x + 1)"
        assert str(f * f * f) == "(-x - 1)/(x + 1)"

    def test_inverse_roundtrip(self, ring):
        x, y = ring.rf("x"), ring.rf("y")
        f = (x + y) / (x - y)
        assert f * f.inverse() == ring.rf(1)
        assert (f.inverse().inverse()) == f


def test_no_pair_over_one_is_sent_to_normalize(monkeypatch, capsys):
    """The constructor reads a denominator of 1 as already normal, so no
    caller needs to say so and no such pair is normalized."""
    original = uvbraid.scalars._normalize
    over_one = []

    def recording(num, den):
        if den.is_one():
            over_one.append(str(num))
        return original(num, den)

    monkeypatch.setattr(uvbraid.scalars, "_normalize", recording)
    assert generate_constraints(3, make_spec("uv", 4, 2)).equations
    assert cli.main(["suite", "--name", "all"]) == 0
    assert capsys.readouterr().out
    assert over_one == []
