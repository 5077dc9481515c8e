"""Differential tests of the function-field layer against sympy.

sympy is a test-only reference: ``RatFunc`` arithmetic is checked against
``sympy.cancel`` and ``Matrix.det`` against sympy's determinant, on random
small inputs with Gaussian-rational coefficients.  Skipped when sympy is not
installed; nothing in ``src/`` imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid.matrices import Matrix
from uvbraid.scalars import GaussianRational, MultiPoly, PolyRing, RatFunc

sympy = pytest.importorskip("sympy")

RING = PolyRing(("x", "y"))
SYMBOLS = sympy.symbols("x y")

parts = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coefficients = st.builds(GaussianRational, parts, st.one_of(st.just(0), parts))
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polynomials = st.dictionaries(exponents, coefficients, max_size=3).map(
    lambda terms: MultiPoly(RING, {e: c for e, c in terms.items() if c})
)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, polynomials, nonzero_polynomials)


def to_sympy(f) -> "sympy.Expr":
    """A MultiPoly or RatFunc as a sympy expression over Q(i)."""
    if isinstance(f, RatFunc):
        return to_sympy(f.num) / to_sympy(f.den)
    total = sympy.Integer(0)
    for exp, c in f.terms.items():
        coeff = sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)
        total += coeff * sympy.Mul(*(s ** e for s, e in zip(SYMBOLS, exp)))
    return total


def same(ours, expr) -> bool:
    """Equal as rational functions: the numerator of the difference, over
    one common denominator, expands to 0 (no gcd needed)."""
    return sympy.expand(sympy.numer(sympy.together(to_sympy(ours) - expr))) == 0


class TestRatFuncAgainstSympy:
    @given(ratfuncs, ratfuncs)
    @settings(max_examples=25, deadline=None)
    def test_field_operations(self, f, g):
        sf, sg = to_sympy(f), to_sympy(g)
        assert same(f + g, sf + sg)
        assert same(f - g, sf - sg)
        assert same(f * g, sf * sg)
        if not g.is_zero():
            assert same(f / g, sf / sg)

    @given(ratfuncs, ratfuncs)
    @settings(max_examples=25, deadline=None)
    def test_equality_is_equality_of_functions(self, f, g):
        assert (f == g) == same(f, to_sympy(g))
        if not g.is_zero():  # an equal pair with different representatives
            assert (f * g) / g == f


entries = st.one_of(
    coefficients.map(RING.rf),
    polynomials.map(RING.rf),
    ratfuncs,
)


class TestDeterminantAgainstSympy:
    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ))
    @settings(max_examples=20, deadline=None)
    def test_det(self, rows):
        ours = Matrix.from_rows(RING, rows).det()
        theirs = sympy.Matrix([[to_sympy(a) for a in r] for r in rows]).det()
        assert same(ours, theirs)

    def test_gaussian_constant_det(self):
        half = Fraction(1, 2)
        rows = [
            [GaussianRational(1, 1), GaussianRational(half, -2), 3],
            [GaussianRational(0, half), 5, GaussianRational(-1, 1)],
            [2, GaussianRational(Fraction(2, 3)), GaussianRational(0, -1)],
        ]
        ours = Matrix.from_rows(RING, rows).det()
        theirs = sympy.Matrix(
            [[to_sympy(RING.rf(a)) for a in r] for r in rows]
        ).det()
        assert ours.is_constant() and same(ours, theirs)
