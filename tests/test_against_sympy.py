"""Differential tests of the function-field layer against sympy.

sympy is a test-only reference: ``RatFunc`` arithmetic is checked against
``sympy.cancel``, ``Matrix.det`` and ``Matrix.inverse`` against sympy's
determinant and inverse, on random small inputs with Gaussian-rational
coefficients, and the generic 2x2 constraint system against relations
multiplied out in sympy.  Skipped when sympy is not installed; nothing in
``src/`` imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid.analysis import generate_constraints
from uvbraid.groups import make_spec, relations
from uvbraid.matrices import Matrix
from uvbraid.scalars import GaussianRational, MultiPoly, PolyRing, RatFunc

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix

RING = PolyRing(("x", "y"))
SYMBOLS = sympy.symbols("x y")
FIELD = sympy.QQ_I.frac_field(*SYMBOLS)
POLYS = FIELD.get_ring()

parts = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coefficients = st.builds(GaussianRational, parts, st.one_of(st.just(0), parts))
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polynomials = st.dictionaries(exponents, coefficients, max_size=3).map(
    lambda terms: MultiPoly(RING, {RING.monomial(e): c for e, c in terms.items() if c})
)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, polynomials, nonzero_polynomials)


def to_sympy(f, symbols=SYMBOLS) -> "sympy.Expr":
    """A MultiPoly or RatFunc as a sympy expression over Q(i), its ring's
    variables read as ``symbols``."""
    if isinstance(f, RatFunc):
        return to_sympy(f.num, symbols) / to_sympy(f.den, symbols)
    total = sympy.Integer(0)
    for m, c in f.terms.items():
        exp = f.ring.exponents(m)
        total += coefficient(c) * sympy.Mul(*(s ** e for s, e in zip(symbols, exp)))
    return total


def coefficient(c: GaussianRational) -> "sympy.Expr":
    return sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)


def to_polys(p: MultiPoly):
    """A MultiPoly as an element of sympy's QQ(i)[x, y], built term by term."""
    qqi = sympy.QQ_I.from_sympy
    return POLYS.ring.from_dict(
        {p.ring.exponents(m): qqi(coefficient(c)) for m, c in p.terms.items()}
    )


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
square_rows = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


class TestDeterminantAgainstSympy:
    @given(square_rows)
    @settings(max_examples=20, deadline=None)
    def test_det(self, rows):
        ours = Matrix.from_rows(RING, rows).det()
        theirs = sympy.Matrix([[to_sympy(a) for a in r] for r in rows]).det()
        assert same(ours, theirs)

    @given(square_rows)
    @settings(max_examples=20, deadline=None)
    def test_inverse(self, rows):
        """Against sympy's fraction-free inverse of the rows cleared of
        denominators: C = D * A by ``clear_denoms_rowwise``, C^-1 =
        adj / den by ``inv_den`` over QQ(i)[x, y], and A^-1 = C^-1 * D,
        compared in that ring, as expanding the entries as expressions
        takes minutes."""
        m = Matrix.from_rows(RING, rows)
        n = m.nrows
        a = DomainMatrix(
            [[FIELD.from_sympy(to_sympy(x)) for x in r] for r in rows], (n, n), FIELD
        )
        d, c = a.clear_denoms_rowwise(convert=True)
        if c.det() == POLYS.zero:
            with pytest.raises(ValueError, match="singular over the function field"):
                m.inverse()
            return
        adj, den = c.inv_den()
        ours = m.inverse()
        for i in range(n):
            for j in range(n):
                x, want = ours[i, j], adj[i, j].element * d[j, j].element
                assert to_polys(x.num) * den == want * to_polys(x.den)

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


class TestConstraintSystemAgainstSympy:
    def test_k2_system_of_uv3(self):
        """The 15 equations of the generic 2x2 system of uv(3,1) are the
        numerators of every relation multiplied out at full degree in sympy,
        each made monic with the same generators and order, as a set."""
        spec = make_spec("uv", 3, 1)
        system = generate_constraints(2, spec)
        gens = sympy.symbols(system.ring.vars)
        names = dict(zip(system.ring.vars, gens))
        blocks = {
            "rho": sympy.Matrix(2, 2, [names[f"r{j}"] for j in range(1, 5)]),
            "sigma": sympy.Matrix(2, 2, [names[f"s{j}_1"] for j in range(1, 5)]),
        }
        degree = spec.n  # n + k - 2 at k = 2

        def image(word):
            out = sympy.eye(degree)
            for g, e in word.letters:
                m = sympy.eye(degree)
                m[g.index - 1:g.index + 1, g.index - 1:g.index + 1] = blocks[g.kind]
                out = out * m ** e
            return out

        def monic(expr):
            return sympy.Poly(expr, *gens).monic().as_expr()

        theirs = set()
        for rel in relations(spec):
            for entry in image(rel.lhs) - image(rel.rhs):
                num = sympy.expand(sympy.fraction(sympy.together(entry))[0])
                if num != 0:
                    theirs.add(monic(num))
        ours = {monic(to_sympy(e, gens)) for e in system.equations}
        assert len(system) == 15
        assert ours == theirs
