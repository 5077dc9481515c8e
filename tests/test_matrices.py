"""Exact matrices over the rational-function field: arithmetic, Bareiss
determinants, adjugate inverses, the Q(i) echelon basis, block placement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid.analysis import generic_rep
from uvbraid.groups import make_spec
from uvbraid.matrices import Echelon, Matrix, block_embed, place
from uvbraid.scalars import G_ONE, G_ZERO, GaussianRational, PolyRing


# Q(i) entries with nonzero imaginary parts drawn often; a matrix is a
# product through an inner dimension, so rank deficiency is common
qi_entries = st.builds(
    GaussianRational,
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.integers(-2, 2),
)


@st.composite
def qi_matrices(draw):
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    inner = draw(st.integers(0, 5))
    a = [[draw(qi_entries) for _ in range(inner)] for _ in range(nr)]
    b = [[draw(qi_entries) for _ in range(nc)] for _ in range(inner)]
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), G_ZERO) for j in range(nc)]
        for i in range(nr)
    ]


@pytest.fixture
def ring():
    return PolyRing(("a", "b"))


def _cofactor_det(rows):
    """Textbook expansion along the first row; the independent det oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = G_ZERO
    sign = G_ONE
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total = total + sign * rows[0][j] * _cofactor_det(minor)
        sign = -sign
    return total


class TestArithmetic:
    def test_shapes_must_agree(self, ring):
        m = Matrix.from_rows(ring, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            m + Matrix.identity(ring, 3)
        with pytest.raises(ValueError):
            m * Matrix.identity(ring, 3)
        with pytest.raises(ValueError):
            Matrix.from_rows(ring, [[1, 2], [3]])

    def test_product_and_inverse(self, ring):
        a = ring.rf("a")
        m = Matrix.from_rows(ring, [[1, a], [0, 1]])
        assert (m * m * m).rows[0][1] == 3 * a
        assert m.inverse().rows[0][1] == -a
        assert (m.inverse() * m).is_identity()

    def test_scalar_multiplication(self, ring):
        m = Matrix.from_rows(ring, [[1, 2], [3, 4]])
        assert (m * 2).rows[1][0] == ring.rf(6)
        assert m.scale(ring.rf("a")).rows[0][1] == 2 * ring.rf("a")

    def test_transpose(self, ring):
        m = Matrix.from_rows(ring, [[1, 2, 3], [4, 5, 6]])
        assert m.transpose().shape == (3, 2)
        assert m.transpose().rows[2][0] == ring.rf(3)


class TestDeterminant:
    def test_integer_example(self, ring):
        assert Matrix.from_rows(ring, [[1, 2], [3, 4]]).det() == ring.rf(-2)

    def test_antidiagonal_block(self, ring):
        a = ring.rf("a")
        m = Matrix.from_rows(ring, [[0, a], [1 / a, 0]])
        assert m.det() == ring.rf(-1)

    def test_symbolic_product_rule(self, ring):
        a, b = ring.rf("a"), ring.rf("b")
        m = Matrix.from_rows(ring, [[a, 1], [1, b]])
        n = Matrix.from_rows(ring, [[1, a], [0, 1]])
        assert (m * n).det() == m.det() * n.det()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10 ** 6))
    def test_bareiss_matches_cofactor_expansion(self, n, seed):
        rng = random.Random(seed)
        ring = PolyRing(("a",))
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(ring, rows)
        expected = _cofactor_det(
            [[GaussianRational(x) for x in row] for row in rows]
        )
        assert m.det() == ring.rf(expected)


class TestInverse:
    def test_permutation_block_is_an_involution(self, ring):
        a = ring.rf("a")
        m = Matrix.from_rows(ring, [[0, a], [1 / a, 0]])
        assert m.inverse() == m

    def test_singular_matrix_rejected(self, ring):
        with pytest.raises(ValueError, match="singular"):
            Matrix.from_rows(ring, [[1, 1], [1, 1]]).inverse()

    def test_symbolic_inverse_roundtrip(self, ring):
        a, b = ring.rf("a"), ring.rf("b")
        m = Matrix.from_rows(ring, [[a, 1, 0], [0, b, 1], [1, 0, 1]])
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()

    def test_cofactor_equal_to_det_is_written_as_one(self, ring):
        a, b = ring.rf("a"), ring.rf("b")
        m = Matrix.from_rows(ring, [[1, 0, 0], [0, a, 1], [0, 1, b]])
        assert str(m.inverse()[0, 0]) == "1"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10 ** 6))
    def test_random_integer_inverse(self, n, seed):
        rng = random.Random(seed)
        ring = PolyRing(("a",))
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(ring, rows)
        if m.det().is_zero():
            with pytest.raises(ValueError):
                m.inverse()
        else:
            assert (m * m.inverse()).is_identity()

    def test_generic_block_inverse_has_the_determinant_as_denominator(self):
        block = generic_rep(3, make_spec("uv", 4, 1)).rho_block
        det, inv = block.det(), block.inverse()
        assert len(det.num.terms) == 6
        assert all(len(x.den.terms) <= 6 for row in inv.rows for x in row)
        assert (block * inv).is_identity()


class TestEchelon:
    def test_dependent_row_adds_nothing(self):
        rows = [[GaussianRational(x) for x in r] for r in ([1, 2, 3], [2, 4, 6], [1, 0, 1])]
        basis = Echelon()
        assert basis.insert(rows[0]) == [G_ONE, GaussianRational(2), GaussianRational(3)]
        assert basis.insert(rows[1]) is None
        assert basis.insert(rows[2]) is not None
        assert len(basis) == 2

    @settings(max_examples=60, deadline=None)
    @given(qi_matrices())
    def test_row_and_column_bases_have_equal_length(self, rows):
        by_rows, by_cols = Echelon(), Echelon()
        for r in rows:
            by_rows.insert(r)
        for c in zip(*rows):
            by_cols.insert(list(c))
        assert len(by_rows) == len(by_cols)

    @settings(max_examples=60, deadline=None)
    @given(qi_matrices())
    def test_stored_rows_are_echelon_and_span_the_input(self, rows):
        basis = Echelon()
        for r in rows:
            basis.insert(r)
        before = []
        for piv, row in basis.rows.items():
            assert all(not x for x in row[:piv])
            assert row[piv] == G_ONE
            assert all(not row[p] for p in before)
            before.append(piv)
        for r in rows:
            assert basis.insert(r) is None
        assert len(basis) == len(before)

    def test_constant_entries_require_constants(self, ring):
        m = Matrix.from_rows(ring, [[ring.rf("a"), 1], [0, 1]])
        with pytest.raises(ValueError, match="symbolic"):
            m.constant_entries()


class TestBlockEmbed:
    def test_layout(self, ring):
        b = Matrix.from_rows(ring, [[0, 1], [1, 0]])
        m = block_embed(b, 2, 4)
        assert m.shape == (4, 4)
        assert m.rows[0][0] == ring.rf(1)
        assert m.rows[1][2] == ring.rf(1)
        assert m.rows[2][1] == ring.rf(1)
        assert m.rows[3][3] == ring.rf(1)
        assert m.rows[1][1] == ring.rf(0)

    def test_out_of_range_rejected(self, ring):
        b = Matrix.from_rows(ring, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            block_embed(b, 4, 4)
        with pytest.raises(ValueError):
            block_embed(b, 0, 4)

    def test_disjoint_blocks_commute(self, ring):
        b = Matrix.from_rows(ring, [[ring.rf("a"), 1], [1, 0]])
        m1 = block_embed(b, 1, 4)
        m3 = block_embed(b, 3, 4)
        assert m1 * m3 == m3 * m1

    def test_place_keeps_the_outer_matrix_elsewhere(self, ring):
        b = Matrix.from_rows(ring, [[ring.rf("a"), 1], [1, 0]])
        outer = Matrix.from_rows(ring, [[j + 3 * i for j in range(3)] for i in range(3)])
        m = place(b, 2, outer)
        assert m.rows[0] == outer.rows[0]
        assert [m.rows[i][0] for i in range(3)] == [ring.rf(x) for x in (0, 3, 6)]
        assert [list(r[1:]) for r in m.rows[1:]] == [list(r) for r in b.rows]
        with pytest.raises(ValueError, match="does not fit"):
            place(b, 3, outer)

    def test_identity_outside_block(self, ring):
        b = Matrix.from_rows(ring, [[1, 0], [0, 1]])
        assert block_embed(b, 2, 5).is_identity()
