"""Exact matrices over the rational-function field: arithmetic, determinants,
inversion, constant-matrix rank/kernel, block embedding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid.matrices import Matrix, block_embed, const_rref
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

    def test_product_and_power(self, ring):
        a = ring.rf("a")
        m = Matrix.from_rows(ring, [[1, a], [0, 1]])
        assert (m ** 3).rows[0][1] == 3 * a
        assert (m ** 0).is_identity()
        assert (m ** -1 * m).is_identity()

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


class TestRankKernel:
    def test_rank_and_kernel_of_dependent_rows(self, ring):
        m = Matrix.from_rows(ring, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert m.rank() == 2
        ker = m.kernel()
        assert len(ker) == 1
        assert (m * ker[0]).is_zero()

    def test_full_rank_kernel_empty(self, ring):
        assert Matrix.identity(ring, 3).kernel() == []
        assert Matrix.identity(ring, 3).rank() == 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6))
    def test_rank_nullity(self, nr, nc, seed):
        rng = random.Random(seed)
        ring = PolyRing(("a",))
        m = Matrix.from_rows(
            ring, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        )
        assert m.rank() + len(m.kernel()) == nc
        for v in m.kernel():
            assert (m * v).is_zero()

    def test_rref_pivots_are_unit_columns(self):
        rows = [[GaussianRational(2), GaussianRational(4)],
                [GaussianRational(1), GaussianRational(3)]]
        reduced, pivots = const_rref(rows)
        assert pivots == [0, 1]
        assert reduced[0] == [G_ONE, G_ZERO]
        assert reduced[1] == [G_ZERO, G_ONE]

    @settings(max_examples=60, deadline=None)
    @given(qi_matrices())
    def test_rank_of_transpose_over_gaussian_rationals(self, rows):
        m = Matrix.from_rows(PolyRing(("a",)), rows)
        assert m.rank() == m.transpose().rank()

    @settings(max_examples=60, deadline=None)
    @given(qi_matrices())
    def test_const_rref_is_reduced_echelon_of_the_same_row_space(self, rows):
        reduced, pivots = const_rref(rows)
        assert len(reduced) == len(rows)
        assert pivots == sorted(set(pivots))
        for r, p in enumerate(pivots):
            assert all(not x for x in reduced[r][:p])
            assert [row[p] for row in reduced] == [
                G_ONE if i == r else G_ZERO for i in range(len(reduced))
            ]
        assert all(not x for row in reduced[len(pivots):] for x in row)
        ring = PolyRing(("a",))
        rank = Matrix.from_rows(ring, rows).rank()
        assert rank == len(pivots)
        assert Matrix.from_rows(ring, rows + reduced).rank() == rank

    def test_rank_requires_constant_entries(self, ring):
        m = Matrix.from_rows(ring, [[ring.rf("a"), 1], [0, 1]])
        with pytest.raises(ValueError):
            m.rank()


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

    def test_identity_outside_block(self, ring):
        b = Matrix.from_rows(ring, [[1, 0], [0, 1]])
        assert block_embed(b, 2, 5).is_identity()
