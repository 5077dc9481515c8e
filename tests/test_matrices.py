"""Exact matrices over the rational-function field: arithmetic, Bareiss
determinants and inverses (against cofactor references), the Q(i) echelon
basis, block placement."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid.analysis import generic_rep
from uvbraid.groups import make_spec
from uvbraid.matrices import Echelon, Matrix, block_embed, place
from uvbraid.reps import FAMILY_NAMES, build_local_rep
from uvbraid.scalars import G_ONE, G_ZERO, GaussianRational, PolyRing, RatFunc


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


def _adjugate_inverse(m):
    """The independent inverse oracle: entry (i, j) is
    (-1)^(i+j) cofactor(j, i) / det, both by cofactor expansion, and an
    entry equal to 1 is written as 1."""
    rows = [list(r) for r in m.rows]
    det = _cofactor_det(rows)

    def entry(i, j):
        minor = [r[:i] + r[i + 1 :] for a, r in enumerate(rows) if a != j]
        x = _cofactor_det(minor) / det
        x = -x if (i + j) % 2 else x
        return m.ring.rf(1) if x.is_one() else x

    n = len(rows)
    return Matrix(m.ring, tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))


def _first_home(fam):
    for home in (("uv", 4, 2), ("uw", 4, 2), ("uv", 4, 1), ("vb", 4, 1)):
        try:
            return build_local_rep(fam, make_spec(*home))
        except ValueError:
            continue
    raise AssertionError(f"no spec accepts {fam}")


def _blocks():
    """(label, block): the rho and sigma_t blocks of every family, on the
    first of uv(4, 2), uw(4, 2), uv(4, 1), vb(4, 1) it accepts, and of the
    generic k = 2, k = 3 and antidiagonal reps."""
    reps = [_first_home(fam) for fam in FAMILY_NAMES]
    spec = make_spec("uv", 4, 1)
    reps += [generic_rep(2, spec), generic_rep(3, spec), generic_rep(2, spec, "antidiagonal")]
    out = []
    for rep in reps:
        if rep.rho_block is not None:
            out.append((f"{rep.name}-rho", rep.rho_block))
        out += [(f"{rep.name}-sigma{t}", b) for t, b in sorted(rep.sigma_blocks.items())]
    return out


_BLOCKS = _blocks()


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

    def test_non_square_matrices_are_refused(self, ring):
        m = Matrix.from_rows(ring, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="determinant of a non-square matrix"):
            m.det()
        with pytest.raises(ValueError, match="inverse of a non-square matrix"):
            m.inverse()

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

    def test_inverse_entry_equal_to_one_prints_as_one(self, ring):
        a, b = ring.rf("a"), ring.rf("b")
        m = Matrix.from_rows(ring, [[1, 0, 0], [0, a, 1], [0, 1, b]])
        assert str(m.inverse()[0, 0]) == "1"

    @pytest.mark.parametrize("block", [b for _, b in _BLOCKS], ids=[t for t, _ in _BLOCKS])
    def test_blocks_match_the_adjugate_entry_for_entry_and_in_print(self, block):
        inv, ref = block.inverse(), _adjugate_inverse(block)
        assert inv == ref
        assert str(inv) == str(ref)

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


class FractionEchelon:
    """Reference: the Q(i) reduced row-echelon basis in Fraction
    arithmetic.  Every stored row is zero before its pivot, has a 1 there,
    and is zero at the pivots of all other rows: a new row is reduced by
    the stored rows, scaled to 1, then eliminated from each stored row."""

    def __init__(self):
        self.rows: dict[int, list[GaussianRational]] = {}

    def __len__(self):
        return len(self.rows)

    def insert(self, vec: list[GaussianRational]) -> list[GaussianRational] | None:
        v = list(vec)
        for piv, row in sorted(self.rows.items()):
            c = v[piv]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return None
        inv = v[piv].inverse()
        v = [a * inv for a in v]
        for j, row in self.rows.items():
            c = row[piv]
            if c:
                self.rows[j] = [a - c * b if b else a for a, b in zip(row, v)]
        self.rows[piv] = v
        return v


_Q = PolyRing(("a",))


def _vec(re, im=None):
    """The sparse Gaussian-integer vector with dense parts ``re`` and ``im``."""
    im = im or [0] * len(re)
    return {k: (x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y}


def dense_integer_parts(m):
    """``m.integer_terms()`` written out in full: the real and the imaginary
    parts of L times the matrix, as int rows, and L."""
    terms, lcm = m.integer_terms()
    re, im = (
        [[terms.get((i, j), (0, 0))[part] for j in range(m.ncols)] for i in range(m.nrows)]
        for part in (0, 1)
    )
    return re, im, lcm


def _gaussian_integer_rows(rows):
    """Q(i) rows as sparse Gaussian-integer rows of one common multiple of them."""
    re, im, _ = dense_integer_parts(Matrix.from_rows(_Q, rows))
    return [_vec(r, i) for r, i in zip(re, im)]


class TestEchelon:
    def test_dependent_row_adds_nothing(self):
        basis = Echelon(3)
        assert basis.insert(_vec([2, 4, 6])) == _vec([1, 2, 3])
        assert basis.insert(_vec([1, 2, 3])) is None
        assert basis.insert({}) is None
        assert basis.insert({0: (1, 0), 1: (0, 0), 2: (1, 0)}) is not None
        assert len(basis) == 2

    def test_width_is_fixed_by_the_constructor(self):
        basis = Echelon(3)
        basis.insert(_vec([1, 2, 3]))
        for vec in (_vec([0, 0, 0, 5]), {-1: (1, 0)}, {0: (1, 0), 7: (0, 1)}):
            with pytest.raises(ValueError, match="width 3"):
                basis.insert(vec)
        assert len(basis) == 1

    def test_a_gaussian_pivot_is_made_an_integer(self):
        basis = Echelon(2)
        assert basis.insert(_vec([2, 1], [1, 0])) == _vec([5, 2], [0, -1])  # times 2-i
        assert basis.insert(_vec([0, 3])) is not None
        assert basis.insert(_vec([1, 0])) is None

    def test_a_real_row_reduces_a_complex_vector(self):
        basis = Echelon(3)
        basis.insert(_vec([2, 1, 0]))
        # 2 * (1, 0, i) - 1 * (2, 1, 0) = (0, -1, 2i), stored as (0, 1, -2i)
        assert basis.insert(_vec([1, 0, 0], [0, 0, 1])) == _vec([0, 1, 0], [0, 0, -2])

    @settings(max_examples=60, deadline=None)
    @given(qi_matrices())
    def test_row_and_column_bases_have_equal_length(self, rows):
        by_rows, by_cols = Echelon(len(rows[0])), Echelon(len(rows))
        for r in _gaussian_integer_rows(rows):
            by_rows.insert(r)
        for c in _gaussian_integer_rows([list(c) for c in zip(*rows)]):
            by_cols.insert(c)
        assert len(by_rows) == len(by_cols)

    @settings(max_examples=60, deadline=None)
    @given(qi_matrices())
    def test_stored_rows_are_echelon_and_span_the_input(self, rows):
        basis = Echelon(len(rows[0]))
        zrows = _gaussian_integer_rows(rows)
        for r in zrows:
            basis.insert(r)
        before = []
        for piv, row in basis.rows.items():
            assert all(z != (0, 0) for z in row.values())
            assert min(row) == piv
            assert row[piv][0] > 0 and row[piv][1] == 0
            assert math.gcd(*(x for z in row.values() for x in z)) == 1
            assert all(p not in row for p in before)
            assert all(p not in row for p in basis.rows if p != piv)
            before.append(piv)
        for r in zrows:
            assert basis.insert(r) is None
        assert len(basis) == len(before)

    @settings(max_examples=80, deadline=None)
    @given(qi_matrices())
    def test_agrees_with_the_fraction_reference(self, rows):
        basis, ref = Echelon(len(rows[0])), FractionEchelon()
        for r, z in zip(rows, _gaussian_integer_rows(rows)):
            assert (basis.insert(z) is None) == (ref.insert(r) is None)
        assert sorted(basis.rows) == sorted(ref.rows)
        for piv, row in basis.rows.items():
            # the least integer multiple of the pivot-1 row, so no larger
            want = ref.rows[piv]
            d = math.lcm(*(x.re.denominator for x in want),
                         *(x.im.denominator for x in want))
            assert row == _vec([int(x.re * d) for x in want], [int(x.im * d) for x in want])

    def test_constant_entries_require_constants(self, ring):
        m = Matrix.from_rows(ring, [[ring.rf("a"), 1], [0, 1]])
        with pytest.raises(ValueError, match="symbolic"):
            m.integer_terms()

    def test_integer_terms_clear_every_denominator_once(self, ring):
        half, third_i = GaussianRational(1) / 2, GaussianRational(0, 1) / 3
        m = Matrix.from_rows(ring, [[half, third_i], [0, 1 + third_i]])
        assert dense_integer_parts(m) == ([[3, 0], [0, 6]], [[0, 2], [0, 2]], 6)
        assert m.integer_terms() == ({(0, 0): (3, 0), (0, 1): (0, 2), (1, 1): (6, 2)}, 6)
        assert Matrix.zeros(ring, 2, 3).integer_terms() == ({}, 1)
        assert dense_integer_parts(Matrix.identity(ring, 2)) == ([[1, 0], [0, 1]], [[0, 0], [0, 0]], 1)


    def test_integer_terms_read_only_the_nonzero_entries(self, ring, monkeypatch):
        block = Matrix.from_rows(ring, [[2, GaussianRational(1, 1) / 3], [0, 5]])
        m = block_embed(block, 2, 6)
        read = []
        constant_value = RatFunc.constant_value
        monkeypatch.setattr(RatFunc, "constant_value",
                            lambda x: read.append(x) or constant_value(x))
        terms, scale = m.integer_terms()
        assert len(read) == len(terms) == 7 and scale == 3
        assert terms[1, 2] == (1, 1) and terms[0, 0] == (3, 0)


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

    @pytest.mark.parametrize("m", [5, 9])
    def test_place_rebuilds_only_the_window_rows(self, m):
        for label, block in _BLOCKS:
            k = block.nrows
            outer = Matrix.from_rows(block.ring, [[i * m + j for j in range(m)] for i in range(m)])
            for pos in range(1, m - k + 2):
                want = [list(r) for r in outer.rows]
                for a, row in enumerate(block.rows):
                    want[pos - 1 + a][pos - 1 : pos - 1 + k] = row
                got = place(block, pos, outer)
                assert [list(r) for r in got.rows] == want, (label, pos)
                assert type(got.rows) is tuple and all(type(r) is tuple for r in got.rows)
                window = range(pos - 1, pos - 1 + k)
                for i in range(m):
                    if i not in window:
                        assert got.rows[i] is outer.rows[i], (label, pos, i)

    def test_off_identity_is_the_nonzero_entries_of_self_minus_identity(self, ring):
        a, one = ring.rf("a"), ring.rf(1)
        m = Matrix.from_rows(ring, [[2, 0, a], [0, 1, 0], [3, 0, a + 1]])
        assert m.off_identity() == {(0, 0): one, (0, 2): a, (2, 0): 3 * one, (2, 2): a}
        assert Matrix.identity(ring, 3).off_identity() == {}
        with pytest.raises(ValueError, match="non-square"):
            Matrix.zeros(ring, 2, 3).off_identity()
        shifted = {(i + 1, j + 1): x for (i, j), x in m.off_identity().items()}
        assert block_embed(m, 2, 5).off_identity() == shifted
        assert Matrix(ring, block_embed(m, 2, 5).rows).off_identity() == shifted

    def test_identity_outside_block(self, ring):
        b = Matrix.from_rows(ring, [[1, 0], [0, 1]])
        assert block_embed(b, 2, 5).is_identity()
