"""Exact dense matrices over a rational-function field, plus block embedding.

Matrices are small here: the paper's representations are k-local with
k <= 3, so every matrix an engine builds is a k x k block, a word image on
a window, or a generator image for the Q(i) span closures.  The
representation is a plain tuple of tuples of
:class:`~uvbraid.scalars.RatFunc`, and the algorithms favour exactness and
clarity over asymptotics.  There is one elimination per field:

* over the function field, fraction-free Bareiss elimination gives
  determinants (after clearing each row to a common polynomial
  denominator, which keeps intermediate rational functions from
  snowballing); inverses are the adjugate over that determinant, so a
  polynomial matrix's inverse has no denominator but the determinant;
* over Q(i), :class:`Echelon` is a fraction-free, incremental, fully
  reduced row-echelon basis of Gaussian-integer rows, which depends on the
  span alone; it reduces a vector only at the pivots where the vector is
  nonzero, and touches only each row's nonzero coordinates.  The span
  engines of :mod:`uvbraid.analysis` (``burnside_dim`` and ``spin``) grow
  their closures in one.  ``Matrix.integer_entries`` is the way in: it
  reads each constant entry's (a, b, d) (see :mod:`uvbraid.scalars`) and
  scales by the lcm of the d's, so no rational number is built on the way.

``place`` writes a block over a diagonal window of a larger matrix.
``block_embed`` uses it to realize the local pattern
I_(i-1) (+) B (+) I_(m-i-k+1): a k x k block acting on strands
i..i+k-1 of an m-strand space, identity elsewhere.  It builds the
generator images that the span engines and criteria take.  Word images are
not products of such matrices: :func:`uvbraid.reps.eval_word` applies each
letter as an update of the k columns its block covers.
"""

from __future__ import annotations

import math

from .scalars import MultiPoly, PolyRing, RatFunc


class Matrix:
    """An immutable nrows x ncols matrix of rational functions over one ring."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: PolyRing, rows: tuple[tuple[RatFunc, ...], ...]):
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, ring: PolyRing, rows) -> Matrix:
        """Build from nested lists; entries may be ints, Fractions, Q(i)
        scalars, polynomials, variable names, or rational functions."""
        lifted = tuple(tuple(ring.rf(x) for x in row) for row in rows)
        if lifted and any(len(r) != len(lifted[0]) for r in lifted):
            raise ValueError("ragged rows")
        return cls(ring, lifted)

    @classmethod
    def identity(cls, ring: PolyRing, n: int) -> Matrix:
        one, zero = ring._rf_one, ring._rf_zero
        return cls(
            ring,
            tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            ),
        )

    @classmethod
    def zeros(cls, ring: PolyRing, nrows: int, ncols: int) -> Matrix:
        zero = ring._rf_zero
        return cls(ring, tuple((zero,) * ncols for _ in range(nrows)))

    @classmethod
    def column(cls, ring: PolyRing, entries) -> Matrix:
        return cls.from_rows(ring, [[x] for x in entries])

    @classmethod
    def row_vector(cls, ring: PolyRing, entries) -> Matrix:
        return cls.from_rows(ring, [list(entries)])

    # -- basic algebra -------------------------------------------------

    def _check_ring(self, other: Matrix):
        if self.ring.vars != other.ring.vars:
            raise ValueError("matrices live over different rings")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            self.ring,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return Matrix(self.ring, tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.shape} * {other.shape}"
            )
        cols = list(zip(*other.rows))
        zero = self.ring._rf_zero
        out = []
        for r in self.rows:
            row = []
            for c in cols:
                acc = zero
                for a, b in zip(r, c):
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return Matrix(self.ring, tuple(out))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> Matrix:
        c = self.ring.rf(c)
        return Matrix(self.ring, tuple(tuple(a * c for a in r) for r in self.rows))

    def transpose(self) -> Matrix:
        return Matrix(self.ring, tuple(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij: tuple[int, int]) -> RatFunc:
        i, j = ij
        return self.rows[i][j]

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            (a.is_one() if i == j else a.is_zero())
            for i, r in enumerate(self.rows)
            for j, a in enumerate(r)
        )

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    # -- determinant and inverse ----------------------------------------

    def det(self) -> RatFunc:
        """Determinant via fraction-free Bareiss elimination.

        Rows are first cleared to polynomial entries (multiplying each row by
        the product of its denominators, tracked in a global scale factor), so
        the elimination itself divides polynomials exactly and never touches
        rational-function arithmetic.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        ring = self.ring
        if n == 0:
            return ring._rf_one
        scale = ring._one  # accumulated denominator polynomial
        rows: list[list[MultiPoly]] = []
        for r in self.rows:
            dens = [a.den for a in r if not a.den.is_one()]
            if not dens:
                rows.append([a.num for a in r])
                continue
            d = ring._one
            for q in dens:
                d = d * q
            rows.append([a.num * d.exact_div(a.den) for a in r])
            scale = scale * d
        sign = 1
        prev = ring._one
        for k in range(n - 1):
            if rows[k][k].is_zero():
                pivot_row = next(
                    (i for i in range(k + 1, n) if not rows[i][k].is_zero()), None
                )
                if pivot_row is None:
                    return ring._rf_zero
                rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
                sign = -sign
            pivot = rows[k][k]
            for i in range(k + 1, n):
                head = rows[i][k]
                for j in range(k + 1, n):
                    rows[i][j] = (pivot * rows[i][j] - head * rows[k][j]).exact_div(
                        prev
                    )
                rows[i][k] = ring._zero
            prev = pivot
        d = rows[n - 1][n - 1]
        if sign < 0:
            d = -d
        return RatFunc(d, scale)

    def inverse(self) -> Matrix:
        """Inverse over the rational-function field: the adjugate over det.

        Entry (i, j) is (-1)^(i+j) det(minor(j, i)) / det, valid wherever
        det does not vanish.  Raises ValueError when the matrix is singular
        as a matrix of functions.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        d = self.det()
        if d.is_zero():
            raise ValueError("matrix is singular over the function field")
        n = self.nrows

        def cofactor(i: int, j: int) -> RatFunc:
            minor = tuple(
                r[:j] + r[j + 1 :] for a, r in enumerate(self.rows) if a != i
            )
            c = Matrix(self.ring, minor).det()
            return -c if (i + j) % 2 else c

        # a cofactor equal to det divides to det/det, a 1 that RatFunc's
        # normalization cannot see; write it as 1
        one = self.ring._rf_one
        quotients = ((cofactor(j, i) / d for j in range(n)) for i in range(n))
        return Matrix(
            self.ring,
            tuple(tuple(one if x.is_one() else x for x in row) for row in quotients),
        )

    # -- constant-matrix operations --------------------------------------

    def integer_entries(self) -> tuple[list[list[int]], list[list[int]], int]:
        """The real and the imaginary parts of a constant matrix times the
        lcm L of its entries' denominators, and L: the one step from Q(i)
        to Z[i].  An entry (a + b*i)/d contributes a*(L/d) and b*(L/d); as
        its denominator d is the lcm of its parts' lowest-terms ones, L is
        the least common denominator of every part.  Raises ValueError if
        anything is symbolic."""
        bad = next((a for r in self.rows for a in r if not a.is_constant()), None)
        if bad is not None:
            raise ValueError(f"matrix is symbolic (entry {bad}); bind parameters first")
        vals = [[a.constant_value() for a in r] for r in self.rows]
        lcm = math.lcm(*(x.d for r in vals for x in r))
        re = [[x.a * (lcm // x.d) for x in r] for r in vals]
        im = [[x.b * (lcm // x.d) for x in r] for r in vals]
        return re, im, lcm

    # -- evaluation and rendering ----------------------------------------

    def evaluate(self, point: dict) -> Matrix:
        """Evaluate every entry at a parameter point; stays over the same ring."""
        ring = self.ring
        return Matrix(
            ring,
            tuple(
                tuple(ring.rf(a.evaluate(point)) for a in r) for r in self.rows
            ),
        )

    def __str__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return f"[{body}]"

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols} {self}>"


class Echelon:
    """Fully reduced, fraction-free, incremental row-echelon basis over Q(i).

    Each row is a Gaussian-integer vector, the int lists of its real and
    imaginary parts, with gcd 1; keyed by its pivot, it is zero before it,
    a positive integer at it and zero at every other row's pivot.  Such a
    row is the least integer multiple of the span's reduced row-echelon
    row, so the rows depend on the span alone, not on the order of inserts.
    Each row's nonzero coordinates are kept with it, and an elimination
    touches only those.  The first insert fixes the width."""

    def __init__(self):
        self.rows: dict[int, tuple[list[int], list[int]]] = {}
        self._support: dict[int, list[int]] = {}
        self.width: int | None = None

    def __len__(self):
        return len(self.rows)

    def insert(self, re: list[int], im: list[int]) -> tuple | None:
        """Reduce against the basis; add and return the reduced row if new.

        By the row b at pivot j (entry p there), v becomes p*v - v[j]*b.
        As b is zero at every other pivot, this only scales v's other pivot
        entries, so v is reduced once at each pivot where it is nonzero on
        entry and nowhere else.  A new row is multiplied by its pivot's
        conjugate, as a gcd removes rational factors only and a Gaussian
        one (2+i, say) would compound from row to row, and divided by its
        gcd; it is then eliminated, the same way, from every stored row
        nonzero at its pivot."""
        w = len(re) if self.width is None else self.width
        if len(re) != w or len(im) != w:
            raise ValueError(f"vector of width {len(re)}/{len(im)}, basis of width {w}")
        self.width = w
        rows, support = self.rows, self._support
        vr, vi = list(re), list(im)
        for j in [j for j in rows if vr[j] or vi[j]]:
            _eliminate(vr, vi, *rows[j], support[j], j)
        if not (any(vr) or any(vi)):
            return None
        piv = next(i for i in range(w) if vr[i] or vi[i])
        pr, pi = vr[piv], vi[piv]
        if pi or pr < 0:
            vr, vi = ([pr * x + pi * y for x, y in zip(vr, vi)],
                      [pr * y - pi * x for x, y in zip(vr, vi)])
        vr, vi = _primitive(vr, vi)
        vs = _nonzero(vr, vi)
        for j, (br, bi) in rows.items():
            if br[piv] or bi[piv]:
                br, bi = list(br), list(bi)
                _eliminate(br, bi, vr, vi, vs, piv)
                rows[j] = br, bi = _primitive(br, bi)
                support[j] = _nonzero(br, bi)
        rows[piv], support[piv] = (vr, vi), vs
        return vr, vi


def _eliminate(vr: list[int], vi: list[int], br: list[int], bi: list[int],
               supp: list[int], j: int) -> None:
    """v <- p*v - v[j]*b in place, for the row b with real positive entry p
    at j and nonzero coordinates ``supp``: v made zero at j."""
    p, cr, ci = br[j], vr[j], vi[j]
    if p != 1:
        vr[:] = [p * x for x in vr]
        vi[:] = [p * y for y in vi]
    for k in supp:
        s, t = br[k], bi[k]
        vr[k] -= cr * s - ci * t
        vi[k] -= cr * t + ci * s


def _nonzero(re: list[int], im: list[int]) -> list[int]:
    return [k for k, (x, y) in enumerate(zip(re, im)) if x or y]


def _primitive(re: list[int], im: list[int]) -> tuple[list[int], list[int]]:
    g = math.gcd(*re, *im)
    return ([x // g for x in re], [x // g for x in im]) if g > 1 else (re, im)


def place(block: Matrix, pos: int, outer: Matrix) -> Matrix:
    """``outer`` with a k x k block written over its rows and columns
    pos .. pos+k-1 (1-based)."""
    k, m = block.nrows, outer.nrows
    if block.ncols != k:
        raise ValueError("block must be square")
    if pos < 1 or pos + k - 1 > m:
        raise ValueError(
            f"block of size {k} at position {pos} does not fit in degree {m}"
        )
    out = [list(r) for r in outer.rows]
    for a, row in enumerate(block.rows):
        out[pos - 1 + a][pos - 1 : pos - 1 + k] = row
    return Matrix(outer.ring, tuple(tuple(r) for r in out))


def block_embed(block: Matrix, pos: int, m: int) -> Matrix:
    """Embed a k x k block at strand position pos (1-based) in an m x m identity."""
    return place(block, pos, Matrix.identity(block.ring, m))
