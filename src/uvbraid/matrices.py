"""Exact dense matrices over a rational-function field, plus block embedding.

Matrices are small here: the paper's representations are k-local with
k <= 3, so every matrix an engine builds is a k x k block, a word image on
a window, or a generator image for the Q(i) span closures.  The
representation is a plain tuple of tuples of
:class:`~uvbraid.scalars.RatFunc`, and the algorithms favour exactness and
clarity over asymptotics.  There is one elimination per field:

* over the function field, one fraction-free Bareiss elimination, run
  after clearing each row to a common polynomial denominator (which keeps
  intermediate rational functions from snowballing), gives determinants
  and, as Gauss-Jordan on [A | I], inverses, so a polynomial matrix's
  inverse has no denominator but the determinant;
* over Q(i), :class:`Echelon` is a fraction-free, incremental, fully
  reduced row-echelon basis of sparse Gaussian-integer rows, which depends
  on the span alone: a vector or a row holds only its nonzero coordinates,
  as ``{coordinate: (re, im)}``, and a reduction costs the supports it
  reads, not the width.  The span engines of :mod:`uvbraid.analysis`
  (``burnside_dim`` and ``spin``) grow their closures in one.
  :func:`gaussian_integer_terms` is the way in: it reads each nonzero
  constant entry's (a, b, d) (see :mod:`uvbraid.scalars`) and scales by
  the lcm of the d's, so no rational number is built on the way.  A
  generator enters by its ``Matrix.off_identity`` view, the nonzero
  entries of g - I, which ``block_embed`` fills from the k x k block.

``place`` writes a block over a diagonal window of a larger matrix.
``block_embed`` uses it to realize the local pattern
I_(i-1) (+) B (+) I_(m-i-k+1): a k x k block acting on strands
i..i+k-1 of an m-strand space, identity elsewhere.  It builds the
generator images that the span engines and criteria take.  Word images are
not products of such matrices: :func:`uvbraid.reps.word_fraction` applies
each letter as an update of the k columns its block covers, on polynomial
numerators over one denominator.
"""

from __future__ import annotations

import math

from .scalars import MultiPoly, PolyRing, RatFunc


class Matrix:
    """An immutable nrows x ncols matrix of rational functions over one ring."""

    __slots__ = ("ring", "nrows", "ncols", "rows", "_off")

    def __init__(self, ring: PolyRing, rows: tuple[tuple[RatFunc, ...], ...]):
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self._off = None  # the off_identity view, once known

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
        """The transpose; it inherits a known ``off_identity`` view,
        transposed, so it is not scanned for one."""
        out = Matrix(self.ring, tuple(zip(*self.rows)))
        if self._off is not None:
            out._off = {(j, i): a for (i, j), a in self._off.items()}
        return out

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
        return self.nrows == self.ncols and not self.off_identity()

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def off_identity(self) -> dict[tuple[int, int], RatFunc]:
        """``{(i, j): entry of self - I}`` over the nonzero entries of
        self - I, in row-major order, for a square matrix.  Found by one scan
        on first use and cached, unless the constructor (``block_embed``,
        ``transpose``) already knew it; callers must not modify it."""
        if self._off is None:
            if self.nrows != self.ncols:
                raise ValueError(f"off_identity of a non-square {self.shape} matrix")
            one, off = self.ring._rf_one, {}
            for i, r in enumerate(self.rows):
                for j, a in enumerate(r):
                    if i == j:
                        if not a.is_one():
                            off[i, j] = a - one
                    elif not a.is_zero():
                        off[i, j] = a
            self._off = off
        return self._off

    # -- determinant and inverse ----------------------------------------

    def det(self) -> RatFunc:
        """Determinant by :meth:`_bareiss`: the last pivot, signed by the row
        swaps, over the product of the clearing factors d_i."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        done = self._bareiss(jordan=False)
        if done is None:
            return self.ring._rf_zero
        sign, delta, _, clears = done
        scale = math.prod((d for d in clears if not d.is_one()), start=self.ring._one)
        return RatFunc(-delta if sign < 0 else delta, scale)

    def inverse(self) -> Matrix:
        """Inverse over the rational-function field, by :meth:`_bareiss` on
        [C | I], C = diag(d_i) * self.  The appended columns end as
        delta * C^-1, delta the last pivot, so entry (i, j) is their entry
        times d_j over delta.  With monomial denominators (every family
        block) that is the adjugate over the determinant; otherwise it is
        an equal representative whose denominator is delta = +-det(C), not
        the determinant's own numerator.  Each entry is a plain ``RatFunc``
        in its normal form, so an entry equal to 1 is 1.  Raises ValueError
        when the matrix is singular as a matrix of functions.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        done = self._bareiss(jordan=True)
        if done is None:
            raise ValueError("matrix is singular over the function field")
        _, delta, rows, clears = done
        n = self.nrows
        return Matrix(
            self.ring,
            tuple(
                tuple(RatFunc(r[n + j] * d, delta) for j, d in enumerate(clears))
                for r in rows
            ),
        )

    def _bareiss(self, jordan: bool) -> tuple[int, MultiPoly, list, list] | None:
        """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of
        C = diag(d_i) * self, d_i the product of row i's denominators other
        than 1.  C is polynomial and each step divides exactly by the
        previous pivot, so no rational function is built.

        Pivot k clears column k from the rows below it; with ``jordan``, the
        identity is appended to C and the rows above are cleared too, so
        the appended columns end as delta * C^-1 (Gauss-Jordan).  Columns up
        to k are not read after step k and are left stale.  Returns (sign of
        the row swaps, delta the last pivot, the rows, the d_i), or None if
        a column has no nonzero pivot.
        """
        ring, n = self.ring, self.nrows
        rows, clears = [], []
        for i, r in enumerate(self.rows):
            dens = [a.den for a in r if not a.den.is_one()]
            d = math.prod(dens, start=ring._one)
            row = [a.num * d.exact_div(a.den) for a in r] if dens else [a.num for a in r]
            if jordan:
                row += [ring._one if j == i else ring._zero for j in range(n)]
            rows.append(row)
            clears.append(d)
        sign, prev = 1, ring._one
        for k in range(n):
            if rows[k][k].is_zero():
                swap = next((i for i in range(k + 1, n) if not rows[i][k].is_zero()), None)
                if swap is None:
                    return None
                rows[k], rows[swap] = rows[swap], rows[k]
                sign = -sign
            pivot = rows[k][k]
            for i in range(0 if jordan else k + 1, n):
                if i != k:
                    head = rows[i][k]
                    for j in range(k + 1, 2 * n if jordan else n):
                        rows[i][j] = (pivot * rows[i][j] - head * rows[k][j]).exact_div(prev)
            prev = pivot
        return sign, prev, rows, clears

    # -- constant-matrix operations --------------------------------------

    def integer_terms(self) -> tuple[dict[tuple[int, int], tuple[int, int]], int]:
        """:func:`gaussian_integer_terms` of the nonzero entries of a
        constant matrix, in row-major order; a zero entry costs one test."""
        return gaussian_integer_terms(
            {(i, j): a for i, r in enumerate(self.rows) for j, a in enumerate(r)
             if not a.is_zero()}
        )

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


def gaussian_integer_terms(entries: dict) -> tuple[dict, int]:
    """Constant entries ``{key: RatFunc}`` times the lcm L of their
    denominators, as ``{key: (re, im)}`` in the same order, and L: the one
    step from Q(i) to Z[i].  An entry (a + b*i)/d becomes (a*(L/d), b*(L/d));
    as d is the lcm of its parts' lowest-terms denominators, L is the least
    common denominator of every part.  Raises ValueError if an entry is
    symbolic."""
    vals = {}
    for key, a in entries.items():
        if not a.is_constant():
            raise ValueError(f"matrix is symbolic (entry {a}); bind parameters first")
        vals[key] = a.constant_value()
    lcm = math.lcm(*(x.d for x in vals.values()))
    return {key: (x.a * (lcm // x.d), x.b * (lcm // x.d)) for key, x in vals.items()}, lcm


class Echelon:
    """Fully reduced, fraction-free, incremental row-echelon basis over Q(i)
    of vectors of a fixed ``width``.

    Vectors and rows are sparse: a dict ``{coordinate: (re, im)}`` of the
    nonzero Gaussian-integer coordinates only.  Each row has gcd 1; keyed
    by its pivot, its least coordinate, it is a positive integer there and
    zero at every other row's pivot.  Such a row is the least integer
    multiple of the span's reduced row-echelon row, so the rows depend on
    the span alone, not on the order of inserts.  An elimination costs the
    supports of the two vectors it combines, not the width."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, tuple[int, int]]] = {}

    def __len__(self):
        return len(self.rows)

    def insert(self, vec: dict[int, tuple[int, int]]) -> dict | None:
        """Reduce against the basis; add and return the reduced row if new.

        By the row b at pivot j (entry p there), v becomes p*v - v[j]*b.
        As b is zero at every other pivot, this only scales v's other pivot
        entries, so v is reduced once at each pivot where it is nonzero on
        entry and nowhere else.  A new row is multiplied by its pivot's
        conjugate, as a gcd removes rational factors only and a Gaussian
        one (2+i, say) would compound from row to row, and divided by its
        gcd; it is then eliminated, the same way, from every stored row
        nonzero at its pivot."""
        w = self.width
        if vec and (min(vec) < 0 or max(vec) >= w):
            raise ValueError(f"coordinates {min(vec)}..{max(vec)} outside a basis of width {w}")
        rows = self.rows
        v = {k: z for k, z in vec.items() if z != (0, 0)}
        for j in [j for j in v if j in rows]:
            _eliminate(v, rows[j], j)
        if not v:
            return None
        piv = min(v)
        pr, pi = v[piv]
        if pi or pr < 0:
            v = {k: (pr * x + pi * y, pr * y - pi * x) for k, (x, y) in v.items()}
        v = _primitive(v)
        for j, b in rows.items():
            if piv in b:
                b = dict(b)
                _eliminate(b, v, piv)
                rows[j] = _primitive(b)
        rows[piv] = v
        return v


def _eliminate(v: dict, b: dict, j: int) -> None:
    """v <- p*v - v[j]*b in place, for the row b with real positive entry p
    at j: v made zero at j, and its zero coordinates dropped."""
    p = b[j][0]
    cr, ci = v.pop(j)
    if p != 1:
        for k, (x, y) in v.items():
            v[k] = (p * x, p * y)
    for k, (s, t) in b.items():
        if k != j:
            x, y = v.get(k, (0, 0))
            x, y = x - cr * s + ci * t, y - cr * t - ci * s
            if x or y:
                v[k] = (x, y)
            else:
                del v[k]


def _primitive(v: dict) -> dict:
    g = math.gcd(*(x for z in v.values() for x in z))
    return {k: (x // g, y // g) for k, (x, y) in v.items()} if g > 1 else v


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
    s, rows = pos - 1, outer.rows
    window = tuple(r[:s] + b + r[s + k :] for r, b in zip(rows[s : s + k], block.rows))
    return Matrix(outer.ring, rows[:s] + window + rows[s + k :])


def block_embed(block: Matrix, pos: int, m: int) -> Matrix:
    """Embed a k x k block at strand position pos (1-based) in an m x m
    identity.  Its ``off_identity`` view is the block's, shifted to the
    window: O(k^2), with no scan of the m x m result."""
    out = place(block, pos, Matrix.identity(block.ring, m))
    s = pos - 1
    out._off = {(s + i, s + j): a for (i, j), a in block.off_identity().items()}
    return out
