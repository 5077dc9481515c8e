"""Local representation families, word evaluation, conjugation equivalence.

A k-local homogeneous representation of degree m sends each generator with
strand index i to  I_(i-1) (+) B (+) I_(m-i-k+1)  for a single k x k block B
depending only on the generator's kind and crossing type.  This module holds
the block table ``_FAMILIES`` for every family handled here:

==============  ===  =====================  =======================================
family          k    rho block              sigma_t block
==============  ===  =====================  =======================================
upsilon         2    [[0,r2],[1/r2,0]]      [[s1_t,s2_t],[s3_t,s4_t]]
upsilon-prime   2    [[0,1],[1,0]]          [[s1_t,s2_t],[s3_t,s4_t]]
epsilon1        3    antidiag(r6) in 2..3   1 (+) [[s5_t,s6_t],[s8_t,s9_t]]
epsilon2        3    antidiag(r2) in 1..2   [[s1_t,s2_t],[s4_t,s5_t]] (+) 1
epsilon3        3    row-2 spike, -1 pivot  row 2 = [s4_t, s5_t, r6(1-r6 s4_t-s5_t)]
epsilon4        3    col-2 spike, -1 pivot  col 2 = [r2(1-s5_t-r2 s8_t), s5_t, s8_t]
omega1          2    [[0,r2],[1/r2,0]]      [[0,s2_t],[s3_t,0]]
omega2          2    [[0,r2],[1/r2,0]]      [[0,s2_t],[1/r2,s4_t]]
omega3          2    [[0,r2],[1/r2,0]]      [[s1_t,s2_t],[1/r2,0]]
omega1p..3p     2    [[0,1],[1,0]]          omega_j conjugated: s2_t/r2 up, r2*s3_t down
burau           2    (none)                 [[1-t,t],[1,0]] on braided types
f-rep           3    (none)                 [[1,1,0],[0,-t,0],[0,t,1]] on braided types
==============  ===  =====================  =======================================

Parameter names follow the slot convention of ``_free``: a block entry
named r6 or s5_t sits at the row-major position 6 resp. 5 of the 3 x 3
block (for 2 x 2 blocks, positions 1..4).  One routine, ``_assemble``,
builds the named families and :func:`generic_rep`, a row of ``_free``
blocks.  It evaluates a row on symbols, or, for a family built at a
point, on the point's Q(i) values themselves: the blocks are then
constant from the start and equal the symbolic ones specialized there
(:func:`specialize`), with no symbolic block built.  The side conditions
(points excluded from a family) are its type-independent parameters r2,
r6 or t, then per crossing type: the crossing block's determinant
(``_det2``) for upsilon, upsilon-prime, epsilon1 and epsilon2, s5_t for
epsilon3 and epsilon4, and every crossing parameter for the omegas.  They
stay symbolic on a rep built at a point, which is checked against them.
``burau`` and ``f-rep`` have no virtual block: words containing rho
letters cannot be evaluated there, and the relation verifier reports
rho-relations as skipped rather than checked.

Word images come from :func:`packed_word`, the one word-product routine.
Every block here has monomial entry denominators (1, r2 or r6), and the
schema's relations are positive words, so a window image is a polynomial
matrix over one denominator: the routine keeps it as rows N and one
polynomial D with image N / D.  Each letter's block B is read once as
N_B / D_B (``LocalRep.letter_fraction``, cached; an inverse letter's block
is inverted once per rep by ``LocalRep.letter_block``), and
right-multiplying by I (+) N_B / D_B (+) I rewrites the k columns B covers
with N_B and multiplies the other columns by D_B, on the whole degree or on
a diagonal window of it.

The products run on packed polynomials over Z[i] (Monagan and Pearce,
CASC 2007): a dict from one int per monomial to an int coefficient.
Variable k's exponent sits in bit field k + 1 of ``_FIELD_BITS`` bits and
the power of i, 0 or 1, in field 0, so multiplying monomials is one int
add, and i^2 = -1 is the bit test ``m & 2`` and a sign flip.
``LocalRep.letter_packed`` packs each letter once, N_B and D_B both
scaled by the integer L that clears their coefficient denominators, so
N_B / D_B is unchanged and every coefficient is a Gaussian integer.  A
field holds exponents up to 2^_FIELD_BITS - 1: a word whose letters'
largest exponents sum past that limit is refused with a ``ValueError``
before any product, since a wider sum would carry into the next field.
:func:`word_fraction` unpacks the result and divides it by the product of
the letters' L, which gives back N and D exactly, and :func:`eval_word` is
its ``RatFunc`` view.  :func:`packed_residue`, shared by ``analysis``'s
verifier and constraint generator, compares a relation's two sides packed
and returns only the differing entries.  The verifier unpacks them
(:func:`packed_fraction`); the generator keys them as Z[i] vectors
(:func:`equation_key`) and decodes each distinct one once, already monic
(:func:`monic_equations`).  Embedded degree-m generator matrices
(``LocalRep.matrix``) are built only for the engines that take them whole.

A :class:`LocalRep` stores its blocks over its ring; its parameters are
the ring's variables and its degree is n + k - 2, both read, not stored.

Conjugation equivalence is searched over geometric diagonal matrices
Q = diag(1, q, q^2, ...) -- exactly the shape that relates each family to
its primed form -- and returns the witness Q together with the parameter
binding it induces, accepted only when B's blocks, substituted through
that binding, equal A's conjugated blocks entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from math import gcd, lcm

from .groups import Generator, GroupSpec, Word, rho as _rho, sigma as _sigma
from .matrices import Matrix, block_embed
from .scalars import (
    GaussianRational,
    MissingVariable,
    MultiPoly,
    PolyRing,
    RatFunc,
    VanishingDenominator,
)


def _antidiagonal(v):
    return [[0, v("r2")], [1 / v("r2"), 0]]


def _swap(v):  # the antidiagonal block at r2 = 1
    return [[0, 1], [1, 0]]


def _free(k: int, stem: str):
    """The k x k block whose entry at row-major slot j is stem<j>."""
    return lambda v: [[v(f"{stem}{a * k + b + 1}") for b in range(k)] for a in range(k)]


def _det2(a: str, b: str, c: str, d: str):
    """The side condition of a crossing block whose invertible part is the
    2 x 2 block [[a, b], [c, d]]: its determinant a*d - b*c."""
    return lambda v: [v(a) * v(d) - v(b) * v(c)]


# Each entry: (block size, type-independent parameters, crossing stems,
# rho block | None, sigma_t block, sigma_t side conditions).  Blocks and
# conditions are functions of an accessor v: v("r2") is the parameter r2,
# v("s1") the crossing type's s1_t.  ``_assemble`` builds these rows and
# ``generic_rep``'s alike: the ring's variables are the type-independent
# parameters, then each stem suffixed _1 .. _c.  Every type-independent
# parameter is a side condition, ahead of the crossing ones, unless the
# conditions are None (``generic_rep``'s); a family without a rho block
# represents the braided types only.
_FAMILIES = {
    "upsilon": (
        2, ["r2"], ["s1", "s2", "s3", "s4"], _antidiagonal, _free(2, "s"),
        _det2("s1", "s2", "s3", "s4")),
    "upsilon-prime": (
        2, [], ["s1", "s2", "s3", "s4"], _swap, _free(2, "s"),
        _det2("s1", "s2", "s3", "s4")),
    "epsilon1": (
        3, ["r6"], ["s5", "s6", "s8", "s9"],
        lambda v: [[1, 0, 0], [0, 0, v("r6")], [0, 1 / v("r6"), 0]],
        lambda v: [[1, 0, 0], [0, v("s5"), v("s6")], [0, v("s8"), v("s9")]],
        _det2("s5", "s6", "s8", "s9")),
    "epsilon2": (
        3, ["r2"], ["s1", "s2", "s4", "s5"],
        lambda v: [[0, v("r2"), 0], [1 / v("r2"), 0, 0], [0, 0, 1]],
        lambda v: [[v("s1"), v("s2"), 0], [v("s4"), v("s5"), 0], [0, 0, 1]],
        _det2("s1", "s2", "s4", "s5")),
    "epsilon3": (
        3, ["r6"], ["s4", "s5"],
        lambda v: [[1, 0, 0], [1 / v("r6"), -1, v("r6")], [0, 0, 1]],
        lambda v: [[1, 0, 0],
                   [v("s4"), v("s5"), v("r6") * (1 - v("r6") * v("s4") - v("s5"))],
                   [0, 0, 1]],
        lambda v: [v("s5")]),
    "epsilon4": (
        3, ["r2"], ["s5", "s8"],
        lambda v: [[1, v("r2"), 0], [0, -1, 0], [0, 1 / v("r2"), 1]],
        lambda v: [[1, v("r2") * (1 - v("s5") - v("r2") * v("s8")), 0],
                   [0, v("s5"), 0],
                   [0, v("s8"), 1]],
        lambda v: [v("s5")]),
    "omega1": (
        2, ["r2"], ["s2", "s3"],
        _antidiagonal,
        lambda v: [[0, v("s2")], [v("s3"), 0]],
        lambda v: [v("s2"), v("s3")]),
    "omega2": (
        2, ["r2"], ["s2", "s4"],
        _antidiagonal,
        lambda v: [[0, v("s2")], [1 / v("r2"), v("s4")]],
        lambda v: [v("s2"), v("s4")]),
    "omega3": (
        2, ["r2"], ["s1", "s2"],
        _antidiagonal,
        lambda v: [[v("s1"), v("s2")], [1 / v("r2"), 0]],
        lambda v: [v("s1"), v("s2")]),
    "omega1p": (
        2, ["r2"], ["s2", "s3"],
        _swap,
        lambda v: [[0, v("s2") / v("r2")], [v("r2") * v("s3"), 0]],
        lambda v: [v("s2"), v("s3")]),
    "omega2p": (
        2, ["r2"], ["s2", "s4"],
        _swap,
        lambda v: [[0, v("s2") / v("r2")], [1, v("s4")]],
        lambda v: [v("s2"), v("s4")]),
    "omega3p": (
        2, ["r2"], ["s1", "s2"],
        _swap,
        lambda v: [[v("s1"), v("s2") / v("r2")], [1, 0]],
        lambda v: [v("s1"), v("s2")]),
    "burau": (
        2, ["t"], [], None,
        lambda v: [[1 - v("t"), v("t")], [1, 0]],
        lambda v: []),
    "f-rep": (
        3, ["t"], [], None,
        lambda v: [[1, 1, 0], [0, -v("t"), 0], [0, v("t"), 1]],
        lambda v: []),
}

FAMILY_NAMES = tuple(_FAMILIES)


def canonical_family(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key == "f-rep" or key == "frep":
        key = "f-rep"
    if key.endswith("-prime") and key.startswith("omega"):
        key = key.replace("-prime", "p")
    if key not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    return key


@dataclass
class LocalRep:
    """A concrete (symbolic or specialized) k-local representation; its
    parameters are its ring's variables."""

    name: str
    spec: GroupSpec
    block_size: int
    ring: PolyRing
    side_conditions: tuple[RatFunc, ...]
    rho_block: Matrix | None
    sigma_blocks: dict[int, Matrix]
    assignment: dict[str, GaussianRational] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def degree(self) -> int:
        return self.spec.n + self.block_size - 2

    @property
    def params(self) -> tuple[str, ...]:
        return self.ring.vars

    def has_block(self, g: Generator) -> bool:
        if g.kind == "rho":
            return self.rho_block is not None
        return g.type in self.sigma_blocks

    def letter_block(self, g: Generator, exp: int = 1) -> Matrix:
        """The k x k block of g, or of g^-1 when ``exp`` < 0; raises if the
        family omits g's block or g's strand index is out of range.  The
        inverse is computed once per (kind, type) and cached, since
        ``letter_fraction`` reads it on every call and ``matrix`` once per
        strand index."""
        if not 1 <= g.index <= self.spec.n - 1:
            raise ValueError(f"strand index {g.index} out of range for {self.spec}")
        if g.kind == "rho":
            blk = self.rho_block
            if blk is None:
                raise ValueError(
                    f"family {self.name!r} does not represent virtual generators"
                )
        else:
            blk = self.sigma_blocks.get(g.type)
            if blk is None:
                raise ValueError(
                    f"family {self.name!r} has no block for crossing type {g.type}"
                )
        if exp >= 0:
            return blk
        key = ("inv", g.kind, g.type)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = blk.inverse()
        return hit

    def letter_fraction(
        self, g: Generator, exp: int = 1
    ) -> tuple[tuple[tuple[MultiPoly, ...], ...], MultiPoly]:
        """``letter_block(g, exp)`` as polynomial columns over one
        denominator D, a common multiple of its entries' denominators: 1
        for a polynomial block, r2 or r6 for a family's, the determinant for
        an inverse block (cached)."""
        blk = self.letter_block(g, exp)
        key = ("frac", g.kind, g.type, exp >= 0)
        hit = self._cache.get(key)
        if hit is None:
            den = self.ring._one
            for x in (x for r in blk.rows for x in r if not x.den.is_one()):
                try:
                    den.exact_div(x.den)  # raises unless x.den divides den
                except ValueError:
                    den = den * x.den
            cols = tuple(
                tuple(
                    x.num if x.den.terms == den.terms else x.num * den.exact_div(x.den)
                    for x in col
                )
                for col in zip(*blk.rows)
            )
            hit = self._cache[key] = cols, den
        return hit

    def letter_packed(self, g: Generator, exp: int = 1) -> tuple:
        """``letter_fraction(g, exp)`` packed for :func:`packed_word`: the
        columns and the denominator, each entry a ``{packed monomial: int}``
        dict, all scaled by the integer L that clears their coefficient
        denominators, then L and the largest exponent they hold (cached)."""
        cols, den = self.letter_fraction(g, exp)
        key = ("packed", g.kind, g.type, exp >= 0)
        hit = self._cache.get(key)
        if hit is None:
            polys = [den, *(x for col in cols for x in col)]
            scale = lcm(*(c.d for p in polys for c in p.terms.values()))
            top = max((max(e, default=0) for p in polys for e in p.terms), default=0)
            packed = tuple(tuple(_pack(x, scale) for x in col) for col in cols)
            hit = self._cache[key] = packed, _pack(den, scale), scale, top
        return hit

    def matrix(self, g: Generator, exp: int = 1) -> Matrix:
        """Embedded degree-m image of g or g^-1, cached; every image shares
        the unit rows of one cached identity."""
        key = (g.kind, g.type, g.index, exp >= 0)
        hit = self._cache.get(key)
        if hit is None:
            ident = self._cache.get("identity")
            if ident is None:
                ident = self._cache["identity"] = Matrix.identity(self.ring, self.degree)
            hit = block_embed(self.letter_block(g, exp), g.index, self.degree, ident)
            self._cache[key] = hit
        return hit

    def generator_images(self) -> list[tuple[Generator, Matrix]]:
        """All embedded generator matrices that this family defines."""
        out = []
        for i in range(1, self.spec.n):
            if self.rho_block is not None:
                out.append((_rho(i), self.matrix(_rho(i))))
            for t in sorted(self.sigma_blocks):
                out.append((_sigma(i, t), self.matrix(_sigma(i, t))))
        return out

    def describe(self) -> str:
        mode = "symbolic parameters" if self.assignment is None else "specialized"
        return f"{self.name} over {self.spec.describe()}, degree {self.degree}, {mode}"


def _typed(values: dict, t: int, name: str):
    """The block-table accessor: parameter ``name`` of crossing type t,
    ``values[name]`` if it is type-independent, else ``values[name_t]``."""
    return values[name] if name in values else values[f"{name}_{t}"]


def _assemble(name: str, spec: GroupSpec, row: tuple, point: dict | None = None) -> LocalRep:
    """The ``LocalRep`` of one block-table row over ``spec``: symbolic, or
    at a full ``point``, where the row is evaluated on the point's Q(i)
    values themselves, so no symbolic block is built.  The side conditions
    stay symbolic either way; a point is checked against them, and against
    the ring's parameters, by :func:`_checked_point` before any block."""
    k, shared, stems, rho_rows, sigma_rows, sigma_conds = row
    names = shared + [f"{nm}_{t}" for t in range(1, spec.c + 1) for nm in stems]
    ring = PolyRing(tuple(names))
    symbols = {nm: ring.rf(nm) for nm in names}
    types = range(1, spec.c + 1) if rho_rows else sorted(spec.braid_types)
    conds = [symbols[nm] for nm in shared] if sigma_conds else []
    for t in types if sigma_conds else ():
        conds += sigma_conds(partial(_typed, symbols, t))
    values = symbols if point is None else _checked_point(name, ring.vars, conds, point)
    return LocalRep(
        name=name,
        spec=spec,
        block_size=k,
        ring=ring,
        side_conditions=tuple(conds),
        rho_block=Matrix.from_rows(ring, rho_rows(values.__getitem__)) if rho_rows else None,
        sigma_blocks={
            t: Matrix.from_rows(ring, sigma_rows(partial(_typed, values, t))) for t in types
        },
        assignment=None if point is None else values,
    )


def build_local_rep(
    family: str,
    spec: GroupSpec,
    params: str | dict = "symbolic",
) -> LocalRep:
    """Construct a family over ``spec``, symbolic or at a full parameter point.

    ``params`` is either the string ``"symbolic"`` or a dict binding every
    family parameter to a Q(i) scalar; the assignment must keep every side
    condition nonzero (those points are excluded from the family).  At a
    point the family's blocks are computed from the Q(i) values directly,
    with no symbolic block and no ``specialize``; the result equals
    ``specialize(build_local_rep(family, spec), params)`` field by field,
    and a point is refused with the same message.
    """
    name = canonical_family(family)
    if name.startswith("epsilon") and spec.c != 2:
        raise ValueError(f"{name} is defined over c = 2 groups; got c = {spec.c}")
    if name.startswith("omega") and not spec.welded:
        raise ValueError(f"{name} needs a welded group; got {spec.describe()}")
    if _FAMILIES[name][3] is None and not spec.braid_types:
        raise ValueError(
            f"{name} represents braided crossing types only; "
            f"{spec.describe()} flags none"
        )
    if params != "symbolic" and not isinstance(params, dict):
        raise TypeError("params must be 'symbolic' or a full assignment dict")
    return _assemble(name, spec, _FAMILIES[name], None if params == "symbolic" else params)


def generic_rep(
    block_size: int, spec: GroupSpec, rho_form: str = "generic"
) -> LocalRep:
    """A k-local 'representation' whose block entries are fresh unknowns.

    ``rho_form="antidiagonal"`` substitutes the classified virtual block
    [[0, r2], [1/r2, 0]] (the r1 = r4 = 0, r2*r3 = 1 solution locus) while
    the sigma blocks stay fully generic.
    """
    k = block_size
    if k not in (2, 3):
        raise ValueError("block size must be 2 or 3")
    if rho_form == "generic":
        rho_rows = _free(k, "r")
    elif rho_form == "antidiagonal":
        if k != 2:
            raise ValueError("the antidiagonal virtual block is a 2x2 form")
        rho_rows = _antidiagonal
    else:
        raise ValueError(f"unknown rho_form {rho_form!r}")
    slots = range(1, k * k + 1)
    row = (k, [f"r{j}" for j in slots], [f"s{j}" for j in slots],
           rho_rows, _free(k, "s"), None)
    name = f"generic-{k}-local" + ("-antidiagonal" if rho_form != "generic" else "")
    return _assemble(name, spec, row)


def specialize(rep: LocalRep, assignment: dict) -> LocalRep:
    """Evaluate every block at a full parameter point (side conditions
    checked).  A point where a block entry's denominator vanishes is
    refused with a ValueError as well, side conditions or none
    (``generic_rep`` has none)."""
    point = _checked_point(rep.name, rep.params, rep.side_conditions, assignment)
    try:
        rho_block = None if rep.rho_block is None else rep.rho_block.evaluate(point)
        sigma_blocks = {t: b.evaluate(point) for t, b in rep.sigma_blocks.items()}
    except VanishingDenominator as exc:
        raise ValueError(f"a block of {rep.name} is undefined: {exc}") from exc
    return replace(rep, rho_block=rho_block, sigma_blocks=sigma_blocks, assignment=point)


def _checked_point(name: str, params: tuple, conds, assignment: dict) -> dict:
    """``assignment`` as Q(i) values, refused with a ValueError unless it
    binds exactly the parameters ``params`` of the rep ``name`` and keeps
    every side condition of ``conds`` nonzero."""
    point = {k: _as_gauss(v) for k, v in assignment.items()}
    unknown = set(point) - set(params)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)} for {name}")
    missing = [p for p in params if p not in point]
    if missing:
        raise ValueError(f"missing parameters {missing} for {name}")
    for cond in conds:
        if cond.evaluate(point).is_zero():
            raise ValueError(f"assignment violates side condition {cond} != 0 for {name}")
    return point


def _as_gauss(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    return GaussianRational(v)


# the width of one packed-monomial field (see the module docstring)
_FIELD_BITS = 16


def _pack(p: MultiPoly, scale: int) -> dict[int, int]:
    """``scale * p`` as ``{packed monomial: int}``; ``scale`` must clear
    every coefficient denominator of p."""
    out = {}
    for e, c in p.terms.items():
        m = 0
        for x in reversed(e):
            m = m << _FIELD_BITS | x
        m <<= _FIELD_BITS
        f = scale // c.d
        if c.a:
            out[m] = c.a * f
        if c.b:
            out[m | 1] = c.b * f
    return out


def _parts(nvars: int, x: dict[int, int]) -> dict[tuple[int, ...], list[int]]:
    """The exponent tuples of a packed polynomial x, each with its Z[i]
    coefficient [a, b], in the order x first meets them.  A monomial is
    read only in the fields it uses: the lowest set bit names the lowest
    set field, which is copied and cleared until none is left."""
    bits = _FIELD_BITS
    mask = (1 << bits) - 1
    parts: dict = {}
    for m, c in x.items():
        e = [0] * nvars
        rest = m >> bits
        while rest:
            k = ((rest & -rest).bit_length() - 1) // bits
            e[k] = rest >> bits * k & mask
            rest ^= e[k] << bits * k
        parts.setdefault(tuple(e), [0, 0])[m & 1] += c
    return parts


def _unpack(ring: PolyRing, x: dict[int, int], scale: int) -> MultiPoly:
    """The ``MultiPoly`` x / scale of a packed polynomial x."""
    if not x:
        return ring._zero
    return MultiPoly(ring, {
        e: GaussianRational.from_ints(a, b, scale)
        for e, (a, b) in _parts(len(ring.vars), x).items()
    })


def _dot(xs, ys) -> dict[int, int]:
    """The packed polynomial sum of x * y over the pairs of ``xs`` and
    ``ys``: an exponent sum is one int add, i^2 = -1 the bit test ``m & 2``
    and a sign flip, a coefficient one int multiply.  Only where two
    products meet on one monomial are zero sums dropped."""
    out: dict[int, int] = {}
    n = 0
    for x, y in zip(xs, ys):
        if x and y:
            for m1, c1 in x.items():
                for m2, c2 in y.items():
                    m, c = m1 + m2, c1 * c2
                    if m & 2:
                        m, c = m ^ 2, -c
                    out[m] = out.get(m, 0) + c
                    n += 1
    return out if len(out) == n else {m: c for m, c in out.items() if c}


def _check_fields(top: int) -> None:
    """Refuse a product whose exponents may reach ``top``, the sum of its
    factors' largest exponents, when that overflows a bit field."""
    limit = (1 << _FIELD_BITS) - 1
    if top > limit:
        raise ValueError(
            f"exponents up to {top} exceed the packed-monomial field limit {limit}"
        )


def packed_word(
    rep: LocalRep, w: Word, start: int = 1, size: int | None = None
) -> tuple[list[list[dict[int, int]]], dict[int, int], int, int]:
    """Image of a word on the diagonal window of coordinates
    ``start .. start+size-1`` (default: all ``rep.degree`` of them), packed:
    rows N and one denominator D (``letter_packed`` dicts), the integer L
    that scales both, and a bound on their exponents.  The image is N / D,
    and N / L, D / L are the polynomials of :func:`word_fraction`.

    Every letter's image is I (+) N_B / D_B (+) I, so right-multiplying by
    it rewrites only the k columns its block covers, each as a combination
    of those same k columns with N_B's entries, and multiplies every other
    nonzero entry by D_B.  A word whose letters all fit in the window maps
    to I (+) W (+) I with W = N / D; a letter that does not fit raises
    ``ValueError``, and so does a word whose letters' largest exponents sum
    past the field limit, before any product.
    """
    if size is None:
        size = rep.degree - start + 1
    if start < 1 or size < 0 or start + size - 1 > rep.degree:
        raise ValueError(
            f"window {start}..{start + size - 1} outside degree {rep.degree}"
        )
    letters, top = [], 0
    for g, e in w.letters:
        cols, d, d_scale, d_top = rep.letter_packed(g, e)
        p = g.index - start
        if p < 0 or p + len(cols) > size:
            raise ValueError(
                f"{g} does not fit in the window {start}..{start + size - 1}"
            )
        letters.append((p, cols, d, d_scale))
        top += d_top
    _check_fields(top)
    out = [[{0: 1} if i == j else {} for j in range(size)] for i in range(size)]
    den, scale = {0: 1}, 1
    for p, cols, d, d_scale in letters:
        k = len(cols)
        scaled = d != {0: 1}
        rest = (*range(p), *range(p + k, size)) if scaled else ()
        for row in out:
            for j in rest:
                if row[j]:
                    row[j] = _dot((row[j],), (d,))
            seg = row[p : p + k]
            if any(seg):
                for b, col in enumerate(cols):
                    row[p + b] = _dot(seg, col)
        if scaled:
            den, scale = _dot((den,), (d,)), scale * d_scale
    return out, den, scale, top


def packed_residue(
    rep: LocalRep, lhs: Word, rhs: Word, start: int, size: int
) -> tuple[dict[tuple[int, int], dict[int, int]], dict[int, int]]:
    """``lhs`` against ``rhs`` on the window start .. start+size-1, packed
    (:func:`packed_word`): the entries where the images differ, keyed by
    (row, column) in row-major order, and one denominator D.  Over a shared
    denominator D = D_L an entry is N_L - N_R, and one where N_L and N_R
    agree is one dict compare and is left out.  Otherwise an entry is
    N_L*D_R - N_R*D_L over D = D_L*D_R, refused past the field limit as a
    word is.  Both sides' scale L cancels in the quotient by D."""
    left, d_l, _l, top_l = packed_word(rep, lhs, start, size)
    right, d_r, _r, top_r = packed_word(rep, rhs, start, size)
    crossed = d_l != d_r
    if crossed:
        _check_fields(top_l + top_r)
        den, factors = _dot((d_l,), (d_r,)), (d_r, {m: -c for m, c in d_l.items()})
    else:
        den, factors = d_l, ({0: 1}, {0: -1})
    diffs = {}
    for i, (a, b) in enumerate(zip(left, right)):
        for j, (x, y) in enumerate(zip(a, b)):
            if (crossed or x != y) and (diff := _dot((x, y), factors)):
                diffs[i, j] = diff
    return diffs, den


def packed_fraction(ring: PolyRing, x: dict[int, int], den: dict[int, int]) -> RatFunc:
    """The ``RatFunc`` x / den of two packed polynomials, normalized."""
    return RatFunc(_unpack(ring, x, 1), _unpack(ring, den, 1))


def equation_key(
    x: dict[int, int], den: dict[int, int]
) -> tuple[frozenset, dict[int, int]]:
    """A nonzero packed residue entry x / den (:func:`packed_residue`) as a
    primitive Z[i] numerator, and its key: equal for two entries exactly
    when their ``RatFunc(x, den).num`` are Q(i)-multiples, that is when
    their :func:`monic_equations` agree.  As ``RatFunc`` normalization
    does, the monomial x shares with den is divided out; that is all of it
    only over a monomial den, which every positive word over a family or
    ``generic_rep`` has (1 or a power of r2, times L), and the schema's
    relations are positive words, so any other den is refused.  Then, as
    in ``Echelon.insert``, x is multiplied by the conjugate of its
    coefficient at the largest packed monomial and divided by the gcd of
    its parts.  The key is the set of x's (monomial, coefficient) pairs."""
    if len(den) != 1:
        raise ValueError(f"an equation key needs a monomial denominator, not {len(den)} terms")
    bits = _FIELD_BITS
    mask = (1 << bits) - 1
    shared, rest = 0, next(iter(den)) >> bits << bits  # field 0 holds a power of i
    while rest:
        field = mask << ((rest & -rest).bit_length() - 1) // bits * bits
        shared |= min(rest & field, *(m & field for m in x))
        rest &= ~field
    if shared:
        x = {m - shared: c for m, c in x.items()}
    top = max(x) >> 1 << 1
    p, q = x.get(top, 0), x.get(top | 1, 0)
    if q or p < 0:
        x = _dot((x,), ({m: c for m, c in ((0, p), (1, -q)) if c},))
    g = gcd(*x.values())
    if g > 1:
        x = {m: c // g for m, c in x.items()}
    return frozenset(x.items()), x


def monic_equations(
    ring: PolyRing, xs: list[dict[int, int]]
) -> tuple[list[MultiPoly], tuple[str, ...]]:
    """Each packed polynomial of ``xs`` decoded once, already monic, and
    the ring's variables that occur in any of them, in ring order.  With
    c = p + qi the graded-lex leading coefficient, the term a + bi becomes
    ((pa + qb) + (pb - qa)i) / (p^2 + q^2), the coefficient of the monic
    ``MultiPoly``; a variable occurs exactly where the OR of every packed
    monomial has a nonzero field."""
    nvars, used, out = len(ring.vars), 0, []
    for x in xs:
        parts = _parts(nvars, x)
        p, q = parts[max(parts, key=lambda e: (sum(e), e))]  # MultiPoly.leading's order
        n = p * p + q * q
        out.append(MultiPoly(ring, {
            e: GaussianRational.from_ints(p * a + q * b, p * b - q * a, n)
            for e, (a, b) in parts.items()
        }))
        for m in x:
            used |= m
    bits = _FIELD_BITS
    mask = (1 << bits) - 1
    return out, tuple(v for k, v in enumerate(ring.vars, 1) if used >> bits * k & mask)


def word_fraction(
    rep: LocalRep, w: Word, start: int = 1, size: int | None = None
) -> tuple[list[list[MultiPoly]], MultiPoly]:
    """:func:`packed_word` unpacked and divided by its L: polynomial rows N
    and one denominator D, the product of the letters' ``letter_fraction``
    denominators, with the image N / D on the same window."""
    rows, den, scale, _top = packed_word(rep, w, start, size)
    ring = rep.ring
    return [[_unpack(ring, x, scale) for x in row] for row in rows], _unpack(ring, den, scale)


def eval_word(
    rep: LocalRep, w: Word, start: int = 1, size: int | None = None
) -> Matrix:
    """The ``RatFunc`` view of :func:`word_fraction`: entry N_ij / D,
    normalized, with the same window, fit and ``ValueError`` rules.

    Every entry equals the full product with the embedded matrices as a
    rational function.  When D is a monomial (every positive word over a
    family or ``generic_rep``, and every word whose inverse letters have a
    monomial determinant), ``RatFunc`` normalization is canonical, so the
    entry is the very representative that product gives.  Otherwise (say
    upsilon's sigma^-1, read over D = s1*s4 - s2*s3) an entry equal to 1
    is still 1, but another entry's representative may differ.
    """
    rows, den = word_fraction(rep, w, start, size)
    zero = rep.ring._rf_zero
    return Matrix(
        rep.ring, tuple(tuple(RatFunc(x, den) if x.terms else zero for x in r) for r in rows)
    )


@dataclass
class ConjugationWitness:
    """A successful equivalence: B(g) = Q^-1 A(g) Q for every generator.

    ``binding`` records how B's parameters read in A's ring after
    conjugation (the parameter relabeling the witness induces): B's blocks,
    substituted through it, are A's conjugated blocks.
    """

    q: RatFunc
    Q: Matrix
    binding: dict[str, RatFunc]

    def __str__(self):
        pairs = ", ".join(f"{k} -> {v}" for k, v in sorted(self.binding.items()))
        return f"Q = diag(1, q, q^2, ...) with q = {self.q}; binding: {pairs or 'none'}"


def _conjugate_block(block: Matrix, q: RatFunc) -> Matrix:
    """Q^-1 (block at any position) Q for geometric Q = diag(q^0, q^1, ...).

    Because Q is geometric, conjugation scales entry (a, b) by q^(b-a)
    uniformly at every embedding position, so it acts block-wise.
    """
    k = block.nrows
    rows = []
    for a in range(k):
        rows.append(
            tuple(block.rows[a][b] * q ** (b - a) for b in range(k))
        )
    return Matrix(block.ring, tuple(rows))


def conjugation_equivalence(
    rep_a: LocalRep, rep_b: LocalRep
) -> ConjugationWitness | None:
    """Search for Q = diag(1, q, ..., q^(m-1)) with B = Q^-1 A Q generator-wise.

    Candidate ratios q are 1 and the inverses of A's rho-parameters (the
    shapes that arise for this family zoo).  Each bare parameter of B binds
    to the first conjugated A entry in its slot, and B's other parameters
    that A's ring has bind to themselves.  A candidate is accepted only when
    every entry of B, substituted through that binding, equals the
    conjugated A entry in its slot: the check a caller makes to certify the
    witness.  Returns None when no candidate passes.
    """
    if rep_a.spec != rep_b.spec or rep_a.block_size != rep_b.block_size:
        raise ValueError("representations live over different groups or block sizes")
    if (rep_a.rho_block is None) != (rep_b.rho_block is None):
        raise ValueError("one representation lacks a virtual block")
    if sorted(rep_a.sigma_blocks) != sorted(rep_b.sigma_blocks):
        raise ValueError("crossing-type coverage differs")
    ring = rep_a.ring
    pairs = [] if rep_a.rho_block is None else [(rep_a.rho_block, rep_b.rho_block)]
    pairs += [(rep_a.sigma_blocks[t], rep_b.sigma_blocks[t]) for t in sorted(rep_a.sigma_blocks)]
    candidates = [ring.rf(1)] + [1 / ring.rf(p) for p in rep_a.params if p.startswith("r")]
    for q in candidates:
        slots = [
            (x, y)
            for blk_a, blk_b in pairs
            for row_a, row_b in zip(_conjugate_block(blk_a, q).rows, blk_b.rows)
            for x, y in zip(row_a, row_b)
        ]
        binding: dict[str, RatFunc] = {}
        for x, y in slots:
            v = y.as_variable()
            if v is not None:
                binding.setdefault(v, x)
        for p in rep_b.params:
            if p in ring.vars:
                binding.setdefault(p, ring.rf(p))
        try:
            ok = all(
                y.num.substitute(binding, ring) / y.den.substitute(binding, ring) == x
                for x, y in slots
            )
        except (MissingVariable, VanishingDenominator):
            ok = False
        if ok:
            m = rep_a.degree
            Q = Matrix.from_rows(
                ring,
                [[q ** a if a == b else 0 for b in range(m)] for a in range(m)],
            )
            return ConjugationWitness(q=q, Q=Q, binding=binding)
    return None
