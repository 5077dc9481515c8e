"""Words, presentations and symmetric-group images for universal braid groups.

The universal virtual braid group on n strands with c crossing types has
generators rho_i (virtual crossings, i = 1..n-1) and sigma_{i,t} (type-t
crossings, i = 1..n-1, t = 1..c) subject to

    (PR1)  rho_i rho_{i+1} rho_i = rho_{i+1} rho_i rho_{i+1}
    (PR2)  rho_i rho_j = rho_j rho_i                (|i-j| >= 2)
    (PR3)  rho_i^2 = 1
    (CR)   sigma_{i,t} sigma_{j,l} = sigma_{j,l} sigma_{i,t}   (|i-j| >= 2)
    (MR1)  sigma_{i,t} rho_j = rho_j sigma_{i,t}    (|i-j| >= 2)
    (MR2)  rho_i rho_{i+1} sigma_{i,t} = sigma_{i+1,t} rho_i rho_{i+1}

The universal welded braid group adds, for every type t,

    (WR1)  rho_i sigma_{i+1,t} sigma_{i,t} = sigma_{i+1,t} sigma_{i,t} rho_{i+1}

and the named quotients are reached through three optional flags: braid
relations per type (BR), involutive types sigma_{i,t}^2 = 1 (INV), and the
three singular mixed relations for c = 2 (SG1-SG3).

A :class:`GroupSpec` is a flavor, n and c; its flags are read from the
flavor's one row of ``_FLAVORS``.  :func:`relations` enumerates the finite
presentation it denotes from ``_SCHEMA``, which states each family
above once, as a shape at strand 1.  One walk places the shapes: it yields
each relation as a :class:`Placement` of plain fields (tag, row, shape, the
strands i and j, the type values) and binds them into words only on
request, so a verifier that needs one member per window class builds no
others (:func:`placements`, and :func:`relations` of chosen placements).

Words are sequences of signed letters with the textual grammar ``r<i>`` /
``s<i>,<t>`` / optional ``^-1`` suffix, whitespace separated (e.g.
``"r1 s2,1 s1,1^-1"``).

Convention: the image of a word ``g1 g2`` under any homomorphism here is
image(g1) * image(g2), multiplied in textual order.  Permutations compose
like matrices acting on column vectors, (p * q)(x) = p(q(x)), so the
rightmost factor acts first -- exactly as for the matrix images, which
keeps every homomorphism check convention-free.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

@dataclass(frozen=True)
class Generator:
    """A group generator: rho_i (kind 'rho') or sigma_{i,t} (kind 'sigma')."""

    kind: str
    index: int
    type: int | None = None

    def __str__(self):
        if self.kind == "rho":
            return f"r{self.index}"
        return f"s{self.index},{self.type}"


def rho(i: int) -> Generator:
    return Generator("rho", i)


def sigma(i: int, t: int) -> Generator:
    return Generator("sigma", i, t)


@dataclass(frozen=True)
class Word:
    """A word in the free group on the generators: signed letters, exp = +-1."""

    letters: tuple[tuple[Generator, int], ...] = ()

    def __mul__(self, other: Word) -> Word:
        return Word(self.letters + other.letters)

    def inverse(self) -> Word:
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(
            str(g) + ("^-1" if e < 0 else "") for g, e in self.letters
        )

    def __repr__(self):
        return f"<Word {self}>"


def word(*gens: Generator) -> Word:
    return Word(tuple((g, 1) for g in gens))


class _Flavor(NamedTuple):
    """A named quotient's presentation flags (see ``_SCHEMA``), and the c it
    fixes or None.  In ``braid``, "c" stands for the top type c: ``mvb`` and
    ``mwb`` take k = c, type k being the braided one and lower types acting
    as extra virtual families."""

    welded: bool
    fixed_c: int | None
    braid: tuple
    involutive: tuple
    singular: bool


_FLAVORS = {
    "uv": _Flavor(False, None, (), (), False),
    "uw": _Flavor(True, None, (), (), False),
    "vb": _Flavor(False, 1, (1,), (), False),
    "wb": _Flavor(True, 1, (1,), (), False),
    "vt": _Flavor(False, 1, (), (1,), False),
    "wt": _Flavor(True, 1, (), (1,), False),
    "vsg": _Flavor(False, 2, (1, 2), (), True),
    "wsg": _Flavor(True, 2, (1, 2), (), True),
    "mvb": _Flavor(False, None, ("c",), (), False),
    "mwb": _Flavor(True, None, ("c",), (), False),
}
FLAVORS = tuple(_FLAVORS)
_FIXED_C = {f: row.fixed_c for f, row in _FLAVORS.items() if row.fixed_c}


@dataclass(frozen=True)
class GroupSpec:
    """One group in the universal family: its flavor, n strands and c
    crossing types.  The presentation flags are the flavor's."""

    flavor: str
    n: int
    c: int

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}; expected one of {FLAVORS}")
        fixed = _FLAVORS[self.flavor].fixed_c
        if fixed is not None and self.c != fixed:
            raise ValueError(f"{self.flavor} fixes c = {fixed}; got {self.c}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n = {self.n}")
        if self.c < 1:
            raise ValueError(f"need c >= 1, got c = {self.c}")

    @property
    def welded(self) -> bool:
        return _FLAVORS[self.flavor].welded

    @property
    def braid_types(self) -> frozenset[int]:
        return frozenset(self.c if t == "c" else t for t in _FLAVORS[self.flavor].braid)

    @property
    def involutive_types(self) -> frozenset[int]:
        return frozenset(_FLAVORS[self.flavor].involutive)

    @property
    def singular(self) -> bool:
        return _FLAVORS[self.flavor].singular

    def describe(self) -> str:
        return f"{self.flavor}(n={self.n}, c={self.c})"

    def to_dict(self) -> dict:
        return {"flavor": self.flavor, "n": self.n, "c": self.c}


def make_spec(flavor: str, n: int, c_or_k: int | None = None) -> GroupSpec:
    """The GroupSpec of a named quotient: ``uv``/``uw`` take the number of
    crossing types c, ``mvb``/``mwb`` take k (see ``_FLAVORS``); the other
    flavors fix c, which may be left out."""
    c = _FIXED_C.get(flavor) if c_or_k is None else c_or_k
    if c is None and flavor in _FLAVORS:
        raise ValueError(f"{flavor} needs the number of crossing types")
    return GroupSpec(flavor, n, c)


@dataclass(frozen=True)
class Relation:
    """One defining relation lhs = rhs with a family tag like ``MR2[i=1,t=2]``."""

    tag: str
    lhs: Word
    rhs: Word

    def relator(self) -> Word:
        return self.lhs * self.rhs.inverse()

    def __str__(self):
        return f"{self.tag}: {self.lhs} = {self.rhs}"


# The presentation, one row per relation family: (the GroupSpec flag it
# needs, or None; "local" or "far"; shapes).  A shape "TAG: lhs = rhs" is
# written at strand 1 in the word grammar, t and l standing for crossing
# types.  A local shape on strands 1..1+s sits at i = 1..n-1-s.  A far row
# is x_i y_j = y_j x_i, x and y written at strands 1 and 3, at every i, j two
# or more apart, with i < j when x and y are of one kind.  A row over a
# flagged type set runs type by type, any other row place by place with its
# types innermost, and a row's shapes are emitted together at each place.
_SCHEMA = (
    (None, "local", "PR1: r1 r2 r1 = r2 r1 r2"),
    (None, "far", "PR2: r1 r3 = r3 r1"),
    (None, "local", "PR3: r1 r1 = 1"),
    (None, "far", "CR: s1,t s3,l = s3,l s1,t"),
    (None, "far", "MR1: s1,t r3 = r3 s1,t"),
    (None, "local", "MR2: r1 r2 s1,t = s2,t r1 r2"),
    ("welded", "local", "WR1: r1 s2,t s1,t = s2,t s1,t r2"),
    ("braid_types", "local", "BR: s1,t s2,t s1,t = s2,t s1,t s2,t"),
    ("involutive_types", "local", "INV: s1,t s1,t = 1"),
    # with sigma = type 1 and tau = type 2
    ("singular", "local", "SG1: s1,1 s1,2 = s1,2 s1,1"),
    ("singular", "local", "SG2: s1,1 s2,1 s1,2 = s2,2 s1,1 s2,1",
     "SG3: s2,1 s1,1 s2,2 = s1,2 s2,1 s1,1"),
)

# The forbidden moves, which do not follow from the universal relations:
# FM1 is the welded (over) move, FM2 the under move.
_FORBIDDEN = ((None, "local", "FM1: r1 s2,t s1,t = s2,t s1,t r2",
               "FM2: r2 s1,t s2,t = s1,t s2,t r1"),)

_SHAPE_LETTER = _re.compile(r"([rs])(\d+)(?:,([tl]|\d+))?")


def _parse(table: tuple) -> list:
    """Each row as (scope, far?, span s, type names, [(tag, sides, span)]); a
    letter is (kind "r" or "s", "i" or "j", strand offset, type: literal, name
    or None), and a span is the highest strand offset, of a shape or its row."""
    rows = []
    for scope, where, *texts in table:
        far, shapes = where == "far", []
        for text in texts:
            tag, _, equation = text.partition(": ")
            sides = tuple(
                tuple((kind, "j" if far and at != "1" else "i", 0 if far else int(at) - 1,
                       int(typ) if typ.isdigit() else typ or None)
                      for kind, at, typ in _SHAPE_LETTER.findall(side))
                for side in equation.split(" = ")
            )
            shapes.append((tag, sides, max(x[2] for side in sides for x in side)))
        letters = [x for _tag, sides, _s in shapes for side in sides for x in side]
        types = [t for t in "tl" if any(x[3] == t for x in letters)]
        rows.append((scope, far, max(x[2] for x in letters), types, shapes))
    return rows


# one parsed table: the schema rows, then the forbidden rows
_ROWS = _parse(_SCHEMA + _FORBIDDEN)
_SCHEMA_ROWS = range(len(_SCHEMA))
_FORBIDDEN_ROWS = range(len(_SCHEMA), len(_ROWS))


class Placement(NamedTuple):
    """One relation of the parsed table at one place, its words not yet
    built: ``row`` and ``shape`` index the table and the row's shapes, ``i``
    and ``j`` are its strands (``j == i`` for a local row), and ``values``
    are the values of the row's type names, in order.  Everything else is
    read from the row."""

    tag: str
    row: int
    shape: int
    i: int
    j: int
    values: tuple

    @property
    def sides(self) -> tuple:
        """The shape's letters, lhs then rhs (see ``_parse``)."""
        return _ROWS[self.row][4][self.shape][1]

    @property
    def span(self) -> int:
        """The shape's highest strand offset (see ``_parse``)."""
        return _ROWS[self.row][4][self.shape][2]

    def letter(self, shape_letter: tuple) -> tuple[Generator, int]:
        """The signed letter a shape letter ``(kind, v, at, t)`` is here; a
        literal type, or a rho's None, stands for itself."""
        kind, v, at, t = shape_letter
        if isinstance(t, str):
            t = self.values[_ROWS[self.row][3].index(t)]
        return _positive_letter(kind, (self.j if v == "j" else self.i) + at, t)

    def relation(self) -> Relation:
        lhs, rhs = (Word(tuple(map(self.letter, side))) for side in self.sides)
        return Relation(self.tag, lhs, rhs)


@cache
def _positive_letter(kind: str, i: int, t: int | None) -> tuple[Generator, int]:
    """``(rho_i, 1)`` or ``(sigma_{i,t}, 1)``; Generators are frozen, so each
    is built once and shared."""
    return (rho(i) if kind == "r" else sigma(i, t)), 1


def _place(rows: range, spec: GroupSpec) -> Iterator[Placement]:
    """The walk over every placement of the parsed ``rows`` on the strands
    and types of ``spec``, in row order (see ``_SCHEMA``).  It builds no
    word: a caller builds only the placements it needs."""
    n, c = spec.n, spec.c
    for r in rows:
        scope, far, span, types, shapes = _ROWS[r]
        flag = True if scope is None else getattr(spec, scope)
        if not flag:
            continue
        if far:
            x, y = (kind for kind, *_ in shapes[0][1][0])
            places = [(i, j, f"[i={i},j={j}") for i in range(1, n) for j in range(1, n)
                      if abs(i - j) >= 2 and (i < j or x != y)]
        else:
            places = [(i, i, f"[i={i}") for i in range(1, n - span)]
        if isinstance(flag, frozenset):
            runs = [[(t,)] for t in sorted(flag)]
        else:
            runs = [list(product(range(1, c + 1), repeat=len(types)))]
        # a tag is its shape's name, then the strand fields, formatted once
        # per place, then the type fields, formatted once per type values
        type_fields = "".join(f",{k}=%d" for k in types) + "]"
        for run in runs:
            typed = [(values, type_fields % values) for values in run]
            for i, j, strand_fields in places:
                heads = [(s, tag + strand_fields) for s, (tag, *_) in enumerate(shapes)]
                for values, tail in typed:
                    for s, head in heads:
                        yield Placement(head + tail, r, s, i, j, values)


def placements(spec: GroupSpec) -> Iterator[Placement]:
    """The defining relations of ``spec`` as placements, in the order of
    ``relations``; a verifier builds the words of the few it checks."""
    return _place(_SCHEMA_ROWS, spec)


def relations(spec: GroupSpec, chosen: Iterable[Placement] | None = None) -> list[Relation]:
    """Duplicate-free enumeration of the defining relations of ``spec``: the
    rows of ``_SCHEMA`` in order, so the universal families first (PR1, PR2,
    PR3, CR, MR1, MR2), then WR1 when welded, then BR / INV / SG.  Given
    ``chosen`` placements of ``spec`` (see ``placements``), only their
    relations, in that order: the only words built."""
    return [p.relation() for p in (placements(spec) if chosen is None else chosen)]


def forbidden_moves(spec: GroupSpec) -> list[Relation]:
    """The forbidden moves of ``_FORBIDDEN``, FM1 and FM2 at each i and t."""
    return [p.relation() for p in _place(_FORBIDDEN_ROWS, spec)]


_TOKEN_RE = _re.compile(r"^(r(\d+)|s(\d+),(\d+))(\^-1)?$")


def parse_word(text: str, spec: GroupSpec) -> Word:
    """Parse the whitespace-separated word grammar, validating indices."""
    letters: list[tuple[Generator, int]] = []
    for pos, tok in enumerate(text.split()):
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r} at position {pos}")
        exp = -1 if m.group(5) else 1
        i = int(m.group(2) or m.group(3))
        if not 1 <= i <= spec.n - 1:
            raise ValueError(f"strand index {i} out of range 1..{spec.n - 1} in {tok!r}")
        if m.group(2) is not None:
            letters.append((rho(i), exp))
        else:
            t = int(m.group(4))
            if not 1 <= t <= spec.c:
                raise ValueError(f"type index {t} out of range 1..{spec.c} in {tok!r}")
            letters.append((sigma(i, t), exp))
    return Word(tuple(letters))


def _is_involutive(g: Generator, spec: GroupSpec) -> bool:
    return g.kind == "rho" or (g.kind == "sigma" and g.type in spec.involutive_types)


def free_reduce(w: Word, spec: GroupSpec) -> Word:
    """Cancel adjacent g g^-1, folding involutive letters (rho, flagged sigma)
    to exponent +1 first so that g g also cancels for them.  Confluent, hence
    idempotent and length-non-increasing.  For uv at n = 2, where the group
    is F_c * Z_2, it is a normal form: two words are equal in the group iff
    they reduce to the same word."""
    stack: list[tuple[Generator, int]] = []
    for g, e in w.letters:
        if _is_involutive(g, spec):
            e = 1
        if stack:
            h, f = stack[-1]
            if h == g and (_is_involutive(g, spec) or e == -f):
                stack.pop()
                continue
        stack.append((g, e))
    return Word(tuple(stack))


class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n.

    ``p * q`` is the permutation that applies q first and then p, so that
    word images multiply in the same order as the corresponding matrices:
    image(g1 g2) = image(g1) * image(g2) acting on column vectors.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = tuple(images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition s_i = (i i+1)."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range 1..{n - 1}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("permutation degrees differ")
        return Permutation(tuple(self(other(x)) for x in range(1, self.n + 1)))

    def inverse(self) -> Permutation:
        images = [0] * self.n
        for x in range(1, self.n + 1):
            images[self(x) - 1] = x
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self):
        return f"<Permutation {self.images}>"


def perm_image(w: Word, spec: GroupSpec, which: str) -> Permutation:
    """Image of a word in S_n under one of the permutation quotient maps.

    ``piP`` sends every generator (rho and sigma alike) to the adjacent
    transposition of its strand; ``piK`` keeps rho and forgets sigma;
    ``iota_check`` is piK restricted to pure-rho words (it errors on sigma
    letters) and realizes that the Coxeter copy s_i -> rho_i splits off.
    Inverse letters contribute the same transposition (s_i^2 = 1).
    """
    if which not in ("piP", "piK", "iota_check"):
        raise ValueError(f"unknown map {which!r}; want piP, piK or iota_check")
    n = spec.n
    images = list(range(1, n + 1))
    for g, _e in w.letters:
        if g.kind == "sigma" and which != "piP":
            if which == "iota_check":
                raise ValueError(
                    f"iota_check expects a pure-rho word; found sigma letter {g}"
                )
            continue  # piK: sigma maps to the identity
        # right-multiplying by (i i+1) swaps the images of i and i+1
        i = g.index
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range 1..{n - 1}")
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


@dataclass(frozen=True)
class PhiImage:
    """Image in Z x S_n: total t0-exponent and the rho-permutation."""

    count: int
    perm: Permutation

    def is_identity(self) -> bool:
        return self.count == 0 and self.perm.is_identity()

    def __str__(self):
        return f"({self.count}, {self.perm})"


def phi(w: Word, t0: int, spec: GroupSpec) -> PhiImage:
    """The splitting homomorphism onto Z x S_n for a chosen type t0.

    rho_i goes to (0, s_i); sigma_{i,t0} to (1, id); every other sigma type
    to (0, id).  Inverse t0-letters count -1.  The permutation is piK's.
    """
    if not 1 <= t0 <= spec.c:
        raise ValueError(f"type {t0} out of range 1..{spec.c}")
    count = sum(e for g, e in w.letters if g.kind == "sigma" and g.type == t0)
    return PhiImage(count, perm_image(w, spec, "piK"))


@dataclass(frozen=True)
class AbelianImage:
    """Image in Z^c x Z_2: sigma exponent sums per type, rho-count parity."""

    sigma_exponents: tuple[int, ...]
    rho_parity: int

    def is_identity(self) -> bool:
        return self.rho_parity == 0 and not any(self.sigma_exponents)

    def __add__(self, other: AbelianImage) -> AbelianImage:
        if len(self.sigma_exponents) != len(other.sigma_exponents):
            raise ValueError("abelian images of different type counts")
        return AbelianImage(
            tuple(a + b for a, b in zip(self.sigma_exponents, other.sigma_exponents)),
            (self.rho_parity + other.rho_parity) % 2,
        )

    def __str__(self):
        return f"({self.sigma_exponents}, {self.rho_parity})"


def abelianize(w: Word, spec: GroupSpec) -> AbelianImage:
    """Image in the abelianization Z^c x Z_2 of the universal welded group.

    Valid for uv/uw flavors (where no sigma type is involutive or otherwise
    torsion); for flavors with involutive sigma types the free Z^c report
    would be wrong, so those are rejected.
    """
    if spec.involutive_types:
        raise ValueError(
            "abelianization with involutive sigma types is not Z^c x Z_2"
        )
    sig = [0] * spec.c
    par = 0
    for g, e in w.letters:
        if g.kind == "rho":
            par ^= 1
        else:
            sig[g.type - 1] += e
    return AbelianImage(tuple(sig), par)
