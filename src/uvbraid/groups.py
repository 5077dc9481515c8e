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

A :class:`GroupSpec` is just this flag bundle; :func:`relations` enumerates
the finite presentation it denotes.  Words are sequences of signed letters
with the textual grammar ``r<i>`` / ``s<i>,<t>`` / optional ``^-1`` suffix,
whitespace separated (e.g. ``"r1 s2,1 s1,1^-1"``).

Convention: the image of a word ``g1 g2`` under any homomorphism here is
image(g1) * image(g2), multiplied in textual order.  Permutations compose
like matrices acting on column vectors, (p * q)(x) = p(q(x)), so the
rightmost factor acts first -- exactly as for the matrix images, which
keeps every homomorphism check convention-free.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass

FLAVORS = ("uv", "uw", "vb", "wb", "vt", "wt", "vsg", "wsg", "mvb", "mwb")


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


@dataclass(frozen=True)
class GroupSpec:
    """Presentation flags for one group in the universal family."""

    flavor: str
    n: int
    c: int
    welded: bool = False
    braid_types: frozenset[int] = frozenset()
    involutive_types: frozenset[int] = frozenset()
    singular: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n = {self.n}")
        if self.c < 1:
            raise ValueError(f"need c >= 1, got c = {self.c}")
        if self.singular and self.c != 2:
            raise ValueError("singular relations require exactly c = 2")
        for t in self.braid_types | self.involutive_types:
            if not 1 <= t <= self.c:
                raise ValueError(f"flagged type {t} outside 1..{self.c}")

    def describe(self) -> str:
        return f"{self.flavor}(n={self.n}, c={self.c})"


_FIXED_C = {"vb": 1, "wb": 1, "vt": 1, "wt": 1, "vsg": 2, "wsg": 2}


def make_spec(flavor: str, n: int, c_or_k: int | None = None) -> GroupSpec:
    """Build the GroupSpec for a named quotient.

    ``uv``/``uw`` take the number of crossing types c; ``mvb``/``mwb`` take k
    (type k is the braided one, lower types act as extra virtual families);
    the remaining flavors have their c fixed by definition.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    welded = flavor in ("uw", "wb", "wt", "wsg", "mwb")
    if flavor in _FIXED_C:
        c = _FIXED_C[flavor]
        if c_or_k is not None and c_or_k != c:
            raise ValueError(f"{flavor} fixes c = {c}; got {c_or_k}")
    else:
        if c_or_k is None:
            raise ValueError(f"{flavor} needs the number of crossing types")
        c = c_or_k
    braid: frozenset[int] = frozenset()
    involutive: frozenset[int] = frozenset()
    singular = False
    if flavor in ("vb", "wb"):
        braid = frozenset({1})
    elif flavor in ("vt", "wt"):
        involutive = frozenset({1})
    elif flavor in ("vsg", "wsg"):
        braid = frozenset({1, 2})
        singular = True
    elif flavor in ("mvb", "mwb"):
        braid = frozenset({c})
    return GroupSpec(flavor, n, c, welded, braid, involutive, singular)


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


def relations(spec: GroupSpec) -> list[Relation]:
    """Duplicate-free enumeration of the defining relations of ``spec``.

    Ordering is deterministic: the universal families first (PR1, PR2, PR3,
    CR, MR1, MR2), then WR1 when welded, then BR / INV / SG flag relations.
    """
    n, c = spec.n, spec.c
    out: list[Relation] = []
    for i in range(1, n - 1):
        out.append(
            Relation(
                f"PR1[i={i}]",
                word(rho(i), rho(i + 1), rho(i)),
                word(rho(i + 1), rho(i), rho(i + 1)),
            )
        )
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            out.append(
                Relation(
                    f"PR2[i={i},j={j}]",
                    word(rho(i), rho(j)),
                    word(rho(j), rho(i)),
                )
            )
    for i in range(1, n):
        out.append(Relation(f"PR3[i={i}]", word(rho(i), rho(i)), Word()))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            for t in range(1, c + 1):
                for l in range(1, c + 1):
                    out.append(
                        Relation(
                            f"CR[i={i},j={j},t={t},l={l}]",
                            word(sigma(i, t), sigma(j, l)),
                            word(sigma(j, l), sigma(i, t)),
                        )
                    )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                for t in range(1, c + 1):
                    out.append(
                        Relation(
                            f"MR1[i={i},j={j},t={t}]",
                            word(sigma(i, t), rho(j)),
                            word(rho(j), sigma(i, t)),
                        )
                    )
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            out.append(
                Relation(
                    f"MR2[i={i},t={t}]",
                    word(rho(i), rho(i + 1), sigma(i, t)),
                    word(sigma(i + 1, t), rho(i), rho(i + 1)),
                )
            )
    if spec.welded:
        for i in range(1, n - 1):
            for t in range(1, c + 1):
                out.append(
                    Relation(
                        f"WR1[i={i},t={t}]",
                        word(rho(i), sigma(i + 1, t), sigma(i, t)),
                        word(sigma(i + 1, t), sigma(i, t), rho(i + 1)),
                    )
                )
    for t in sorted(spec.braid_types):
        for i in range(1, n - 1):
            out.append(
                Relation(
                    f"BR[i={i},t={t}]",
                    word(sigma(i, t), sigma(i + 1, t), sigma(i, t)),
                    word(sigma(i + 1, t), sigma(i, t), sigma(i + 1, t)),
                )
            )
    for t in sorted(spec.involutive_types):
        for i in range(1, n):
            out.append(
                Relation(f"INV[i={i},t={t}]", word(sigma(i, t), sigma(i, t)), Word())
            )
    if spec.singular:
        # with sigma = type 1 and tau = type 2:
        for i in range(1, n):
            out.append(
                Relation(
                    f"SG1[i={i}]",
                    word(sigma(i, 1), sigma(i, 2)),
                    word(sigma(i, 2), sigma(i, 1)),
                )
            )
        for i in range(1, n - 1):
            out.append(
                Relation(
                    f"SG2[i={i}]",
                    word(sigma(i, 1), sigma(i + 1, 1), sigma(i, 2)),
                    word(sigma(i + 1, 2), sigma(i, 1), sigma(i + 1, 1)),
                )
            )
            out.append(
                Relation(
                    f"SG3[i={i}]",
                    word(sigma(i + 1, 1), sigma(i, 1), sigma(i + 1, 2)),
                    word(sigma(i, 2), sigma(i + 1, 1), sigma(i, 1)),
                )
            )
    return out


_TOKEN_RE = _re.compile(r"^(r(\d+)|s(\d+),(\d+))(\^-1)?$")


def parse_word(text: str, spec: GroupSpec) -> Word:
    """Parse the whitespace-separated word grammar, validating indices."""
    letters: list[tuple[Generator, int]] = []
    for pos, tok in enumerate(text.split()):
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r} at position {pos}")
        exp = -1 if m.group(5) else 1
        if m.group(2) is not None:
            i = int(m.group(2))
            if not 1 <= i <= spec.n - 1:
                raise ValueError(
                    f"strand index {i} out of range 1..{spec.n - 1} in {tok!r}"
                )
            letters.append((rho(i), exp))
        else:
            i, t = int(m.group(3)), int(m.group(4))
            if not 1 <= i <= spec.n - 1:
                raise ValueError(
                    f"strand index {i} out of range 1..{spec.n - 1} in {tok!r}"
                )
            if not 1 <= t <= spec.c:
                raise ValueError(f"type index {t} > c = {spec.c} in {tok!r}")
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
    acc = Permutation.identity(n)
    for g, _e in w.letters:
        if g.kind == "rho":
            acc = acc * Permutation.transposition(n, g.index)
        elif which == "piP":
            acc = acc * Permutation.transposition(n, g.index)
        elif which == "iota_check":
            raise ValueError(
                f"iota_check expects a pure-rho word; found sigma letter {g}"
            )
        # piK: sigma maps to the identity
    return acc


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
    to (0, id).  Inverse t0-letters count -1.
    """
    if not 1 <= t0 <= spec.c:
        raise ValueError(f"type {t0} out of range 1..{spec.c}")
    count = 0
    acc = Permutation.identity(spec.n)
    for g, e in w.letters:
        if g.kind == "rho":
            acc = acc * Permutation.transposition(spec.n, g.index)
        elif g.type == t0:
            count += e
    return PhiImage(count, acc)


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
