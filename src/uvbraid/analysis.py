"""Verification engines: relation checking, constraint systems, finite-field
scans, irreducibility criteria with an independent algebra-dimension oracle,
invariant-vector computations, and quotient-factoring checks.

The engines are deliberately redundant in pairs: a closed-form criterion is
always checkable against a dimension oracle, a derived constraint system
against a finite-field scan, and a symbolic verification against two
partners.  One, ``_block_mapping`` in ``tests/test_analysis.py``, puts a
family's blocks into the equations of ``generate_constraints(k, spec)``,
expanded over ``reps.generic_rep``'s unknowns, not the family's ring; it
shares the schema and window walk with ``verify_relations``, and the packed
comparison ``reps.packed_residue`` that finds a window's differing
entries, but not what is read from them: the verifier unpacks an entry
into a ``RatFunc``, the generator keys and decodes it as an equation
without one.  The other,
the full-degree reference ``_full_degree_outcomes`` there, shares neither:
it multiplies every relation out at full degree.  The pairs are kept
separate so that one route can catch a bug in the other.

Exactness policy: everything symbolic runs over rational functions; the
oracles (Burnside dimension, spin) run over Q(i) after specialization.
Rank over Q(i) equals rank over C for the same matrices, so deciding
complex irreducibility with exact arithmetic is sound.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product

from .groups import (  # forbidden_moves is re-exported, not used here
    GroupSpec,
    Placement,
    Relation,
    Word,
    forbidden_moves,
    perm_image,
    phi,
    placements,
    relations,
)
from .matrices import Echelon, Matrix, gaussian_integer_terms, place
from .reps import (  # eval_word is re-exported, not used here
    LocalRep,
    _typed,
    build_local_rep,
    equation_key,
    eval_word,
    generic_rep,
    monic_equations,
    packed_fraction,
    packed_residue,
)
from .scalars import (
    GaussianRational,
    MultiPoly,
    PolyRing,
    RatFunc,
    VanishingDenominator,
)

# ---------------------------------------------------------------------------
# relation verification


@dataclass
class RelationOutcome:
    tag: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    residue: Matrix | None = None
    # how a checked relation was discharged: "window", "class of <tag>" or
    # "disjoint supports"; not part of ``to_dict``
    how: str = ""


@dataclass
class VerificationReport:
    rep: str
    spec: GroupSpec
    mode: str  # "symbolic" | "specialized"
    outcomes: list[RelationOutcome]

    @property
    def failed(self) -> list[RelationOutcome]:
        return [o for o in self.outcomes if o.status == "fail"]

    @property
    def skipped(self) -> list[RelationOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def all_passed(self) -> bool:
        return not self.failed

    @property
    def checked(self) -> bool:
        """At least one relation passed; a report whose every relation was
        skipped checked nothing."""
        return any(o.status == "pass" for o in self.outcomes)

    def summary(self) -> str:
        n_pass = sum(1 for o in self.outcomes if o.status == "pass")
        out = f"{self.rep}: {n_pass}/{len(self.outcomes)} relations pass"
        if self.skipped:
            out += f" ({len(self.skipped)} skipped)"
        if self.failed:
            out += f", FAILING: {', '.join(o.tag for o in self.failed)}"
        return out

    def to_dict(self) -> dict:
        return {
            "rep": self.rep,
            "group": self.spec.to_dict(),
            "mode": self.mode,
            "checks": [
                {
                    "tag": o.tag,
                    "status": o.status,
                    "details": o.detail
                    + (
                        f"; residue {o.residue}"
                        if o.residue is not None and o.status == "fail"
                        else ""
                    ),
                }
                for o in self.outcomes
            ],
        }


_SAMPLE_TRIES = 500


def sample_point(rep: LocalRep, rng: random.Random) -> dict:
    """A random integer parameter point avoiding all side-condition zeros.
    Raises ValueError when none of ``_SAMPLE_TRIES`` draws avoids them."""
    for _ in range(_SAMPLE_TRIES):
        point = {
            p: GaussianRational(rng.choice([x for x in range(-9, 10) if x]))
            for p in rep.params
        }
        try:
            if all(not cond.evaluate(point).is_zero() for cond in rep.side_conditions):
                return point
        except VanishingDenominator:
            continue
    raise ValueError(f"could not sample a valid point for {rep.name}")


def _window(p: Placement, k: int) -> tuple | None:
    """Where placement ``p`` acts under a k-local homogeneous representation,
    read from its fields; no word is built.

    ``None`` for a far row (PR2, CR, MR1) whose letters sit k or more
    strands apart: their images are block-diagonal on disjoint coordinates,
    so they commute identically.  Otherwise ``(key, start, size)``: both
    sides map to I (+) W (+) I with W on the coordinates start ..
    start+size-1 (lowest strand index to highest plus k-1), and W depends
    only on ``key`` -- the row, the shape, the type values and the signed
    gap j - i (0 for a local row) -- which fixes the relation shifted to
    start at strand 1.
    """
    gap = p.j - p.i
    if abs(gap) >= k:
        return None
    return (p.row, p.shape, p.values, gap), min(p.i, p.j), abs(gap) + p.span + k


def _residue(rep: LocalRep, rel: Relation, start: int, size: int) -> Matrix:
    """eval(lhs) - eval(rhs) on the window start .. start+size-1, from the
    packed comparison ``packed_residue``: an entry where the sides agree is
    the ring's zero, and only a differing one is unpacked into a
    ``RatFunc``, so a passing relation builds none."""
    diffs, den = packed_residue(rep, rel.lhs, rel.rhs, start, size)
    ring, zero = rep.ring, rep.ring._rf_zero
    rows = [[zero] * size for _ in range(size)]
    for (i, j), x in diffs.items():
        rows[i][j] = packed_fraction(ring, x, den)
    return Matrix(ring, tuple(map(tuple, rows)))


def verify_relations(rep: LocalRep, spec: GroupSpec | None = None) -> VerificationReport:
    """Check every relation of ``spec`` (default: the rep's own group).

    Residues are expanded exactly over the rep's own ring: symbolic
    parameters, or Q(i) once the rep is specialized.  Either way the check
    is a proof.  Relations touching a generator the family does not
    represent (e.g. rho under Burau) are reported as skipped, not checked.

    Locality does the rest (see ``_window``).  One pass over the schema
    walk (``groups.placements``) reports each placement as it comes: a far
    commutation of letters k or more strands apart passes on disjoint
    supports with no arithmetic, and every other relation is checked on
    its window, once per translation class.  The class's residue is made
    when the pass meets its first member, the only member whose words are
    built; a later member takes its verdict.  The residue is zero outside
    the window, so a failing member's full-degree ``residue`` is its
    class's window residue placed at the member's own start.  Its detail's
    entry is the window's first nonzero one, found and printed once per
    class, offset by the member's start - 1: the first nonzero entry of the
    full products.  A skipped member's detail names its own first
    uncovered letter.
    """
    spec = spec or rep.spec
    if spec.n != rep.spec.n:
        raise ValueError("strand counts differ between rep and requested spec")
    if spec.c > rep.spec.c:
        raise ValueError("requested spec has more crossing types than the rep")
    k, zeros = rep.block_size, Matrix.zeros(rep.ring, rep.degree, rep.degree)
    # (row, shape, type values) -> the first shape letter the family has no
    # block for, or None: blocks depend on kind and type, not on strands
    uncovered: dict[tuple, tuple | None] = {}
    # class key -> (tag of its first member, its window residue, and the
    # window's first nonzero entry as (row, column, printed entry) or None)
    verdicts: dict[tuple, tuple[str, Matrix, tuple | None]] = {}
    outcomes = []
    for p in placements(spec):
        shape_key = p.row, p.shape, p.values
        if shape_key not in uncovered:
            uncovered[shape_key] = next(
                (x for side in p.sides for x in side if not rep.has_block(p.letter(x)[0])),
                None,
            )
        missing = uncovered[shape_key]
        if missing is not None:
            detail = f"family {rep.name!r} has no block for {p.letter(missing)[0]}"
            outcomes.append(RelationOutcome(p.tag, "skipped", detail))
            continue
        window = _window(p, k)
        if window is None:
            outcomes.append(RelationOutcome(p.tag, "pass", how="disjoint supports"))
            continue
        cls, start, size = window
        verdict = verdicts.get(cls)
        if verdict is None:
            (rel,) = relations(spec, [p])
            w = _residue(rep, rel, start, size)
            bad = None if w.is_zero() else next(
                (i, j, str(x)) for i, row in enumerate(w.rows) for j, x in enumerate(row)
                if not x.is_zero()
            )
            verdict = verdicts[cls] = p.tag, w, bad
        first, window_residue, bad = verdict
        how = "window" if first == p.tag else f"class of {first}"
        if bad is None:
            outcomes.append(RelationOutcome(p.tag, "pass", how=how))
            continue
        i, j, text = bad
        detail = f"entry {(start - 1 + i, start - 1 + j)}: {text}"
        residue = place(window_residue, start, zeros)
        outcomes.append(RelationOutcome(p.tag, "fail", detail, residue, how))
    return VerificationReport(
        rep=rep.describe(),
        spec=spec,
        mode="symbolic" if rep.assignment is None else "specialized",
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# constraint-system generation


@dataclass
class ConstraintSystem:
    """Polynomial equations forced on generic block entries by relations."""

    block_size: int
    spec: GroupSpec
    ring: PolyRing
    unknowns: tuple[str, ...]
    equations: list[MultiPoly]
    provenance: list[list[str]]
    # the generic blocks, rho then sigma_t by t, that ``invertibility`` reads
    blocks: list[Matrix] = field(default_factory=list, repr=False)

    @cached_property
    def invertibility(self) -> list[MultiPoly]:
        """One polynomial per block of ``blocks``, nonzero exactly where the
        block is defined and invertible: its determinant's numerator times
        its entries' denominators (-r2 for the antidiagonal virtual block).
        Made on first read, as only invertible scans read it."""
        out = []
        for block in self.blocks:
            poly = block.det().num
            for row in block.rows:
                for entry in row:
                    poly = poly * entry.den
            out.append(poly)
        return out

    def __len__(self):
        return len(self.equations)

    def to_dict(self) -> dict:
        return {
            "block_size": self.block_size,
            "unknowns": list(self.unknowns),
            "equations": [str(e) for e in self.equations],
            "provenance": self.provenance,
        }

    def substitute(self, mapping: dict, target: PolyRing) -> list[RatFunc]:
        """Plug rational functions in for the unknowns, equation by equation."""
        return [e.substitute(mapping, target) for e in self.equations]


def generate_constraints(
    block_size: int,
    spec: GroupSpec,
    relation_tags: list[str] | None = None,
    rho_form: str = "generic",
) -> ConstraintSystem:
    """Expand relation residues over generic blocks into a polynomial system.

    Each nonzero entry of eval(lhs) - eval(rhs) contributes its numerator
    polynomial (denominators are monomials in the invertible entries, so
    clearing them loses no solutions).  Equations are deduplicated up to
    nonzero scalar multiples; provenance keeps every contributing tag.
    An entry stays packed (``reps.packed_residue``) and is keyed as a Z[i]
    vector up to Q(i) multiples (``reps.equation_key``), so only distinct
    equations are decoded, each once and already monic, and the unknowns
    are read from their packed monomials (``reps.monic_equations``).
    Residues are expanded on windows, once per translation class, exactly
    as ``verify_relations`` checks them, in one pass over the chosen
    placements of the schema walk (``groups.placements``): a class's
    residue, and the keys of its equations, are made when the pass meets
    its first chosen member, the only member whose words are built.
    Entries outside a window are zero and contribute nothing.  The pass
    keeps one record per equation, in one map from its key to the equation
    and its tags: ``equations`` and ``provenance`` are read from it at the
    end, each in the order the pass first met them, so ``relation_tags``
    keeps the caller's order and a repeated tag counts once.
    """
    rep = generic_rep(block_size, spec, rho_form)
    if relation_tags is None:
        chosen = placements(spec)
    else:
        by_tag = {p.tag: p for p in placements(spec)}
        missing = [t for t in relation_tags if t not in by_tag]
        if missing:
            raise ValueError(f"tags not in {spec.describe()}: {missing}")
        chosen = [by_tag[t] for t in relation_tags]
    classes: dict[tuple, list] = {}  # window key -> its (key, packed equation) pairs
    # equation key -> (packed equation, its tags as the keys of a dict),
    # both in the order the walk first meets them
    found: dict = {}
    for p in chosen:
        window = _window(p, block_size)
        if window is None:
            continue
        cls, start, size = window
        eqs = classes.get(cls)
        if eqs is None:
            (rel,) = relations(spec, [p])
            diffs, den = packed_residue(rep, rel.lhs, rel.rhs, start, size)
            eqs = classes[cls] = [equation_key(x, den) for x in diffs.values()]
        for key, x in eqs:
            found.setdefault(key, (x, {}))[1][p.tag] = None
    equations, unknowns = monic_equations(rep.ring, [x for x, _tags in found.values()])
    return ConstraintSystem(
        block_size=block_size,
        spec=spec,
        ring=rep.ring,
        unknowns=unknowns,
        equations=equations,
        provenance=[list(tags) for _eq, tags in found.values()],
        blocks=[rep.rho_block] + [rep.sigma_blocks[t] for t in sorted(rep.sigma_blocks)],
    )


# ---------------------------------------------------------------------------
# finite-field enumeration


@dataclass
class ModPScan:
    """The points of F_p^u a scan found, as cells minus holes.

    A cell ``(prefix, f)`` stands for p^f points: the scanned unknowns
    start with the values ``prefix`` and the last ``f`` run over all of
    F_p, in lexicographic order.  A hole has the same form and lies inside
    one cell; its points are the cell's points where an invertibility test
    fails, and they are not solutions.  Cells and holes each come in scan
    order.  ``tally`` is the one reader that nets the holes out; ``count``
    and ``solutions`` are read from it.
    """

    p: int
    unknowns: tuple[str, ...]
    fixed: dict[str, int]
    cells: list[tuple[tuple[int, ...], int]]
    holes: list[tuple[tuple[int, ...], int]]

    def tally(self, names: tuple[str, ...]) -> Counter:
        """The points at each value of ``names`` (scanned or fixed), keyed by
        their values in ascending order, the scan's order when ``names``
        follow it.  Cells add their points and holes subtract theirs; a part
        is expanded only in the named unknowns it leaves free, and a value
        whose holes take all its points is dropped."""
        p, where = self.p, {v: i for i, v in enumerate(self.unknowns)}
        if stray := [v for v in names if v not in where and v not in self.fixed]:
            valid = ", ".join([*self.unknowns, *self.fixed])
            raise ValueError(f"{stray[0]!r} is neither scanned nor fixed; valid names: {valid}")
        # parts that agree up to the last named scanned unknown agree on names
        cut = 1 + max((where[v] for v in names if v in where), default=-1)
        weights: Counter = Counter()
        for sign, parts in ((1, self.cells), (-1, self.holes)):
            for (prefix, f), times in Counter((pre[:cut], f) for pre, f in parts).items():
                bound = dict(zip(self.unknowns, prefix)) | self.fixed
                free = [v for v in names if v not in bound]
                weight = sign * times * p ** (f - len(free))
                for values in product(range(p), repeat=len(free)):
                    point = bound | dict(zip(free, values))
                    weights[tuple(point[v] for v in names)] += weight
        return Counter({key: w for key, w in sorted(weights.items()) if w})

    @property
    def count(self) -> int:
        return sum(self.tally(()).values())

    @property
    def solutions(self) -> list[dict[str, int]]:
        """Every point in lexicographic order, built on each call from
        ``tally``: the scanned unknowns, then the fixed ones."""
        return [dict(zip(self.unknowns, key)) | self.fixed for key in self.tally(self.unknowns)]


def _coeff_mod_p(c: GaussianRational, p: int) -> int:
    if c.b:
        raise ValueError("finite-field scan needs rational (non-imaginary) coefficients")
    num, den = c.a, c.d
    if den % p == 0:
        raise ValueError(f"coefficient denominator {den} not invertible mod {p}")
    return num % p * pow(den, -1, p) % p


def _terms_mod_p(
    poly: MultiPoly, p: int, position: dict[str, int], fixed: dict[str, int]
) -> tuple[int, list]:
    """Reduce ``poly`` mod p to ``(stage, terms)`` for the staged scan.

    Each term is ``(coefficient mod p, ((position, degree), ...))`` over the
    scanned unknowns, positions ascending, with the ``fixed`` values folded
    into the coefficient; ``stage`` is the position of the last scanned
    unknown that occurs, or -1 when the reduced polynomial is a constant.
    """
    vars_ = poly.ring.vars
    reduced: dict[tuple[tuple[int, int], ...], int] = {}
    for exp, c in poly.terms.items():
        coeff = _coeff_mod_p(c, p)
        mono = []
        for k, d in enumerate(exp):
            if d:
                name = vars_[k]
                if name in fixed:
                    coeff = coeff * pow(fixed[name], d, p) % p
                else:
                    mono.append((position[name], d))
        key = tuple(mono)
        reduced[key] = (reduced.get(key, 0) + coeff) % p
    terms = [(c, mono) for mono, c in reduced.items() if c]
    stage = max((pos for _c, mono in terms for pos, _d in mono), default=-1)
    return stage, terms


def _value_mod_p(terms: list, point: list[int], p: int) -> int:
    total = 0
    for c, mono in terms:
        term = c
        for pos, d in mono:
            term *= point[pos] ** d
        total += term
    return total % p


def _split_at(terms: list, depth: int) -> dict:
    """Group ``terms`` by their monomial in the scanned unknowns at
    positions ``depth`` and later; each group, read as terms, is that
    monomial's coefficient, a polynomial in the first ``depth`` unknowns.
    Once those are bound, the residue is the zero polynomial exactly where
    all of its coefficients vanish."""
    split: dict = {}
    for c, mono in terms:
        cut = next((i for i, (pos, _d) in enumerate(mono) if pos >= depth), len(mono))
        split.setdefault(mono[cut:], []).append((c, mono[:cut]))
    return split


def _mul_mod_p(a: list, b: list, p: int) -> list:
    out: dict = {}
    for c1, m1 in a:
        for c2, m2 in b:
            degrees = dict(m1)
            for pos, d in m2:
                degrees[pos] = degrees.get(pos, 0) + d
            mono = tuple(sorted(degrees.items()))
            out[mono] = (out.get(mono, 0) + c1 * c2) % p
    return [(c, mono) for mono, c in out.items() if c]


def _plan(tests: list, depth: int, p: int, start: int = 0) -> list:
    """What the descent needs at each depth d from ``start`` to ``depth``
    (entry d; the entries before ``start`` are None), given ``tests`` as
    ``(stage, terms, must the value be zero?)``:

    - the residue coefficients (``_split_at``) of the equations pending at
      d, those of stage >= d;
    - the plan of the holes of a cell at d: that of one equation, the
      product of the invertibility tests pending at d (None if there are
      none);
    - the tests of stage d, as ``(terms, must be zero?)``;
    - the same tests as ``(a0, a1, must be zero?)``, each test a0 + a1*x in
      the unknown x of stage d, or None when one has x to a higher power.
    """
    plan: list = [None] * start
    for d in range(start, depth + 1):
        pending = [t for t in tests if t[0] >= d]
        coeffs = [
            c for _s, terms, zero in pending if zero for c in _split_at(terms, d).values()
        ]
        inverts = [(s, terms) for s, terms, zero in pending if not zero]
        holes = None
        if inverts:
            product = [(1, ())]
            for _s, terms in inverts:
                product = _mul_mod_p(product, terms, p)
            holes = _plan([(max(s for s, _t in inverts), product, True)], depth, p, d)
        here = [(terms, zero) for s, terms, zero in pending if s == d]
        splits = [(_split_at(terms, d), zero) for terms, zero in here]
        x = ((d, 1),)
        linear = (
            None
            if any(set(split) - {(), x} for split, _z in splits)
            else [(split.get((), []), split.get(x, []), z) for split, z in splits]
        )
        plan.append((coeffs, holes, here, linear))
    return plan


def _linear_values(forms: list, point: list[int], p: int) -> list[int]:
    """The values of a stage's unknown x that pass its tests, each test
    ``(a0, a1, must be zero?)`` being a0 + a1*x with a0, a1 read at the
    bound prefix: an equation with a1 != 0 admits only -a0/a1, an
    invertibility test with a1 != 0 excludes that value, and with a1 = 0 a
    test keeps every value or none."""
    root, excluded = None, set()
    for a0, a1, zero in forms:
        a0, a1 = _value_mod_p(a0, point, p), _value_mod_p(a1, point, p)
        if not a1:
            if (not a0) != zero:
                return []
        elif zero:
            x = -a0 * pow(a1, -1, p) % p
            if root not in (None, x):
                return []
            root = x
        else:
            excluded.add(-a0 * pow(a1, -1, p) % p)
    if root is None:
        return [x for x in range(p) if x not in excluded]
    return [] if root in excluded else [root]


# values a mod-p scan may bind before it is refused, holes' points counted
# too: 2-3 s of descent on a 2-core x86 host (Python 3.11), and a bound on
# the cells and holes the scan can hold, since each is a visited point
_SCAN_BUDGET = 500_000


def enumerate_solutions_mod_p(
    system: ConstraintSystem,
    p: int,
    invertibility: list[MultiPoly] = (),
    fixed: dict[str, int] | None = None,
) -> ModPScan:
    """Exhaustively solve the system over F_p, desk scale.

    ``invertibility`` lists polynomials required nonzero (e.g. block
    determinants); ``fixed`` pre-binds some of the system's unknowns (those
    it declares, or those of its equations or of ``invertibility``) so a
    bucket of a bigger system can be scanned on its own.

    The scan is staged and depth-first over plain ints: the remaining
    unknowns are bound one at a time in ring order, every polynomial is
    reduced mod p once and tested at the stage where its last unknown is
    bound, and a partial point is dropped as soon as one test there fails.
    When every test of a stage is linear in its unknown x, each is read as
    a0 + a1*x at the bound prefix and only the values they admit are bound:
    one, if an equation has a1 != 0.

    A partial point where every pending equation (one still to be tested)
    has the zero polynomial as its residue is not descended: every
    completion solves the equations, and it is recorded as one cell (see
    ``ModPScan``).  If invertibility tests are pending too, the same
    descent runs over the cell's unknowns with one equation, the product of
    their residues, and its cells are the cell's holes: the completions
    where one of them fails.  A residue that vanishes on F_p without being
    zero (x^p - x) is descended as usual.  Live memory is the current
    point plus the cells and holes, and both come out in lexicographic
    order of the scanned unknowns.

    "Desk scale" is a bound on work, not on the grid: each value the
    descent binds counts, holes' included, a scan that passes
    ``_SCAN_BUDGET`` of them is refused with a ValueError that gives the
    count, and a cell of p^f points costs what its prefix cost (uv(3,2) at
    p=5, 1 562 501 points, visits 132; with invertible blocks, 921 601
    points in 5 cells less their holes).
    """
    if p < 3 or p > 13 or any(p % q == 0 for q in range(2, p)):
        raise ValueError("p must be an odd prime at desk scale (3..13)")
    needed: set[str] = set(system.unknowns)
    for poly in list(system.equations) + list(invertibility):
        needed.update(poly.variables())
    fixed = {k: v % p for k, v in (fixed or {}).items()}
    stray = [k for k in fixed if k not in needed]
    if stray:
        valid = [v for v in system.ring.vars if v in needed]
        raise ValueError(
            f"fixed name {stray[0]!r} is not an unknown of the system; "
            f"valid names: {', '.join(valid)}"
        )
    scan_vars = tuple(v for v in system.ring.vars if v in needed and v not in fixed)
    position = {v: i for i, v in enumerate(scan_vars)}
    depth = len(scan_vars)
    # (stage, terms, must the value be zero?) of every polynomial; its stage
    # is the position of its last scanned unknown
    tests = []
    consistent = True
    for poly, want_zero in [(eq, True) for eq in system.equations] + [
        (poly, False) for poly in invertibility
    ]:
        stage, terms = _terms_mod_p(poly, p, position, fixed)
        if stage >= 0:
            tests.append((stage, terms, want_zero))
        elif (not terms) != want_zero:
            consistent = False
    cells: list[tuple[tuple[int, ...], int]] = []
    holes: list[tuple[tuple[int, ...], int]] = []
    point = [0] * depth
    visited = 0

    def descend(plan: list, stage: int, out: list) -> None:
        nonlocal visited
        coeffs, hole_plan, here, linear = plan[stage]
        if not any(_value_mod_p(c, point, p) for c in coeffs):
            out.append((tuple(point[:stage]), depth - stage))
            if hole_plan is not None:
                descend(hole_plan, stage, holes)
            return
        if linear is None:
            values = range(p)
        else:
            values, here = _linear_values(linear, point, p), ()
        visited += len(values)
        if visited > _SCAN_BUDGET:
            raise ValueError(
                f"scan of {len(scan_vars)} unknowns mod {p} exceeds desk scale: "
                f"{visited} partial points visited, over the budget of {_SCAN_BUDGET}"
            )
        for x in values:
            point[stage] = x
            if not here or all((not _value_mod_p(t, point, p)) == z for t, z in here):
                descend(plan, stage + 1, out)

    if consistent:
        descend(_plan(tests, depth, p), 0, cells)
    return ModPScan(p=p, unknowns=scan_vars, fixed=fixed, cells=cells, holes=holes)


_VIRTUAL = ("r1", "r2", "r3", "r4")


def classify_virtual_point(sol: dict[str, int], p: int) -> str:
    """Bucket a 2x2 virtual-block solution: identity, antidiagonal, or other."""
    r1, r2, r3, r4 = (sol[k] % p for k in _VIRTUAL)
    if (r1, r2, r3, r4) == (1, 0, 0, 1):
        return "identity"
    if r1 == 0 and r4 == 0 and r2 * r3 % p == 1:
        return "antidiagonal"
    return "other"


def classify_virtual_cells(scan: ModPScan) -> Counter | None:
    """``classify_virtual_point`` counted over every point of ``scan``:
    each (r1, r2, r3, r4) of ``scan.tally`` is classified once and weighted
    by its points.  None when the scan does not bind all of r1..r4."""
    if not all(v in scan.unknowns or v in scan.fixed for v in _VIRTUAL):
        return None
    buckets: Counter = Counter()
    for key, w in scan.tally(_VIRTUAL).items():
        buckets[classify_virtual_point(dict(zip(_VIRTUAL, key)), scan.p)] += w
    return buckets


# ---------------------------------------------------------------------------
# span engines over Q(i)


def _left_mul(cols: dict, v: dict, width: int) -> dict:
    """A generator, given as ``{r: [(row, re, im), ...]}`` for each of its
    nonzero columns r, times the sparse m x ``width`` Gaussian-integer
    matrix ``v`` (coordinates row-major).  Only the coordinates of ``v`` in
    the rows r are read, and only the rows of those columns are written."""
    out: dict = {}
    for k, (x, y) in v.items():
        r, c = divmod(k, width)
        for i, a, b in cols.get(r, ()):
            s, t = out.get(i * width + c, (0, 0))
            out[i * width + c] = (s + a * x - b * y, t + a * y + b * x)
    return out


def _gmul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _terms(mats: list[Matrix]) -> list[dict]:
    """Each generator g as the Gaussian-integer terms ``{(i, r): (re, im)}``
    of L*(g - I), read from ``Matrix.off_terms``: for a k-local g, the k^2
    terms of its block, which ``block_embed`` read from the block once and
    shifted into g, so no ``RatFunc`` is read here."""
    return [g.off_terms()[0] for g in mats]


def _columns(terms: list[dict], transpose: bool = False) -> list[dict]:
    """Each nonzero L*(g - I) of ``terms``, or its transpose, as
    ``{r: [(row, re, im), ...]}`` over its nonzero columns r, the form
    ``_left_mul`` reads; a generator equal to I drops out."""
    gens = []
    for t in terms:
        cols: dict = {}
        for (i, r), z in t.items():
            if transpose:
                i, r = r, i
            cols.setdefault(r, []).append((i, *z))
        if cols:
            gens.append(cols)
    return gens


def _rank_one(terms: dict) -> tuple[dict, dict] | None:
    """``(u, v)`` with ``terms`` = u v^T / p as sparse Gaussian-integer
    vectors, when the terms have rank one, else None.  With p the first
    term, at (i0, r0), u is column r0 and v row i0; the rank is one exactly
    when every term t_ir has t_ir * p = u_i * v_r and the terms fill the
    product of the two supports."""
    if not terms:
        return None
    (i0, r0), p = next(iter(terms.items()))
    u = {i: z for (i, r), z in terms.items() if r == r0}
    v = {r: z for (i, r), z in terms.items() if i == i0}
    if len(terms) != len(u) * len(v):
        return None
    for (i, r), z in terms.items():
        if i not in u or r not in v or _gmul(z, p) != _gmul(u[i], v[r]):
            return None
    return u, v


def _closure(
    gens: list[dict], m: int, seeds: list[dict], width: int, ideal: list[dict] = ()
) -> Echelon:
    """Echelon basis of the smallest space of m x ``width`` matrices
    (flattened row-major) that contains ``ideal`` and ``seeds`` and is
    closed under left multiplication by every generator of ``gens``, each
    given by :func:`_columns` as L*g - L*I.

    Every vector is sparse (see :class:`~uvbraid.matrices.Echelon`), and
    the seeds come as such, Gaussian-integer vectors.  A space that holds X
    holds g X exactly when it holds (L*g - L*I) X = L*g X - L*X, so the
    closure is that of the generators themselves; and as a generator's
    columns are those of g - I, a product reads and writes only the rows of
    X that a k-local g moves, and it is not formed when X is zero there.
    The rows of ``ideal`` must span a space the generators already keep
    (a left ideal of their algebra): they are inserted first and never
    multiplied.  Each newly reduced row of the seeds' closure is multiplied
    by every generator that reads one of its rows, in the order the rows
    were found (wave by wave); the reduced rows span, with the ideal, what
    the raw products span, and an empty product is not inserted.  It stops
    when no row is left, or at once when the basis fills all m * ``width``
    coordinates.
    """
    basis = Echelon(m * width)
    for row in ideal:
        basis.insert(row)
    found = [new for new in map(basis.insert, seeds) if new is not None]
    reads: dict = {}  # row r of X -> the generators whose products read it
    for n, cols in enumerate(gens):
        for r in cols:
            reads.setdefault(r, []).append(n)
    for v in found:  # grows while it is read
        for n in sorted({n for k in v for n in reads.get(k // width, ())}):
            if len(basis) == m * width:
                return basis
            product = _left_mul(gens[n], v, width)
            if product:
                new = basis.insert(product)
                if new is not None:
                    found.append(new)
    return basis


def _degree(mats: list[Matrix]) -> int:
    """The size m of ``mats``, one or more square matrices of one size."""
    if not mats:
        raise ValueError("need at least one matrix")
    m = mats[0].nrows
    if any(g.shape != (m, m) for g in mats):
        raise ValueError("matrices must be square and of equal size")
    return m


def burnside_dim(mats: list[Matrix]) -> int:
    """Dimension of the unital algebra A spanned by all products of
    ``mats``, exact over Q(i).

    The matrices act irreducibly on C^m iff the result is m^2 (Burnside),
    and since every invertible generator's inverse is a polynomial in the
    generator (Cayley-Hamilton), positive products suffice.  A generator
    equal to the identity changes nothing.

    A is the closure of the identity, seeded as the sparse vector
    ``{i*m + i: 1}``, under left multiplication by the generators, each
    read once as the Gaussian-integer terms of L*(g - I) (:func:`_terms`).
    Most of that m^2-wide closure is skipped with a singular element, as
    in the MeatAxe (Holt & Rees, "Testing modules for irreducibility",
    J. Austral. Math. Soc. A 57, 1994): take the first generator whose
    L*(g - I) has rank one, u v^T / p (:func:`_rank_one`); a virtual
    involution with a one-dimensional -1 eigenspace and Burau's sigma are
    such.  e = g - I lies in A, so A holds the two-sided ideal
    AeA = span{(a u)(v^T b)} = (Au) (x) (v^T A).  Au is the spin of u under
    the generators, v^T A that of v under their transposes (read from the
    same terms), both m wide.  If both are all of C^m, A contains M_m and
    its dimension is m^2 with no m^2-wide product formed.  Otherwise the
    d1*d2 outer products x y^T of the two spins' bases span AeA; as an
    ideal it is closed under left multiplication, so its rows seed the
    closure of I and are never multiplied.  With no rank-one generator
    there is no ideal and the closure is the whole computation.  All of it
    runs over Z[i], with no float and no modular rank, so the dimension is
    a proof.
    """
    m = _degree(mats)
    terms = _terms(mats)
    gens, ideal = _columns(terms), []
    singular = next(filter(None, map(_rank_one, terms)), None)
    if singular is not None:
        u, v = singular
        xs = _closure(gens, m, [u], 1).rows.values()
        ys = _closure(_columns(terms, transpose=True), m, [v], 1).rows.values()
        if len(xs) == len(ys) == m:
            return m * m
        ideal = [{i * m + j: _gmul(a, b) for i, a in x.items() for j, b in y.items()}
                 for x in xs for y in ys]
    return len(_closure(gens, m, [{i * m + i: (1, 0) for i in range(m)}], m, ideal))


def spin(mats: list[Matrix], seeds: list[Matrix]) -> list[Matrix]:
    """Basis of the smallest subspace containing ``seeds`` and invariant
    under every matrix (the 'spin' of the seeds).  Seeds and result are
    column vectors.  The result is the subspace's reduced echelon basis,
    in pivot order: each column is 1 at its first nonzero entry and 0 at
    every other column's, so it depends on the subspace alone, not on the
    order or repetition of seeds and matrices."""
    m = _degree(mats)
    vecs = []
    for s in seeds:
        if s.shape != (m, 1):
            raise ValueError(f"seed does not have shape {(m, 1)}")
        vecs.append({i: z for (i, _), z in s.integer_terms()[0].items()})
    rows = sorted(_closure(_columns(_terms(mats)), m, vecs, 1).rows.items())
    ring = mats[0].ring
    return [Matrix.column(ring, [GaussianRational.from_ints(*row[k], row[p][0])
                                 if k in row else 0 for k in range(m)])
            for p, row in rows]


def invariant_check(mats: list[Matrix], vec: Matrix, side: str) -> bool:
    """Does ``vec`` span an invariant line?  Column side checks M v || v for
    every M; row side checks v M || v.  Works symbolically as well.  Every M
    must be m x m for a witness of length m, over the witness's ring; all
    are checked before any verdict.

    M v || v exactly when u = (M - I) v is (v (M - I) on the row side), and
    u is read from M's ``off_identity`` view, keys swapped on the row side:
    a k-local M costs its k^2 block entries, and no transpose is built.
    When u is not zero, u || v needs u and v to have one support, and over
    a field u_q v_j = v_q u_j for j in it, q any coordinate of it (see
    :func:`_parallel`).  There are two scalar routes.  When the witness and
    M are constant, both are read as Gaussian integers, L_v*v and M's
    cached ``off_terms`` L*(M - I), and the test cross-multiplies in Z[i]:
    the scalings do not change which vectors are parallel.  Otherwise it
    runs on the ``RatFunc`` entries themselves."""
    if side not in ("column", "row"):
        raise ValueError("side must be 'column' or 'row'")
    if side == "column" and vec.ncols != 1:
        raise ValueError(f"column witness must be m x 1, got {vec.shape}")
    if side == "row" and vec.nrows != 1:
        raise ValueError(f"row witness must be 1 x m, got {vec.shape}")
    v = {j: x for j, x in enumerate(x for row in vec.rows for x in row) if not x.is_zero()}
    if not v:
        raise ValueError("witness vector is zero")
    m = vec.nrows if side == "column" else vec.ncols
    for g in mats:
        vec._check_ring(g)
        if g.shape != (m, m):
            raise ValueError(
                f"a {side} witness of shape {vec.shape} needs {m} x {m} matrices, "
                f"got one of shape {g.shape}"
            )
    row = side == "row"
    vz = gaussian_integer_terms(v)[0] if all(x.is_constant() for x in v.values()) else None
    for g in mats:
        if vz is not None and g.is_constant():
            ok = _parallel(g.off_terms()[0], vz, row, _gmul, _gadd, any)
        else:
            ok = _parallel(g.off_identity(), v, row, operator.mul, operator.add, _rf_nonzero)
        if not ok:
            return False
    return True


def _gadd(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return z[0] + w[0], z[1] + w[1]


def _rf_nonzero(x: RatFunc) -> bool:
    return not x.is_zero()


def _parallel(off: dict, v: dict, row: bool, mul, add, nonzero) -> bool:
    """Is u = (M - I) v, or v (M - I) when ``row``, parallel to the nonzero
    entries ``v``, with M - I given by its nonzero entries ``off``?  The
    scalars are ``RatFunc``s or Gaussian integers, read through ``mul``,
    ``add`` and ``nonzero``."""
    u: dict = {}
    for (i, j), a in off.items():
        if row:
            i, j = j, i
        if j in v:
            u[i] = add(u[i], mul(a, v[j])) if i in u else mul(a, v[j])
    u = {i: x for i, x in u.items() if nonzero(x)}
    if not u:
        return True
    if u.keys() != v.keys():
        return False
    q = next(iter(u))
    return all(mul(u[q], v[j]) == mul(v[q], x) for j, x in u.items())


# ---------------------------------------------------------------------------
# reducibility criteria (closed forms) with verified witnesses


@dataclass
class ReducibilityResult:
    family: str
    verdict: str  # "reducible" | "irreducible"
    witness_side: str | None
    witness: Matrix | None
    details: list[str] = field(default_factory=list)


# Each entry: (branches, notes).  A branch is (label, test, witness side,
# witness entry j of degree m).  ``test`` reads the point through the
# accessor of ``reps._FAMILIES``, ``reps._typed`` (v("r2") is r2, v("s1")
# the type's s1_t), and must hold for every crossing type; a branch with no
# test holds when its witness passes ``invariant_check``, so a family of
# untested branches is always reducible.  The first branch that holds gives
# the witness.  The details are the all-types line (tested families, c > 1),
# each labelled branch as "label: held" joined by "; ", the notes, the
# re-verified line.
_CRITERIA = {
    "upsilon-prime": (
        [("row sums at 1", lambda v: v("s1") + v("s2") == 1 and v("s3") + v("s4") == 1,
          "column", lambda v, j, m: 1),
         ("column sums at 1", lambda v: v("s1") + v("s3") == 1 and v("s2") + v("s4") == 1,
          "row", lambda v, j, m: 1)], []),
    "omega1p": ([("s2 = r2 and s3 = 1/r2 for all types",
                  lambda v: v("s2") == v("r2") and v("s3") * v("r2") == 1,
                  "column", lambda v, j, m: 1)], []),
    "omega2p": ([("s2/r2 + s4 = 1 for all types",
                  lambda v: v("s2") / v("r2") + v("s4") == 1, "row", lambda v, j, m: 1)], []),
    "omega3p": ([("s1 + s2/r2 = 1 for all types", lambda v: v("s1") + v("s2") / v("r2") == 1,
                  "column", lambda v, j, m: 1)], []),
    "epsilon1": ([(None, None, "column", lambda v, j, m: int(j == 0))],
                 ["first basis column is always invariant"]),
    "epsilon2": ([(None, None, "column", lambda v, j, m: int(j == m - 1))],
                 ["last basis column is always invariant"]),
    "epsilon3": ([(None, None, "column", lambda v, j, m: v("r6") ** -j)],
                 ["geometric column (1, r6^-1, ..., r6^-n) is invariant"]),
    "epsilon4": (
        [("row (1, r2^-1, ..., r2^-n) invariant", None, "row", lambda v, j, m: v("r2") ** -j),
         ("row (1, r2, ..., r2^n) invariant", None, "row", lambda v, j, m: v("r2") ** j)],
        ["a row in powers of r6 is not expressible: this family has no r6 parameter"]),
}


def reducibility_criterion(
    family: str, spec: GroupSpec, params: dict
) -> ReducibilityResult:
    """Closed-form reducibility verdict of ``family`` over ``spec`` at the
    point ``params``: builds the family there and runs ``reducibility_at``."""
    return reducibility_at(build_local_rep(family, spec, params))


def reducibility_at(rep: LocalRep) -> ReducibilityResult:
    """Closed-form reducibility verdict of a family specialized at a
    parameter point, with witness.

    Every "reducible" verdict comes with an invariant line witness that has
    been re-verified against all generator images before being returned, so
    a wrong closed form cannot silently return a bogus certificate; a closed
    form that disagrees with its table is an ``AssertionError``.
    """
    name, spec, point = rep.name, rep.spec, rep.assignment
    if name not in _CRITERIA:
        raise ValueError(
            f"no closed-form criterion for {name!r}; use burnside_dim instead"
        )
    if point is None:
        raise ValueError(
            f"the {name} criterion needs a parameter point, not symbolic parameters"
        )
    branches, notes = _CRITERIA[name]
    gens: list[Matrix] = []
    held: list[str] = []
    side = witness = None
    for label, test, wside, entry in branches:
        ok = test is None or all(
            test(partial(_typed, point, t)) for t in range(1, spec.c + 1)
        )
        if ok and (test is None or witness is None):  # built and checked once
            xs = [entry(partial(_typed, point, 1), j, rep.degree) for j in range(rep.degree)]
            w = (Matrix.column if wside == "column" else Matrix.row_vector)(rep.ring, xs)
            gens = gens or [mat for _g, mat in rep.generator_images()]
            ok = invariant_check(gens, w, wside)
            if not ok and test is not None:
                raise AssertionError(
                    f"criterion emitted a non-invariant witness for {name}; "
                    "closed form and table disagree"
                )
            if ok and witness is None:
                side, witness = wside, w
        if label:
            held.append(f"{label}: {ok}")
    if witness is None and all(test is None for _l, test, _s, _e in branches):
        raise AssertionError(f"no {name} witness verified; criterion table is wrong")
    details = []
    if spec.c > 1 and any(test for _l, test, _s, _e in branches):
        details.append(f"branch conditions quantified over all {spec.c} crossing types")
    if held:
        details.append("; ".join(held))
    details += notes
    if witness is not None:
        details.append("witness re-verified invariant under every generator image")
    return ReducibilityResult(
        family=name,
        verdict="reducible" if witness is not None else "irreducible",
        witness_side=side,
        witness=witness,
        details=details,
    )


# ---------------------------------------------------------------------------
# quotient factoring checks


@dataclass
class FactorOutcome:
    map_name: str
    tag: str
    verdict: str  # "kills" | "distinguishes"
    lhs_image: str
    rhs_image: str

    def __str__(self):
        rel = "=" if self.verdict == "kills" else "!="
        return (
            f"{self.tag} under {self.map_name}: {self.verdict} "
            f"({self.lhs_image} {rel} {self.rhs_image})"
        )


def factor_check(
    relation: Relation | Word,
    spec: GroupSpec,
    which: str,
    t0: int = 1,
) -> FactorOutcome:
    """Does a quotient map kill a relation (map both sides equally) or
    distinguish its sides?

    ``which`` is one of ``piP`` (all generators to adjacent transpositions),
    ``piK`` (sigma to 1, rho to transpositions), or ``phi`` (the Z x S_n
    splitting map for marker type ``t0``).  A bare relator word is treated
    as a relation against the empty word.
    """
    if isinstance(relation, Relation):
        lhs, rhs, tag = relation.lhs, relation.rhs, relation.tag
    else:
        lhs, rhs, tag = relation, Word(), f"relator {relation}"
    if which == "phi":
        il, ir = phi(lhs, t0, spec), phi(rhs, t0, spec)
        kills = il == ir
        map_name = f"phi(t0={t0})"
    elif which in ("piP", "piK"):
        il, ir = perm_image(lhs, spec, which), perm_image(rhs, spec, which)
        kills = il == ir
        map_name = which
    else:
        raise ValueError(f"unknown map {which!r}; want piP, piK or phi")
    return FactorOutcome(
        map_name=map_name,
        tag=tag,
        verdict="kills" if kills else "distinguishes",
        lhs_image=str(il),
        rhs_image=str(ir),
    )

