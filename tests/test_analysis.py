"""Verification engines: relation reports, constraint systems, finite-field
enumeration, span/irreducibility machinery, quotient factoring."""

import dataclasses
import functools
import itertools
import random
import re
import tracemalloc
import unittest.mock
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import uvbraid.analysis
import uvbraid.matrices
import uvbraid.reps
from uvbraid.analysis import (
    ConstraintSystem,
    _residue,
    burnside_dim,
    classify_virtual_cells,
    classify_virtual_point,
    enumerate_solutions_mod_p,
    factor_check,
    forbidden_moves,
    generate_constraints,
    generic_rep,
    invariant_check,
    reducibility_at,
    reducibility_criterion,
    sample_point,
    spin,
    verify_relations,
)
from uvbraid.groups import (
    _FIXED_C,
    FLAVORS,
    Relation,
    Word,
    make_spec,
    parse_word,
    placements,
    relations,
    rho,
    sigma,
    word,
)
from uvbraid.matrices import Matrix, gaussian_integer_terms
from uvbraid.reps import (
    FAMILY_NAMES,
    build_local_rep,
    canonical_family,
    eval_word,
    packed_word,
    specialize,
)
from uvbraid.scalars import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    PolyRing,
    RatFunc,
    parse_gaussian,
)

from test_matrices import FractionEchelon, qi_entries


class TestVerifyRelations:
    def test_symbolic_pass(self):
        rep = build_local_rep("upsilon", make_spec("uv", 4, 2))
        report = verify_relations(rep)
        assert report.all_passed
        assert len(report.outcomes) == 18
        assert all(o.residue is None for o in report.outcomes)

    def test_failure_reports_offending_entry(self):
        # upsilon does not satisfy the extra involution sigma^2 = 1
        vt = make_spec("vt", 3, 1)
        rep = build_local_rep("upsilon", vt)
        report = verify_relations(rep)
        failed = {o.tag for o in report.failed}
        assert failed == {"INV[i=1,t=1]", "INV[i=2,t=1]"}
        bad = report.failed[0]
        assert bad.residue is not None
        assert "entry" in bad.detail

    def test_blockless_generators_are_skipped_not_checked(self):
        rep = build_local_rep("burau", make_spec("vb", 4))
        report = verify_relations(rep)
        assert report.all_passed
        statuses = {o.tag: o.status for o in report.outcomes}
        assert statuses["PR1[i=1]"] == "skipped"
        assert statuses["BR[i=1,t=1]"] == "pass"

    def test_quotient_spec_override(self):
        # verify a virtual-group family against the welded relation set
        uv = make_spec("uv", 3, 1)
        uw = make_spec("uw", 3, 1)
        rep = build_local_rep("upsilon", uv)
        report = verify_relations(rep, spec=uw)
        assert {o.tag for o in report.failed} == {"WR1[i=1,t=1]"}

    def test_strand_count_mismatch_rejected(self):
        rep = build_local_rep("upsilon", make_spec("uv", 3, 1))
        with pytest.raises(ValueError):
            verify_relations(rep, spec=make_spec("uv", 4, 1))


def _full_degree_residue(rep, rel):
    """lhs minus rhs, each a product of embedded generator matrices."""

    def image(w):
        out = Matrix.identity(rep.ring, rep.degree)
        for g, e in w.letters:
            out = out * rep.matrix(g, e)
        return out

    return image(rel.lhs) - image(rel.rhs)


def _reference_window(rel, k):
    """Where ``rel`` acts under a k-local homogeneous representation, read
    from its words: the Relation-based window the schema key replaced, kept
    as its reference.

    ``None`` for a commutation xy = yx whose two letters sit k or more
    strands apart.  Otherwise ``(key, start, size)``: both sides act on the
    coordinates start .. start+size-1 (lowest strand index to highest plus
    k-1), and ``key`` is the relation shifted to start at strand 1.
    """
    lhs, rhs = rel.lhs.letters, rel.rhs.letters
    if (
        len(lhs) == 2
        and rhs == lhs[::-1]
        and abs(lhs[0][0].index - lhs[1][0].index) >= k
    ):
        return None
    indices = [g.index for g, _e in lhs + rhs]
    lo, hi = min(indices), max(indices)
    key = tuple(
        tuple((g.kind, g.index - lo, g.type, e) for g, e in side)
        for side in (lhs, rhs)
    )
    return key, lo, hi - lo + k


class TestWindowClassAgainstReference:
    """The schema key of ``analysis._window`` against the word-based
    reference: the same disjoint set, class partition, start and size on
    every valid spec at n = 2..8, c = 1..3."""

    @staticmethod
    def _classes(items, window):
        """Per item, ``None`` when disjoint, else (first tag of its class,
        start, size)."""
        first, out = {}, []
        for tag, found in ((tag, window(item)) for tag, item in items):
            if found is None:
                out.append((tag, None))
            else:
                key, start, size = found
                out.append((tag, first.setdefault(key, tag), start, size))
        return out

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_same_disjoint_set_partition_start_and_size(self, flavor, k):
        checked = 0
        for n in range(2, 9):
            for c in range(1, 4):
                try:
                    spec = make_spec(flavor, n, c)
                except ValueError:  # a fixed-c flavor at another c
                    continue
                got = self._classes(
                    ((p.tag, p) for p in placements(spec)),
                    lambda p: uvbraid.analysis._window(p, k),
                )
                want = self._classes(
                    ((r.tag, r) for r in relations(spec)),
                    lambda r: _reference_window(r, k),
                )
                assert got == want, spec
                checked += 1
        assert checked == (7 if flavor in _FIXED_C else 21)


def _full_degree_outcomes(rep, spec):
    """Reference ``(tag, status, detail, residue)`` per relation of ``spec``,
    with every relation expanded at full degree."""
    out = []
    for rel in relations(spec):
        letters = [g for w in (rel.lhs, rel.rhs) for g, _e in w.letters]
        gap = next((g for g in letters if not rep.has_block(g)), None)
        if gap is not None:
            detail = f"family {rep.name!r} has no block for {gap}"
            out.append((rel.tag, "skipped", detail, None))
            continue
        residue = _full_degree_residue(rep, rel)
        bad = [
            (i, j)
            for i in range(rep.degree)
            for j in range(rep.degree)
            if not residue[i, j].is_zero()
        ]
        if bad:
            out.append((rel.tag, "fail", f"entry {bad[0]}: {residue[bad[0]]}", residue))
        else:
            out.append((rel.tag, "pass", "", None))
    return out


def _full_degree_constraints(k, spec, rho_form):
    """Reference ``ConstraintSystem.to_dict()``: every relation's residue at
    full degree, deduplicated in order."""
    rep = generic_rep(k, spec, rho_form)
    equations, provenance, seen = [], [], {}
    for rel in relations(spec):
        residue = _full_degree_residue(rep, rel)
        for entry in (x for row in residue.rows for x in row if not x.is_zero()):
            eq = entry.num.monic()
            idx = seen.setdefault(eq.key(), len(equations))
            if idx == len(equations):
                equations.append(eq)
                provenance.append([rel.tag])
            elif rel.tag not in provenance[idx]:
                provenance[idx].append(rel.tag)
    appearing = set().union(*(eq.variables() for eq in equations))
    return {
        "block_size": k,
        "unknowns": [v for v in rep.ring.vars if v in appearing],
        "equations": [str(eq) for eq in equations],
        "provenance": provenance,
    }


_FAMILY_GROUPS = [
    ("upsilon", "uv", 2),
    ("upsilon-prime", "uv", 2),
    *((f"epsilon{j}", "uv", 2) for j in (1, 2, 3, 4)),
    *((f"omega{j}{p}", "uw", 1) for j in (1, 2, 3) for p in ("", "p")),
    ("burau", "vb", None),
    ("f-rep", "vb", None),
]
# (family, group of the rep, group whose relations are checked)
_FAILING_PAIRINGS = [
    ("upsilon", ("vt", 3, None), ("vt", 3, None)),
    ("upsilon", ("uw", 3, 1), ("uw", 3, 1)),
    ("epsilon1", ("uv", 4, 2), ("uw", 4, 2)),
    ("epsilon3", ("uv", 4, 2), ("uw", 4, 2)),
    ("burau", ("vb", 4, None), ("vt", 4, None)),
    ("f-rep", ("vb", 4, None), ("vt", 4, None)),
]
# pairings whose relations pass or are skipped (no virtual block)
_SKIPPING_PAIRINGS = [
    ("burau", ("wb", 4, None), ("wb", 4, None)),
    ("f-rep", ("vsg", 4, None), ("vsg", 4, None)),
]
_AGREEMENT_CASES = [
    (fam, (flavor, n, c), (flavor, n, c))
    for fam, flavor, c in _FAMILY_GROUPS
    for n in range(2, 7)
] + _FAILING_PAIRINGS + _SKIPPING_PAIRINGS


def _case_id(value):
    if isinstance(value, tuple):
        return "-".join(str(x) for x in value if x is not None)
    return value


def _rep_over(ring, fam, group, seed):
    """The family on ``group``: symbolic, or specialized at a point drawn
    with ``seed`` so that every block is over Q(i)."""
    rep = build_local_rep(fam, make_spec(*group))
    if ring == "specialized":
        rep = specialize(rep, sample_point(rep, random.Random(seed)))
    return rep


class TestLocalityAgainstFullDegree:
    """Window and class checks against full-degree products of every
    relation (the reference lives here, not behind an option)."""

    @pytest.mark.parametrize("mode", ["symbolic", "specialized"])
    @pytest.mark.parametrize("fam,group,checked", _AGREEMENT_CASES, ids=_case_id)
    def test_verify_agrees_with_full_degree_products(self, fam, group, checked, mode):
        spec = make_spec(*checked)
        rep = _rep_over(mode, fam, group, seed=spec.n)
        report = verify_relations(rep, spec=spec)
        reference = _full_degree_outcomes(rep, spec)
        assert report.mode == mode
        assert [(o.tag, o.status, o.detail) for o in report.outcomes] == [
            ref[:3] for ref in reference
        ]
        for o, (_t, status, _d, residue) in zip(report.outcomes, reference):
            if status == "fail":
                assert o.residue == residue
            else:
                assert o.residue is None

    @pytest.mark.parametrize("mode", ["symbolic", "specialized"])
    def test_pairings_fail_or_skip_as_listed(self, mode):
        for pairings, failing in (
            (_FAILING_PAIRINGS, True),
            (_SKIPPING_PAIRINGS, False),
        ):
            for fam, group, checked in pairings:
                rep = _rep_over(mode, fam, group, seed=0)
                report = verify_relations(rep, spec=make_spec(*checked))
                assert bool(report.failed) == failing, fam
                assert failing or report.skipped

    def test_a_class_passes_or_fails_with_its_point(self):
        # INV holds at an involutive crossing block and fails off that
        # locus, for every member of the window class at once
        on_locus = {"r2": 2, "s1_1": 0, "s2_1": 1, "s3_1": 1, "s4_1": 0}
        off_locus = {"r2": 3, "s1_1": 1, "s2_1": 2, "s3_1": -1, "s4_1": 5}
        rep = build_local_rep("upsilon", make_spec("vt", 4))
        on = verify_relations(specialize(rep, on_locus))
        off = verify_relations(specialize(rep, off_locus))
        assert on.all_passed and on.mode == "specialized"
        assert [o.tag for o in off.failed] == [f"INV[i={i},t=1]" for i in (1, 2, 3)]

    @pytest.mark.parametrize(
        "k,flavor,n,c,rho_form",
        [(2, "uv", n, c, "generic") for n in (3, 4, 5) for c in (1, 2)]
        + [
            (2, "uv", 3, 3, "generic"),
            (2, "uw", 3, 3, "antidiagonal"),
            (2, "uw", 4, 1, "antidiagonal"),
            (3, "uv", 4, 2, "generic"),
            (3, "uv", 4, 3, "generic"),
            (3, "uw", 4, 1, "generic"),
            (3, "uw", 4, 2, "generic"),
        ],
    )
    def test_constraints_agree_with_full_degree_products(
        self, k, flavor, n, c, rho_form
    ):
        spec = make_spec(flavor, n, c)
        system = generate_constraints(k, spec, rho_form=rho_form)
        assert system.to_dict() == _full_degree_constraints(k, spec, rho_form)

    def test_classes_with_many_members_agree_with_both_references(self):
        # at k = 3 on 7 strands a far row is windowed at gap 2 and disjoint
        # at gaps 3 and more, and every WR1 class fails: the one pass meets
        # each class's members one at a time, the first among many
        rep = build_local_rep("epsilon1", make_spec("uv", 7, 2))
        spec = make_spec("uw", 7, 2)
        report = verify_relations(rep, spec=spec)
        firsts, hows = {}, []
        for rel in relations(spec):
            window = _reference_window(rel, rep.block_size)
            if window is None:
                hows.append("disjoint supports")
            else:
                first = firsts.setdefault(window[0], rel.tag)
                hows.append("window" if first == rel.tag else f"class of {first}")
        assert [o.how for o in report.outcomes] == hows
        assert [(o.tag, o.status, o.detail, o.residue) for o in report.outcomes] == (
            _full_degree_outcomes(rep, spec)
        )
        how_of = {o.tag: o.how for o in report.outcomes}
        assert how_of["CR[i=2,j=4,t=1,l=2]"] == "class of CR[i=1,j=3,t=1,l=2]"
        assert how_of["CR[i=1,j=4,t=1,l=2]"] == "disjoint supports"
        assert [(o.tag, o.how) for o in report.failed] == [
            (f"WR1[i={i},t={t}]", "window" if i == 1 else f"class of WR1[i=1,t={t}]")
            for i in range(1, 6)
            for t in (1, 2)
        ]

    def test_window_checks_do_not_grow_with_n(self, monkeypatch):
        windows, built = [], []

        def counting(rep, w, start=1, size=None):
            windows.append((start, size))
            return packed_word(rep, w, start, size)

        def building(spec, chosen=None):
            rels = relations(spec, chosen)
            built.extend(r.tag for r in rels)
            return rels

        monkeypatch.setattr(uvbraid.reps, "packed_word", counting)
        monkeypatch.setattr(uvbraid.analysis, "relations", building)
        words_built = []
        for n in (6, 12):
            windows.clear()
            built.clear()
            rep = build_local_rep("upsilon", make_spec("uv", n, 3))
            report = verify_relations(rep)
            assert report.all_passed
            words_built.append(list(built))
            # both sides of PR1, PR3 and MR2 for each of the three types, on
            # windows of span + 1 strands, whatever n is
            assert len(windows) == 2 * 5
            assert all(size <= 3 for _start, size in windows)
            for o in report.outcomes:
                if o.tag.startswith(("PR2", "CR", "MR1")):
                    assert o.how == "disjoint supports", o.tag
                else:
                    first = re.sub(r"i=\d+", "i=1", o.tag)
                    want = "window" if o.tag == first else f"class of {first}"
                    assert o.how == want, o.tag
        # words are built for each class's first member only, not per
        # relation: PR1, PR3 and MR2 for t = 1..3, whatever n is
        firsts = ["PR1[i=1]", "PR3[i=1]"] + [f"MR2[i=1,t={t}]" for t in (1, 2, 3)]
        assert words_built == [firsts, firsts]
        # a failing pairing: every INV fails, and each failing member's
        # residue is placed from its class's window, not recomputed
        counts = []
        for n in (6, 12):
            windows.clear()
            rep = build_local_rep("upsilon", make_spec("uv", n, 1))
            report = verify_relations(rep, spec=make_spec("vt", n))
            assert [o.tag for o in report.failed] == [
                f"INV[i={i},t=1]" for i in range(1, n)
            ]
            assert all(size is not None and size <= 3 for _start, size in windows)
            counts.append(len(windows))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("family, n, c", [("upsilon", 6, 3), ("epsilon2", 6, 2)])
    def test_passing_relations_do_no_ratfunc_arithmetic(self, monkeypatch, family, n, c):
        # residues are compared as numerators, so a passing relation builds
        # no RatFunc, let alone adds or multiplies one
        rep = build_local_rep(family, make_spec("uv", n, c))
        calls = Counter()

        def counted(name):
            original = getattr(RatFunc, name)

            def wrapper(x, y):
                calls[name] += 1
                return original(x, y)
            return wrapper

        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(RatFunc, name, counted(name))
        assert verify_relations(rep).all_passed
        assert calls == Counter()

    def test_residues_over_different_denominators(self):
        # PR3 r1 r1 = 1 reads the left side over r2^2 and the right over 1;
        # a virtual block that is no involution leaves a nonzero residue
        spec = make_spec("uv", 3, 1)
        base = generic_rep(2, spec, "antidiagonal")
        r1, r2 = base.ring.rf("r1"), base.ring.rf("r2")
        odd = dataclasses.replace(
            base, rho_block=Matrix.from_rows(base.ring, [[r1, r2], [1 / r2, 0]])
        )
        (pr3,) = [r for r in relations(spec) if r.tag == "PR3[i=1]"]
        # upsilon's sigma^-1 is read over a determinant that is no monomial
        ups = build_local_rep("upsilon", spec)
        mixed = Relation("X", parse_word("s1,1^-1 r1", spec), parse_word("r1 s1,1", spec))
        for rep, rel in [(odd, pr3), (ups, mixed)]:
            for start, size in [(1, 2), (1, rep.degree)]:
                residue = _residue(rep, rel, start, size)
                want = eval_word(rep, rel.lhs, start, size) - eval_word(rep, rel.rhs, start, size)
                assert not residue.is_zero() and residue == want, rel.tag
            assert residue == _full_degree_residue(rep, rel), rel.tag
        # over a monomial denominator the entries are the very representatives
        full = _residue(odd, pr3, 1, 3)
        want = eval_word(odd, pr3.lhs) - eval_word(odd, pr3.rhs)
        assert [list(map(str, r)) for r in full.rows] == [list(map(str, r)) for r in want.rows]

    def test_crossed_denominators_within_the_field_limit(self, monkeypatch):
        # with two-bit fields (exponents up to 3) each side fits, but the
        # bound for crossing their denominators, 1 and r2, is 2 + 2 = 4
        monkeypatch.setattr(uvbraid.reps, "_FIELD_BITS", 2)
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep("upsilon", spec)
        fits = Relation("X", parse_word("s1,1 s1,1", spec), parse_word("s1,1", spec))
        want = eval_word(rep, fits.lhs) - eval_word(rep, fits.rhs)
        assert _residue(rep, fits, 1, 3) == want
        crossed = Relation("Y", parse_word("s1,1 s1,1", spec), parse_word("r1", spec))
        with pytest.raises(ValueError, match="exponents up to 4 exceed .* field limit 3$"):
            _residue(rep, crossed, 1, 3)

    def test_constraints_past_the_field_limit_are_refused(self, monkeypatch):
        # generic blocks hold degree-1 entries, so uv(3,1)'s words fit in
        # two-bit fields and give the same system; the antidiagonal virtual
        # block reads rho as r2^2 over r2, and PR1's r1 r2 r1 needs 6
        spec = make_spec("uv", 3, 1)
        wide = generate_constraints(2, spec).to_dict()
        monkeypatch.setattr(uvbraid.reps, "_FIELD_BITS", 2)
        assert generate_constraints(2, spec).to_dict() == wide
        with pytest.raises(ValueError, match="exponents up to 6 exceed .* field limit 3$"):
            generate_constraints(2, spec, rho_form="antidiagonal")


def _block_mapping(rep, spec):
    """The family's block entries for the unknowns of ``generic_rep``:
    r1..r(k^2) from the virtual block and s1_t..s(k^2)_t from the crossing
    block of type t, row-major."""
    blocks = [("r{}", rep.rho_block)]
    blocks += [(f"s{{}}_{t}", rep.sigma_blocks[t]) for t in range(1, spec.c + 1)]
    return {
        name.format(j + 1): entry
        for name, block in blocks
        for j, entry in enumerate(x for row in block.rows for x in row)
    }


# (family, k, group of the rep, group whose relations are checked)
_SUBSTITUTION_CASES = [
    *((fam, 2, ("uv", 3, 2), ("uv", 3, 2)) for fam in ("upsilon", "upsilon-prime")),
    *((f"omega{j}{p}", 2, ("uw", 3, 1), ("uw", 3, 1)) for p in ("", "p") for j in (1, 2, 3)),
    *((f"epsilon{j}", 3, ("uv", 4, 2), ("uv", 4, 2)) for j in (1, 2, 3, 4)),
    ("upsilon", 2, ("uv", 3, 1), ("uw", 3, 1)),
    ("epsilon1", 3, ("uv", 4, 2), ("uw", 4, 2)),
    ("epsilon3", 3, ("uv", 4, 2), ("uw", 4, 2)),
]


class TestGenerateConstraints:
    @pytest.mark.parametrize("fam,k,group,checked", _SUBSTITUTION_CASES, ids=_case_id)
    def test_substitution_agrees_with_verify(self, fam, k, group, checked):
        """The family's blocks solve the generic system exactly when the
        family verifies: the same relations, expanded over generic unknowns
        instead of over the family's ring."""
        rep = build_local_rep(fam, make_spec(*group))
        spec = make_spec(*checked)
        system = generate_constraints(k, spec)
        values = system.substitute(_block_mapping(rep, spec), rep.ring)
        solves = all(v.is_zero() for v in values)
        assert solves == verify_relations(rep, spec).all_passed
        assert solves == (group == checked)

    def test_fifteen_equations_in_eight_unknowns(self):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        assert len(system.equations) == 15
        assert system.unknowns == (
            "r1", "r2", "r3", "r4", "s1_1", "s2_1", "s3_1", "s4_1"
        )

    def test_matches_hand_derived_system_up_to_scalar(self):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        ring = system.ring
        r1, r2, r3, r4 = (ring.rf(f"r{j}") for j in (1, 2, 3, 4))
        s1, s2, s3, s4 = (ring.rf(f"s{j}_1") for j in (1, 2, 3, 4))
        expected = [
            r1 * (1 - r1 - r2 * r3),
            r1 * r2 * r4,
            r1 * r3 * r4,
            r1 * r4 * (r1 - r4),
            r4 * (1 - r2 * r3 - r4),
            r1 * r1 + r2 * r3 - 1,
            r2 * (r1 + r4),
            r3 * (r1 + r4),
            r2 * r3 + r4 * r4 - 1,
            r1 * (s1 + r2 * s3 - 1),
            r1 * (s2 + r2 * s4 - r2),
            r1 * r4 * s3,
            r1 * r4 * (s1 - s4),
            r4 * (r2 - r2 * s1 - s2),
            r4 * (1 - r2 * s3 - s4),
        ]
        got = {e.key() for e in system.equations}
        want = {f.num.monic().key() for f in expected}
        assert got == want

    def test_provenance_aggregates_duplicate_sources(self):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        by_poly = dict(zip((str(e) for e in system.equations), system.provenance))
        assert by_poly["r1^2 + r2*r3 - 1"] == ["PR3[i=1]", "PR3[i=2]"]

    def test_welded_addition_over_antidiagonal_block(self):
        system = generate_constraints(
            2, make_spec("uw", 3, 1), ["WR1[i=1,t=1]"], rho_form="antidiagonal"
        )
        ring = system.ring
        r2 = ring.rf("r2")
        s1, s3, s4 = ring.rf("s1_1"), ring.rf("s3_1"), ring.rf("s4_1")
        expected = [s1 * (1 - r2 * s3), r2 * s1 * s4, s4 * (1 - r2 * s3)]
        assert {e.key() for e in system.equations} == {
            f.num.monic().key() for f in expected
        }

    def test_relation_subset_by_tag(self):
        system = generate_constraints(
            2, make_spec("uv", 3, 1), ["PR1[i=1]", "PR3[i=1]"]
        )
        assert len(system.equations) == 9
        assert all(v.startswith("r") for v in system.unknowns)
        with pytest.raises(ValueError, match="tags"):
            generate_constraints(2, make_spec("uv", 3, 1), ["PR9[i=1]"])

    def test_three_by_three_blocks_supported(self):
        system = generate_constraints(3, make_spec("uv", 3, 1), ["PR3[i=1]"])
        assert any(str(v) == "r9" for v in system.unknowns)
        with pytest.raises(ValueError):
            generate_constraints(4, make_spec("uv", 3, 1))
        with pytest.raises(ValueError):
            generate_constraints(3, make_spec("uv", 3, 1), rho_form="antidiagonal")

    def test_classified_families_annihilate_the_system(self):
        """Substituting each classified family's block entries into the
        generated equations must give identically zero, family by family."""
        system = generate_constraints(2, make_spec("uv", 3, 1))
        ups = build_local_rep("upsilon", make_spec("uv", 3, 1))
        ring = ups.ring
        r2 = ring.rf("r2")
        mapping = {
            "r1": ring.rf(0), "r2": r2, "r3": 1 / r2, "r4": ring.rf(0),
            "s1_1": ring.rf("s1_1"), "s2_1": ring.rf("s2_1"),
            "s3_1": ring.rf("s3_1"), "s4_1": ring.rf("s4_1"),
        }
        assert all(v.is_zero() for v in system.substitute(mapping, ring))

    def test_omega_families_solve_the_welded_system(self):
        system = generate_constraints(
            2, make_spec("uw", 3, 1), ["WR1[i=1,t=1]"], rho_form="antidiagonal"
        )
        uw = make_spec("uw", 3, 1)
        for fam in ("omega1", "omega2", "omega3"):
            rep = build_local_rep(fam, uw)
            blk = rep.sigma_blocks[1]
            mapping = {
                "r2": rep.ring.rf("r2"),
                "s1_1": blk.rows[0][0], "s3_1": blk.rows[1][0],
                "s4_1": blk.rows[1][1],
            }
            values = system.substitute(mapping, rep.ring)
            assert all(v.is_zero() for v in values), fam

    def test_provenance_follows_the_callers_tag_order(self):
        """A repeated tag counts once, and each equation's tags come in the
        order the caller's list first names them."""
        uv = make_spec("uv", 3, 1)
        system = generate_constraints(2, uv, ["PR3[i=2]", "PR3[i=1]", "PR3[i=2]"])
        alone = generate_constraints(2, uv, ["PR3[i=1]"])
        assert len(system.equations) == 4
        assert [str(e) for e in system.equations] == [str(e) for e in alone.equations]
        assert system.provenance == [["PR3[i=2]", "PR3[i=1]"]] * 4


# every flavor at n = 3..5, c in {1, 2} where the flavor leaves it free;
# k = 2 generic and antidiagonal, k = 3 from n = 4 on
_ENGINE_CASES = [
    (k, (flavor, n, c), rho_form)
    for flavor in FLAVORS
    for n in (3, 4, 5)
    for c in ((None,) if flavor in _FIXED_C else (1, 2))
    for k, rho_form in [(2, "generic"), (2, "antidiagonal"), (3, "generic")]
    if k == 2 or n >= 4
]


@pytest.mark.parametrize("k,group,rho_form", _ENGINE_CASES, ids=_case_id)
def test_constraints_are_the_failing_residues_of_verify(k, group, rho_form):
    """The two engines read the same residues: the equations of the generic
    system are the monic numerators of the entries that ``verify_relations``
    reports failing on the same generic rep, and their provenance is the
    failing tags."""
    spec = make_spec(*group)
    system = generate_constraints(k, spec, None, rho_form)
    report = verify_relations(generic_rep(k, spec, rho_form))
    assert not report.skipped
    residues = {
        x.num.monic().key()
        for o in report.failed
        for row in o.residue.rows
        for x in row
        if not x.is_zero()
    }
    assert {e.key() for e in system.equations} == residues
    assert set().union(*system.provenance) == {o.tag for o in report.failed}


class TestModP:
    def test_seven_solutions_mod_seven(self):
        system = generate_constraints(
            2, make_spec("uv", 3, 1), ["PR1[i=1]", "PR3[i=1]"]
        )
        scan = enumerate_solutions_mod_p(system, 7)
        assert scan.count == 7

    def test_classification_buckets(self):
        system = generate_constraints(
            2, make_spec("uv", 3, 1), ["PR1[i=1]", "PR3[i=1]"]
        )
        scan = enumerate_solutions_mod_p(system, 5)
        kinds = sorted(classify_virtual_point(s, 5) for s in scan.solutions)
        assert kinds == ["antidiagonal"] * 4 + ["identity"]
        for s in scan.solutions:
            if classify_virtual_point(s, 5) == "antidiagonal":
                assert s["r2"] * s["r3"] % 5 == 1

    def test_identity_bucket_forces_identity_crossing_block(self):
        full = generate_constraints(2, make_spec("uv", 3, 1))
        fixed = {"r1": 1, "r2": 0, "r3": 0, "r4": 1}
        sub = enumerate_solutions_mod_p(full, 5, fixed=fixed)
        assert sub.count == 1
        (sol,) = sub.solutions
        assert (sol["s1_1"], sol["s2_1"], sol["s3_1"], sol["s4_1"]) == (1, 0, 0, 1)

    def test_invertibility_constraints_thin_the_count(self):
        system = generate_constraints(2, make_spec("uv", 3, 1), ["PR3[i=1]"])
        gen = generic_rep(2, make_spec("uv", 3, 1))
        det = gen.rho_block.det().num
        plain = enumerate_solutions_mod_p(system, 5)
        inv = enumerate_solutions_mod_p(system, 5, [det])
        assert inv.count <= plain.count
        assert all(
            (s["r1"] * s["r4"] - s["r2"] * s["r3"]) % 5 != 0 for s in inv.solutions
        )

    def test_invertibility_is_made_on_first_read(self, monkeypatch):
        calls = []
        det = Matrix.det
        monkeypatch.setattr(Matrix, "det", lambda self: calls.append(1) or det(self))
        system = generate_constraints(2, make_spec("uv", 3, 2))
        assert calls == []
        inv = system.invertibility  # rho, sigma_1, sigma_2: one determinant each
        assert [str(p) for p in inv] == [
            "r1*r4 - r2*r3", "s1_1*s4_1 - s2_1*s3_1", "s1_2*s4_2 - s2_2*s3_2",
        ]
        assert system.invertibility is inv and len(calls) == 3

    def test_imaginary_coefficients_rejected(self):
        ring = PolyRing(("x",))
        from uvbraid.analysis import ConstraintSystem
        from uvbraid.scalars import G_I

        eq = (ring.rf("x") * ring.rf(G_I)).num
        system = ConstraintSystem(
            block_size=2, spec=make_spec("uv", 3, 1), ring=ring,
            unknowns=("x",), equations=[eq], provenance=[["synthetic"]],
        )
        with pytest.raises(ValueError, match="imaginary"):
            enumerate_solutions_mod_p(system, 5)

    def test_scale_guards(self):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        with pytest.raises(ValueError):
            enumerate_solutions_mod_p(system, 4)
        with pytest.raises(ValueError):
            enumerate_solutions_mod_p(system, 17)
        # 13^8 grid points, but 13 cells: the grid size alone refuses nothing
        assert enumerate_solutions_mod_p(system, 13).count == 1 + 12 * 13 ** 4

    def test_a_scan_over_the_work_budget_is_refused(self, monkeypatch):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        monkeypatch.setattr(uvbraid.analysis, "_SCAN_BUDGET", 1000)
        # at p=5 the invertible scan visits 1120 partial points, at most 5 at a time
        with pytest.raises(ValueError, match=r"desk scale: 1001 partial points visited, "
                           r"over the budget of 1000"):
            enumerate_solutions_mod_p(system, 5, system.invertibility)
        # the dense scan is 5 cells and stays well under it
        assert enumerate_solutions_mod_p(system, 5).count == 1 + 4 * 5 ** 4

    def test_dense_scans_collapse_to_few_cells(self):
        """An antidiagonal virtual block leaves every crossing block free,
        so each is one cell; the identity forces one point."""
        uv31 = generate_constraints(2, make_spec("uv", 3, 1))
        dense = enumerate_solutions_mod_p(uv31, 7)
        assert dense.count == 1 + 6 * 7 ** 4
        assert len(dense.cells) == 7
        assert sorted(f for _prefix, f in dense.cells) == [0] + [4] * 6
        uv32 = generate_constraints(2, make_spec("uv", 3, 2))
        two = enumerate_solutions_mod_p(uv32, 3)
        assert two.count == 1 + 2 * 3 ** 8
        assert len(two.cells) <= 3
        # 5^12 = 244 140 625 grid points, 5 cells
        five = enumerate_solutions_mod_p(uv32, 5)
        assert five.count == 1_562_501 == 4 * 5 ** 8 + 1
        assert len(five.cells) == 5

    def test_pr1_and_pr3_pin_every_r_in_five_one_point_cells(self):
        system = generate_constraints(
            2, make_spec("uv", 3, 1), ["PR1[i=1]", "PR3[i=1]"]
        )
        det_r, _det_s = system.invertibility
        scan = enumerate_solutions_mod_p(system, 5, [det_r])
        assert scan.count == 5
        assert all(f == 0 for _prefix, f in scan.cells)
        assert scan.holes == []


def _r1_r4(r1, r2, r3, r4):
    return r1 * r4


def _synthetic_system(equation):
    """The system ``equation(r1, r2, r3, r4) = 0``, which declares all four
    as unknowns whatever the equation mentions."""
    ring = PolyRing(("r1", "r2", "r3", "r4"))
    eq = equation(*(ring.rf(v) for v in ring.vars)).num
    return ConstraintSystem(
        block_size=2, spec=make_spec("uv", 3, 1), ring=ring,
        unknowns=ring.vars, equations=[eq], provenance=[["synthetic"]],
    )


class TestModPCells:
    def test_zero_residue_leaves_the_rest_free(self):
        scan = enumerate_solutions_mod_p(_synthetic_system(_r1_r4), 3)
        assert scan.unknowns == ("r1", "r2", "r3", "r4")
        # r1 = 0 kills r1*r4 whatever r2..r4 are: one cell of 27 points
        assert scan.cells[0] == ((0,), 3)
        assert all(f == 0 and prefix[3] == 0 for prefix, f in scan.cells[1:])
        assert scan.count == len(scan.solutions) == 27 + 27 - 9
        assert scan.solutions == [
            dict(zip(scan.unknowns, point))
            for point in itertools.product(range(3), repeat=4)
            if point[0] * point[3] % 3 == 0
        ]

    def test_buckets_expand_a_cell_that_leaves_the_block_free(self):
        scan = enumerate_solutions_mod_p(_synthetic_system(_r1_r4), 5)
        assert scan.cells[0] == ((0,), 3)
        want = Counter(classify_virtual_point(s, 5) for s in scan.solutions)
        assert classify_virtual_cells(scan) == want
        # r1 = r4 = 0 with r2*r3 = 1: one point for each r2 != 0
        assert want["antidiagonal"] == 4 and want["identity"] == 0

    def test_buckets_of_a_partly_fixed_block(self):
        system = _synthetic_system(_r1_r4)
        scan = enumerate_solutions_mod_p(system, 3, fixed={"r2": 2, "r3": 2})
        assert scan.cells[0] == ((0,), 1)
        want = Counter(classify_virtual_point(s, 3) for s in scan.solutions)
        assert classify_virtual_cells(scan) == want == {"antidiagonal": 1, "other": 4}

    def test_residue_vanishing_only_as_a_function_is_descended(self):
        """r2^3 - r2 is zero at every point of F_3 but is no zero
        polynomial, so past r1 != 0 the scan binds r2 before it stops."""
        system = _synthetic_system(lambda r1, r2, r3, r4: r1 * (r2 * r2 * r2 - r2))
        scan = enumerate_solutions_mod_p(system, 3)
        assert scan.count == 3 ** 4
        assert scan.cells == [((0,), 3)] + [
            ((a, b), 2) for a in (1, 2) for b in range(3)
        ]

    def test_tally_refuses_a_name_neither_scanned_nor_fixed(self):
        system = _synthetic_system(_r1_r4)
        scan = enumerate_solutions_mod_p(system, 3, fixed={"r2": 1})
        assert scan.tally(("r2", "r4")) == {(1, 0): 9, (1, 1): 3, (1, 2): 3}
        with pytest.raises(
            ValueError, match=r"'s1' is neither scanned nor fixed; valid names: r1, r3, r4, r2$"
        ):
            scan.tally(("r1", "s1"))

    def test_scan_without_r_block_is_not_classified(self):
        system = generate_constraints(
            2, make_spec("uw", 3, 1), ["WR1[i=1,t=1]"], "antidiagonal"
        )
        scan = enumerate_solutions_mod_p(system, 3)
        assert "r1" not in scan.unknowns
        assert classify_virtual_cells(scan) is None


def _gl2(p):
    return (p * p - 1) * (p * p - p)


def _antidiagonal(p, a=2):
    return {"r1": 0, "r2": a, "r3": pow(a, -1, p), "r4": 0}


class TestModPHoles:
    """A pending invertibility test leaves a cell whole and punches holes
    in it; the counts below are closed forms."""

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_antidiagonal_block_leaves_the_crossing_block_free_in_gl2(self, p):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        scan = enumerate_solutions_mod_p(system, p, system.invertibility, _antidiagonal(p))
        assert scan.cells == [((), 4)]
        assert scan.count == _gl2(p)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_invertible_scan_counts_identity_plus_antidiagonal_gl2(self, p):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        scan = enumerate_solutions_mod_p(system, p, system.invertibility)
        assert scan.count == 1 + (p - 1) * _gl2(p)
        assert classify_virtual_cells(scan) == {
            "identity": 1, "antidiagonal": (p - 1) * _gl2(p),
        }

    def test_holes_keep_the_antidiagonal_scan_small(self):
        """p^4 points less the singular crossing blocks: one cell and
        p + (p - 1) * p^2 holes, where one cell per point would be 13 200."""
        p = 11
        system = generate_constraints(2, make_spec("uv", 3, 1))
        scan = enumerate_solutions_mod_p(system, p, system.invertibility, _antidiagonal(p))
        assert len(scan.cells) + len(scan.holes) <= 1 + p**3
        assert len(scan.holes) == p + (p - 1) * p**2

    def test_every_hole_lies_inside_one_cell(self):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        scan = enumerate_solutions_mod_p(system, 5, system.invertibility)
        assert scan.holes
        for hole, _f in scan.holes:
            inside = [cell for cell, _size in scan.cells if hole[: len(cell)] == cell]
            assert len(inside) == 1


# (group, c, rho_form) of the small k=2 systems the solver is checked on
_MOD_P_SYSTEMS = [
    ("uv", 1, "generic"), ("uv", 2, "generic"), ("uw", 1, "antidiagonal"),
]


@functools.lru_cache(maxsize=None)
def _mod_p_system(group, c, rho_form, tags):
    return generate_constraints(2, make_spec(group, 3, c), list(tags), rho_form)


@st.composite
def _mod_p_instances(draw):
    """A small scan: a random tag subset of a k=2 system, p in {3, 5},
    optional block determinants as invertibility, up to 3 fixed unknowns."""
    group, c, rho_form = draw(st.sampled_from(_MOD_P_SYSTEMS))
    spec = make_spec(group, 3, c)
    tags = draw(st.lists(
        st.sampled_from([r.tag for r in relations(spec)]), min_size=1, unique=True
    ))
    system = _mod_p_system(group, c, rho_form, tuple(tags))
    gen = generic_rep(2, spec, rho_form)
    blocks = [gen.sigma_blocks[t] for t in sorted(gen.sigma_blocks)]
    if rho_form == "generic":
        blocks.insert(0, gen.rho_block)
    chosen = draw(st.lists(st.sampled_from(range(len(blocks))), unique=True))
    invertibility = [blocks[b].det().num for b in sorted(chosen)]
    p = draw(st.sampled_from((3, 5)))
    needed = set(system.unknowns)
    for poly in invertibility:
        needed.update(poly.variables())
    names = [v for v in system.ring.vars if v in needed]
    pinned = (
        draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
        if names else []
    )
    fixed = {v: draw(st.integers(-p, 2 * p)) for v in pinned}
    assume(p ** (len(names) - len(fixed)) <= 3 ** 8)
    return system, p, invertibility, fixed


# fixed r-blocks of uv(3,1) for the holes path: (tags, block at p, further
# fixed unknowns, "both" block determinants or the crossing block's "S").  A
# singular block solves no PR relation, so MR2 alone is scanned there;
# "singular emptied" pins s4_1 = 0, and its one cell (s1_1 = 1, s2_1 = 0)
# is all hole, det S being 0 - 0 * s3_1.
_ALL_UV31_TAGS = ("PR1[i=1]", "PR3[i=1]", "PR3[i=2]", "MR2[i=1,t=1]")
_FIXED_R_CASES = {
    "antidiagonal": (_ALL_UV31_TAGS, lambda p: (0, 2, pow(2, -1, p), 0), {}, "both"),
    "identity": (_ALL_UV31_TAGS, lambda p: (1, 0, 0, 1), {}, "both"),
    "singular, every relation": (_ALL_UV31_TAGS, lambda p: (1, 1, 1, 1), {}, "S"),
    "singular rank 1": (("MR2[i=1,t=1]",), lambda p: (1, 0, 0, 0), {}, "S"),
    "singular zero": (("MR2[i=1,t=1]",), lambda p: (0, 0, 0, 0), {}, "S"),
    "singular emptied": (("MR2[i=1,t=1]",), lambda p: (1, 0, 0, 0), {"s4_1": 0}, "S"),
}


def _brute_force_mod_p(system, p, invertibility, fixed):
    """Reference scan: every point of F_p^u in lexicographic order, u being
    the unknowns the system declares or its polynomials mention, less the
    fixed ones; each polynomial is evaluated exactly over Q(i) and only then
    reduced mod p.  Values are memoized per polynomial on the unknowns it
    involves."""
    tests = [(eq, True) for eq in system.equations]
    tests += [(poly, False) for poly in invertibility]
    occurs = [poly.variables() for poly, _ in tests]
    seen: list[dict] = [{} for _ in tests]

    def passes(i, point):
        key = tuple(point[v] for v in occurs[i])
        if key not in seen[i]:
            poly, want_zero = tests[i]
            value = poly.evaluate(point)
            assert not value.im and value.re.denominator % p
            seen[i][key] = (value.re.numerator % p == 0) == want_zero
        return seen[i][key]

    needed = set(system.unknowns).union(*occurs)
    scanned = tuple(v for v in system.ring.vars if v in needed and v not in fixed)
    fixed_mod_p = {k: v % p for k, v in fixed.items()}
    solutions = []
    for values in itertools.product(range(p), repeat=len(scanned)):
        point = dict(zip(scanned, values)) | fixed
        if all(passes(i, point) for i in range(len(tests))):
            solutions.append(dict(zip(scanned, values)) | fixed_mod_p)
    return scanned, fixed_mod_p, solutions


def _assert_tallies_match(scan, solutions):
    """``scan.tally`` equals the reference ``solutions`` projected on the
    names and counted, keys in ascending order, for these name sets: none,
    each scanned or fixed unknown alone, r1..r4, and all of them."""
    every = (*scan.unknowns, *scan.fixed)
    virtual = ("r1", "r2", "r3", "r4")
    name_sets = [(), *((v,) for v in every), every]
    if set(virtual) <= set(every):
        name_sets.append(virtual)
    for names in name_sets:
        want = Counter(sorted(tuple(s[v] for v in names) for s in solutions))
        assert list(scan.tally(names).items()) == list(want.items()), names


class TestModPAgainstBruteForce:
    @given(_mod_p_instances())
    @settings(max_examples=80, deadline=None)
    def test_staged_scan_matches_reference(self, instance):
        system, p, invertibility, fixed = instance
        scan = enumerate_solutions_mod_p(system, p, invertibility, fixed)
        unknowns, fixed_mod_p, solutions = _brute_force_mod_p(
            system, p, invertibility, fixed
        )
        assert scan.unknowns == unknowns
        assert scan.fixed == fixed_mod_p
        assert scan.solutions == solutions
        assert scan.count == len(solutions)
        buckets = classify_virtual_cells(scan)
        if buckets is not None:
            assert buckets == Counter(classify_virtual_point(s, p) for s in solutions)

    @given(_mod_p_instances())
    @settings(max_examples=60, deadline=None)
    def test_tally_matches_reference(self, instance):
        system, p, invertibility, fixed = instance
        scan = enumerate_solutions_mod_p(system, p, invertibility, fixed)
        _unknowns, _fixed, solutions = _brute_force_mod_p(system, p, invertibility, fixed)
        _assert_tallies_match(scan, solutions)
        valid = [*scan.unknowns, *scan.fixed]
        stray = next((v for v in system.ring.vars if v not in valid), "zz")
        message = f"{stray!r} is neither scanned nor fixed; valid names: {', '.join(valid)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            scan.tally((*scan.unknowns[:1], stray))

    @pytest.mark.parametrize("invert", (False, True))
    @pytest.mark.parametrize("p", (3, 5))
    def test_declared_unknowns_no_equation_mentions_are_scanned(self, p, invert):
        """r1*r2 = 0 mentions r1 and r2 only, but the system declares r1..r4,
        so the scan and the reference both run over all four."""
        system = _synthetic_system(lambda r1, r2, r3, r4: r1 * r2)
        invertibility = [_synthetic_system(_r1_r4).equations[0]] if invert else []
        scan = enumerate_solutions_mod_p(system, p, invertibility)
        unknowns, _fixed, solutions = _brute_force_mod_p(system, p, invertibility, {})
        assert scan.unknowns == unknowns == ("r1", "r2", "r3", "r4")
        assert scan.solutions == solutions
        # r1*r4 != 0 leaves r2 = 0 and r3 free: p(p-1)^2, else (2p-1)p^2
        assert scan.count == len(solutions) == (
            p * (p - 1) ** 2 if invert else (2 * p - 1) * p * p
        )
        _assert_tallies_match(scan, solutions)

    @pytest.mark.parametrize("p", (3, 5, 7))
    @pytest.mark.parametrize("case", sorted(_FIXED_R_CASES))
    def test_holes_match_reference_on_fixed_r_blocks(self, case, p):
        tags, block, extra, dets = _FIXED_R_CASES[case]
        full = generate_constraints(2, make_spec("uv", 3, 1))
        # MR2 has no r3: declare every unknown, so that the block can be fixed
        system = dataclasses.replace(
            _mod_p_system("uv", 1, "generic", tags), unknowns=full.unknowns
        )
        det_r, det_s = full.invertibility
        invertibility = {"both": [det_r, det_s], "S": [det_s]}[dets]
        fixed = dict(zip(("r1", "r2", "r3", "r4"), block(p))) | extra
        scan = enumerate_solutions_mod_p(system, p, invertibility, fixed)
        unknowns, _fixed, solutions = _brute_force_mod_p(system, p, invertibility, fixed)
        assert scan.unknowns == unknowns
        assert scan.solutions == solutions
        assert scan.count == len(solutions)
        # exact keys: a Counter compares a 0 count equal to a missing one
        want = dict(Counter(classify_virtual_point(s, p) for s in solutions))
        assert dict(classify_virtual_cells(scan)) == want
        if case in ("antidiagonal", "singular rank 1", "singular zero"):
            assert scan.holes
        if case == "singular emptied":
            assert scan.cells == scan.holes == [((1, 0), 1)]
            assert want == {}
        _assert_tallies_match(scan, solutions)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_a_cell_the_holes_empty_leaves_no_bucket(self, p):
        """r1 = 0 solves r1*r2*r3 = 0 whatever r2..r4 are, and fails
        r1*r4 != 0 for all of them: the cell is all hole, and no
        antidiagonal point survives."""
        system = _synthetic_system(lambda r1, r2, r3, r4: r1 * r2 * r3)
        invertibility = [_synthetic_system(_r1_r4).equations[0]]
        scan = enumerate_solutions_mod_p(system, p, invertibility)
        assert scan.cells[0] == scan.holes[0] == ((0,), 3)
        _unknowns, _fixed, solutions = _brute_force_mod_p(system, p, invertibility, {})
        assert scan.solutions == solutions
        assert scan.count == len(solutions) == (p - 1) * (2 * p - 1) * (p - 1)
        want = dict(Counter(classify_virtual_point(s, p) for s in solutions))
        assert "antidiagonal" not in want
        assert dict(classify_virtual_cells(scan)) == want

    def test_dense_p7_system_stays_small_in_memory(self):
        system = generate_constraints(2, make_spec("uv", 3, 1))
        tracemalloc.start()
        try:
            scan = enumerate_solutions_mod_p(system, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.count == 1 + 6 * 7 ** 4
        # a dense grid of all 7^8 points would take hundreds of MB
        assert peak < 16 * 2 ** 20


def _images(rep):
    return [m for _g, m in rep.generator_images()]


def _reference_closure(mats, seeds, width):
    """Reference span closure: Q(i) entries in Fraction arithmetic, each
    product reduced in the pivot-1 ``FractionEchelon``, every wave run to
    its end (the engines before they moved to Gaussian integers)."""
    consts = [[[a.constant_value() for a in r] for r in g.rows] for g in mats]
    gens = [
        [[(i, a) for i, a in enumerate(col) if a] for col in zip(*g)]
        for g in consts
    ]
    basis = FractionEchelon()
    wave = [basis.insert([a.constant_value() for r in s.rows for a in r]) for s in seeds]
    wave = [v for v in wave if v is not None]
    while wave and len(basis) < len(consts[0]) * width:
        nxt = []
        for v in wave:
            for cols in gens:
                out = [G_ZERO] * len(v)
                for k, x in enumerate(v):
                    if x:
                        r, c = divmod(k, width)
                        for i, a in cols[r]:
                            out[i * width + c] = out[i * width + c] + a * x
                new = basis.insert(out)
                if new is not None:
                    nxt.append(new)
        wave = nxt
    return basis


def _reference_burnside_dim(mats):
    m = mats[0].nrows
    return len(_reference_closure(mats, [Matrix.identity(mats[0].ring, m)], m))


def _reference_spin(mats, seeds):
    basis = _reference_closure(mats, seeds, 1)
    return [Matrix.column(mats[0].ring, basis.rows[p]) for p in sorted(basis.rows)]


_QI = PolyRing(("t",))


@st.composite
def qi_generator_sets(draw):
    """1-4 square Q(i) matrices (zeros frequent) and 1-3 column seeds, with
    at least one entry that has an imaginary part and a denominator."""
    m = draw(st.integers(1, 4))
    entry = st.one_of(st.just(G_ZERO), qi_entries)
    mats = [[[draw(entry) for _ in range(m)] for _ in range(m)]
            for _ in range(draw(st.integers(1, 4)))]
    which = draw(st.integers(0, len(mats) * m * m - 1))
    g, ij = divmod(which, m * m)
    mats[g][ij // m][ij % m] = GaussianRational(
        Fraction(draw(st.integers(-3, 3)), draw(st.integers(2, 4))),
        draw(st.sampled_from([-2, -1, 1, 2])),
    )
    seeds = [[draw(entry) for _ in range(m)] for _ in range(draw(st.integers(1, 3)))]
    return (
        [Matrix.from_rows(_QI, g) for g in mats],
        [Matrix.column(_QI, s) for s in seeds],
    )


class TestSpanEnginesAgainstFractionReference:
    """``burnside_dim`` and ``spin`` on Gaussian-integer rows against the
    Fraction closure: equal dimensions, identical spin columns."""

    @settings(max_examples=80, deadline=None)
    @given(qi_generator_sets())
    def test_random_gaussian_rational_generators(self, case):
        mats, seeds = case
        assert burnside_dim(mats) == _reference_burnside_dim(mats)
        got, want = spin(mats, seeds), _reference_spin(mats, seeds)
        assert [str(v) for v in got] == [str(v) for v in want]
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(qi_generator_sets())
    def test_spin_columns_do_not_depend_on_order(self, case):
        mats, seeds = case
        want = spin(mats, seeds)
        assert spin(mats, seeds[::-1]) == want
        assert spin(mats[::-1], seeds) == want
        assert spin(mats + mats[:1], seeds) == want
        assert spin(mats * 2, seeds) == want

    @settings(max_examples=60, deadline=None)
    @given(qi_generator_sets())
    def test_the_identity_adds_nothing(self, case):
        mats, _ = case
        ident = Matrix.identity(_QI, mats[0].nrows)
        assert burnside_dim(mats + [ident]) == burnside_dim(mats)
        assert burnside_dim([ident]) == burnside_dim([ident, ident]) == 1

    # family, flavor, point (c = 1), on the family's reducibility locus
    FAMILY_POINTS = [
        ("upsilon-prime", "uv", {"s1_1": "i", "s2_1": "1", "s3_1": "2", "s4_1": "1-i"}, False),
        ("upsilon-prime", "uv", {"s1_1": "2", "s2_1": "-3", "s3_1": "5", "s4_1": "7"}, False),
        ("upsilon-prime", "uv", {"s1_1": "2", "s2_1": "-1", "s3_1": "3", "s4_1": "-2"}, True),
        ("upsilon-prime", "uv", {"s1_1": "2", "s2_1": "3", "s3_1": "-1", "s4_1": "-2"}, True),
        ("omega1p", "uw", {"r2": "3", "s2_1": "3", "s3_1": "1/3"}, True),
        ("omega1p", "uw", {"r2": "2", "s2_1": "3", "s3_1": "5"}, False),
        ("omega2p", "uw", {"r2": "1+i", "s2_1": "2", "s4_1": "i"}, True),
        ("omega2p", "uw", {"r2": "2", "s2_1": "3", "s4_1": "5"}, False),
        ("omega3p", "uw", {"r2": "2", "s1_1": "3", "s2_1": "-4"}, True),
        ("omega3p", "uw", {"r2": "i", "s1_1": "1", "s2_1": "1+i"}, False),
    ]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("family, flavor, params, on_locus", FAMILY_POINTS)
    def test_complex_family_point(self, family, flavor, params, on_locus, n):
        point = {k: parse_gaussian(v) for k, v in params.items()}
        rep = build_local_rep(family, make_spec(flavor, n, 1), point)
        m = rep.degree
        e1 = Matrix.column(rep.ring, [1] + [0] * (m - 1))
        for gens in (_images(rep), [g.transpose() for g in _images(rep)]):
            dim = burnside_dim(gens)
            assert dim == _reference_burnside_dim(gens)
            assert (dim < m * m) == on_locus
            got, want = spin(gens, [e1]), _reference_spin(gens, [e1])
            assert [str(v) for v in got] == [str(v) for v in want]

    def test_closure_does_no_gaussian_rational_arithmetic(self, monkeypatch):
        # the conversion of 10 generators of degree 6 could cost at most one
        # operation per entry, 10 * 36; the products and reductions none
        rep = build_local_rep(
            "upsilon-prime", make_spec("uv", 6, 1),
            {"s1_1": 2, "s2_1": -3, "s3_1": 5, "s4_1": 7},
        )
        gens = _images(rep)
        calls = [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "inverse"):
            monkeypatch.setattr(GaussianRational, name,
                                counted(getattr(GaussianRational, name)))
        assert burnside_dim(gens) == 36
        assert len(gens) == 10 and calls[0] <= 10 * 36

    @pytest.mark.parametrize("point, dim", [
        ({"s1_1": 2, "s2_1": -3, "s3_1": 5, "s4_1": 7}, 144),
        ({"s1_1": 2, "s2_1": -1, "s3_1": 3, "s4_1": -2}, 133),  # row sums 1
    ])
    def test_closure_work_follows_the_local_support(self, monkeypatch, point, dim):
        # rows m^2 = 144 wide would write 144 coordinates per product
        rep = build_local_rep("upsilon-prime", make_spec("uv", 12, 1), point)
        k, m = rep.block_size, rep.degree
        work = Counter()
        left_mul, eliminate = uvbraid.analysis._left_mul, uvbraid.matrices._eliminate

        def counted_left_mul(cols, v, width):
            out = left_mul(cols, v, width)
            work["products"] += 1
            work["written"] += len(out)
            return out

        def counted_eliminate(v, b, j):
            work["written"] += len(v) + len(b)
            return eliminate(v, b, j)

        monkeypatch.setattr(uvbraid.analysis, "_left_mul", counted_left_mul)
        monkeypatch.setattr(uvbraid.matrices, "_eliminate", counted_eliminate)
        assert burnside_dim(_images(rep)) == dim
        # the two spins and the closure of I over the ideal they span stay
        # under the m^2 products a closure from I alone needs at the least
        assert work["products"] <= m * m
        assert work["written"] <= 2 * k * m * work["products"] < m * m * work["products"]


@st.composite
def rank_one_generator_sets(draw):
    """1-4 generators of one degree m = 1..5, one of them I + u v^T with
    Gaussian-rational u, v != 0, the others the identity, dense, block
    upper triangular, or I + u v^T + u' v'^T with sparse terms, whose
    g - I may be a cross (a row and a column) or fill the product of its
    row and column supports without rank one.  With a split s > 0 every
    generator keeps W = span(e_1..e_s), so the set is reducible: dense
    ones are drawn triangular, and each u lies in W or its v is zero on
    W.  Some such sets also keep the complement of W: every generator is
    block diagonal and each u v^T lies in one block, so the algebra can
    be far smaller than all that keeps W."""
    m = draw(st.integers(1, 5))
    split = draw(st.integers(0, m - 1))
    diagonal = split > 0 and draw(st.booleans())
    low, high, every = range(split), range(split, m), range(m)
    entry = st.one_of(st.just(G_ZERO), qi_entries)
    nonzero = st.sampled_from(
        [G_ONE, GaussianRational(Fraction(-1, 2), 1), GaussianRational(0, -2)]
    )

    def term():
        u, v = ([draw(entry) for _ in every] for _ in range(2))
        if not split:  # the coordinates u and v may use
            keep_u = keep_v = every
        elif diagonal:
            keep_u = keep_v = draw(st.sampled_from([low, high]))
        else:
            keep_u, keep_v = (low, every) if draw(st.booleans()) else (every, high)
        for x, keep in ((u, keep_u), (v, keep_v)):
            x[:] = [a if j in keep else G_ZERO for j, a in enumerate(x)]
            x[draw(st.sampled_from(keep))] = draw(nonzero)
        return u, v

    kinds = draw(st.lists(st.sampled_from(["identity", "dense", "triangular", "rank two"]),
                          max_size=3))
    kinds.insert(draw(st.integers(0, len(kinds))), "rank one")
    mats = []
    for kind in kinds:
        rows = [[G_ONE if i == j else G_ZERO for j in every] for i in every]
        if kind.startswith("rank"):
            for u, v in [term() for _ in range(1 if kind == "rank one" else 2)]:
                rows = [[rows[i][j] + u[i] * v[j] for j in every] for i in every]
        elif kind != "identity":
            cut = split if split or kind == "dense" or m == 1 else draw(st.integers(1, m - 1))
            rows = [[G_ZERO if i >= cut > j or diagonal and j >= cut > i else draw(entry)
                     for j in every] for i in every]
        mats.append(Matrix.from_rows(_QI, rows))
    return mats


def _reference_singular_spins(mats):
    """Fraction reference for the two spins of ``burnside_dim``: the first
    generator g with rank(g - I) = 1, and the dimensions of the spins of
    its column space under ``mats`` and of its row space under their
    transposes; None when no g - I has rank one."""
    ident = Matrix.identity(_QI, mats[0].nrows)
    for g in mats:
        e = g - ident
        basis = FractionEchelon()
        for row in e.rows:
            basis.insert([a.constant_value() for a in row])
        if len(basis) == 1:
            u = next(c for c in zip(*e.rows) if any(not a.is_zero() for a in c))
            v = next(r for r in e.rows if any(not a.is_zero() for a in r))
            left = _reference_spin(mats, [Matrix.column(_QI, u)])
            right = _reference_spin([h.transpose() for h in mats], [Matrix.column(_QI, v)])
            return len(left), len(right)
    return None


class TestSingularElementBurnside:
    """``burnside_dim`` seeded with the ideal of a rank-one g - I, against
    the Fraction closure from I alone."""

    # I + E with E of rank two on span(e_1, e_2), first, and the rank-one
    # I + e_3 e_3^T: the algebra is 3-dimensional, but reading E as rank
    # one would seed a 4-dimensional ideal; E fills the product of its row
    # and column supports in the first case and is a cross in the second
    @example([Matrix.from_rows(_QI, [[2, 1, 0], [1, 3, 0], [0, 0, 1]]),
              Matrix.from_rows(_QI, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])])
    @example([Matrix.from_rows(_QI, [[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
              Matrix.from_rows(_QI, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])])
    @settings(max_examples=150, deadline=None)
    @given(rank_one_generator_sets())
    def test_planted_rank_one_generator(self, mats):
        m = mats[0].nrows
        want = _reference_burnside_dim(mats)
        left_mul, closure_products = uvbraid.analysis._left_mul, [0]

        def counted(cols, v, width):
            closure_products[0] += width == m > 1
            return left_mul(cols, v, width)

        with unittest.mock.patch.object(uvbraid.analysis, "_left_mul", counted):
            got = burnside_dim(mats)
        assert got == want
        assert burnside_dim([g.transpose() for g in mats]) == want
        # the ideal's d1 * d2 rows are seeded, never multiplied: only the
        # rows the closure of I adds past them are, each by every generator
        d1, d2 = _reference_singular_spins(mats)
        moving = sum(not g.is_identity() for g in mats)
        assert closure_products[0] <= moving * (want - d1 * d2)
        assert (want == m * m) == (d1 == d2 == m)

    def test_degree_one_and_identities(self):
        ident, two = Matrix.identity(_QI, 1), Matrix.from_rows(_QI, [[2]])
        assert burnside_dim([ident, two]) == burnside_dim([two]) == burnside_dim([ident]) == 1
        e12 = Matrix.from_rows(_QI, [[1, 1], [0, 1]])
        assert burnside_dim([Matrix.identity(_QI, 2), e12]) == 2
        assert burnside_dim([e12, e12.transpose()]) == 4


def _invariant_check_all_pairs(mats, vec, side):
    """Reference for ``invariant_check``: every pair of coordinates of each
    image is compared with the witness, w_i v_j = w_j v_i for all i < j."""
    entries = [x for row in vec.rows for x in row]
    for m in mats:
        image = m * vec if side == "column" else vec * m
        img = [x for row in image.rows for x in row]
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if entries[i] * img[j] != entries[j] * img[i]:
                    return False
    return True


_TU = PolyRing(("t", "u"))
_T, _U = _TU.rf("t"), _TU.rf("u")
_SYMBOLIC = [_T, _U, _T + 1, _T * _U - 1, 1 / (_T + 1), _U / _T]


@st.composite
def invariant_cases(draw):
    """A nonzero witness (constant or symbolic) on either side and 1-3
    matrices, each generic, zero (zero image), rank one along the witness
    (parallel image), rank one with one entry changed (a near miss) or
    k-local, I (+) B (+) I with B generic, the identity or the identity
    with one entry changed (rows that are, or nearly are, the identity's)."""
    nonzero = st.sampled_from([1, -2, GaussianRational(1, 1)])
    entry = st.one_of(st.just(0), qi_entries)
    if draw(st.booleans()):
        nonzero = st.one_of(nonzero, st.sampled_from(_SYMBOLIC))
        entry = st.one_of(entry, st.sampled_from(_SYMBOLIC))
    m, side = draw(st.integers(1, 4)), draw(st.sampled_from(["column", "row"]))
    v = [draw(entry) for _ in range(m)]
    v[draw(st.integers(0, m - 1))] = draw(nonzero)
    v = [_TU.rf(x) for x in v]
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["generic", "zero", "parallel", "near", "local"]))
        if kind == "generic":
            rows = [[draw(entry) for _ in range(m)] for _ in range(m)]
        elif kind == "local":
            k = draw(st.integers(1, m))
            pos = draw(st.integers(0, m - k))
            rows = [[int(i == j) for j in range(m)] for i in range(m)]
            block = draw(st.sampled_from(["identity", "generic", "one entry"]))
            if block == "generic":
                for i in range(pos, pos + k):
                    rows[i][pos:pos + k] = [draw(entry) for _ in range(k)]
            elif block == "one entry":  # a row may keep its 1 yet differ from I's
                a, b = (pos + draw(st.integers(0, k - 1)) for _ in range(2))
                rows[a][b] = draw(entry)
        elif kind == "zero":
            rows = [[0] * m for _ in range(m)]
        else:
            w = [_TU.rf(draw(entry)) for _ in range(m)]
            rows = [[v[i] * w[j] if side == "column" else w[i] * v[j]
                     for j in range(m)] for i in range(m)]
            if kind == "near":
                rows[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] += 1
        mats.append(Matrix.from_rows(_TU, rows))
    vec = Matrix.column(_TU, v) if side == "column" else Matrix.row_vector(_TU, v)
    return mats, vec, side


class TestInvariantCheckAgainstAllPairs:
    @settings(max_examples=150, deadline=None)
    @given(invariant_cases())
    def test_first_nonzero_entry_test_equals_all_pairs(self, case):
        mats, vec, side = case
        assert invariant_check(mats, vec, side) == _invariant_check_all_pairs(
            mats, vec, side
        )


class TestSpanEngines:
    def test_identity_algebra_is_one_dimensional(self):
        ring = PolyRing(("t",))
        assert burnside_dim([Matrix.identity(ring, 2)]) == 1

    def test_irreducible_sample_reaches_full_algebra(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep(
            "upsilon-prime", spec,
            {"s1_1": 1, "s2_1": 2, "s3_1": 3, "s4_1": 4},
        )
        assert burnside_dim(_images(rep)) == 9

    def test_reducible_sample_stalls_below_full(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep(
            "upsilon-prime", spec,
            {"s1_1": 2, "s2_1": -1, "s3_1": 3, "s4_1": -2},
        )
        assert burnside_dim(_images(rep)) == 7

    def test_burnside_input_validation(self):
        ring = PolyRing(("t",))
        with pytest.raises(ValueError):
            burnside_dim([])
        with pytest.raises(ValueError):
            burnside_dim([Matrix.identity(ring, 2), Matrix.identity(ring, 3)])

    def test_spin_input_validation(self):
        ring = PolyRing(("t",))
        e1 = Matrix.column(ring, [1, 0])
        with pytest.raises(ValueError, match="at least one matrix"):
            spin([], [e1])
        with pytest.raises(ValueError):
            spin([Matrix.identity(ring, 2), Matrix.identity(ring, 3)], [e1])
        with pytest.raises(ValueError):
            spin([Matrix.from_rows(ring, [[1, 0, 0], [0, 1, 0]])], [e1])
        with pytest.raises(ValueError):
            spin([Matrix.identity(ring, 2)], [Matrix.row_vector(ring, [1, 0])])

    @pytest.mark.parametrize("seed", range(12))
    def test_burnside_dim_is_invariant_under_transposition(self, seed):
        # A -> A^T is an anti-isomorphism of the generated algebras; seeds
        # 0..5 sit on each family's reducibility locus, 6..11 off it
        rng = random.Random(seed)
        family = ("upsilon-prime", "omega1p", "omega2p", "omega3p")[seed % 4]
        on = seed < 6
        nz = [x for x in range(-5, 6) if x]
        r2, a, b = (GaussianRational(rng.choice(nz)) for _ in range(3))
        if family == "upsilon-prime":
            spec = make_spec("uv", rng.choice((3, 4)), 1)
            if on:  # row sums 1
                s2, s3, s4 = 1 - a, b, 1 - b
            else:  # row sums 2a + 1, column sums 3a + 1, determinant -1
                s2, s3, s4 = a + 1, 2 * a + 1, 2 * a + 3
            point = {"s1_1": a, "s2_1": s2, "s3_1": s3, "s4_1": s4}
        elif family == "omega1p":
            spec = make_spec("uw", 4, 1)
            point = {"r2": r2, "s2_1": r2 if on else r2 + 1, "s3_1": 1 / r2}
        else:
            spec = make_spec("uw", 4, 1)
            key = "s4_1" if family == "omega2p" else "s1_1"
            point = {"r2": r2, "s2_1": a, key: (1 if on else 2) - a / r2}
        gens = _images(build_local_rep(family, spec, point))
        assert burnside_dim([g.transpose() for g in gens]) == burnside_dim(gens)

    def test_spin_of_all_ones_under_permutations(self):
        spec = make_spec("uv", 4, 1)
        rep = build_local_rep(
            "upsilon-prime", spec,
            {"s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1},
        )
        perms = [m for g, m in rep.generator_images() if g.kind == "rho"]
        ring = rep.ring
        ones = Matrix.column(ring, [1] * 4)
        assert len(spin(perms, [ones])) == 1

    def test_spin_of_difference_vector_spans_sum_zero_space(self):
        for n in (3, 4, 5):
            spec = make_spec("uv", n, 1)
            rep = build_local_rep(
                "upsilon-prime", spec,
                {"s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1},
            )
            perms = [m for g, m in rep.generator_images() if g.kind == "rho"]
            ring = rep.ring
            d12 = Matrix.column(ring, [1, -1] + [0] * (n - 2))
            basis = spin(perms, [d12])
            assert len(basis) == n - 1
            # the span is sum-zero, so e2 - e3 reduces to nothing new
            d23 = Matrix.column(ring, [0, 1, -1] + [0] * (n - 3))
            assert len(spin(perms, basis + [d23])) == n - 1

    def test_spin_of_basis_vector_fills_space(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep(
            "upsilon-prime", spec,
            {"s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1},
        )
        perms = [m for g, m in rep.generator_images() if g.kind == "rho"]
        e1 = Matrix.column(rep.ring, [1, 0, 0])
        assert len(spin(perms, [e1])) == 3

    def test_invariant_check_column_and_row(self):
        spec = make_spec("uv", 3, 2)
        rep = build_local_rep(
            "epsilon1", spec,
            {"r6": 2, "s5_1": 1, "s6_1": 2, "s8_1": 3, "s9_1": 5,
             "s5_2": 2, "s6_2": 1, "s8_2": 1, "s9_2": 1},
        )
        gens = _images(rep)
        e1 = Matrix.column(rep.ring, [1, 0, 0, 0])
        assert invariant_check(gens, e1, "column")
        assert not invariant_check(gens, Matrix.column(rep.ring, [0, 1, 0, 0]), "column")

    def test_invariant_check_works_symbolically(self):
        rep = build_local_rep("epsilon1", make_spec("uv", 3, 2))
        e1 = Matrix.column(rep.ring, [1, 0, 0, 0])
        assert invariant_check(_images(rep), e1, "column")

    def test_invariant_check_rejects_bad_inputs(self):
        ring = PolyRing(("t",))
        m = Matrix.identity(ring, 2)
        with pytest.raises(ValueError):
            invariant_check([m], Matrix.column(ring, [0, 0]), "column")
        with pytest.raises(ValueError):
            invariant_check([m], Matrix.column(ring, [1, 0]), "row")
        with pytest.raises(ValueError):
            invariant_check([m], Matrix.column(ring, [1, 0]), "diagonal")

    @pytest.mark.parametrize("diag, vec, side", [
        ((2, 1), (0, 1, 0), "column"),
        ((2, 1, 1), (0, 1), "row"),
        ((1, 1, 1), (1, 0), "column"),
    ])
    def test_invariant_check_refuses_matrices_of_the_wrong_size(self, diag, vec, side):
        # each of these was once accepted as invariant
        ring = PolyRing(("t",))
        m = Matrix.from_rows(ring, [[x if i == j else 0 for j in range(len(diag))]
                                    for i, x in enumerate(diag)])
        w = (Matrix.column if side == "column" else Matrix.row_vector)(ring, vec)
        shapes = rf"{re.escape(str(w.shape))}.*{re.escape(str(m.shape))}"
        with pytest.raises(ValueError, match=shapes):
            invariant_check([m], w, side)

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_every_shape_is_checked_before_a_verdict(self, symbolic):
        # [g, bad] once returned False at g, before bad's shape was read
        ring = PolyRing(("t",))
        g = Matrix.from_rows(ring, [[1, ring.rf("t") if symbolic else 1], [0, 1]])
        bad = Matrix.identity(ring, 3)
        v = Matrix.column(ring, [0, 1])
        assert not invariant_check([g], v, "column")
        for mats in ([g, bad], [bad, g]):
            with pytest.raises(ValueError, match=r"\(2, 1\).*\(3, 3\)"):
                invariant_check(mats, v, "column")

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_every_ring_is_checked_before_a_verdict(self, symbolic):
        # g fixes the witness's line without a product being formed, so a
        # t-ring g once passed a u-ring witness
        t_ring, u_ring = PolyRing(("t",)), PolyRing(("u",))
        e1 = Matrix.column(u_ring, [u_ring.rf("u") if symbolic else 1, 0])
        g = Matrix.from_rows(t_ring, [[1, 0], [0, 2]])
        h = Matrix.from_rows(u_ring, [[2, 0], [0, 1]])
        assert invariant_check([h], e1, "column")
        for mats in ([g], [g, h], [h, g]):
            with pytest.raises(ValueError, match="different rings"):
                invariant_check(mats, e1, "column")

    def test_span_engines_refuse_symbolic_images(self):
        rep = build_local_rep("upsilon-prime", make_spec("uv", 3, 1))
        e1 = Matrix.column(rep.ring, [1, 0, 0])
        with pytest.raises(ValueError, match="symbolic"):
            burnside_dim(_images(rep))
        with pytest.raises(ValueError, match="symbolic"):
            spin(_images(rep), [e1])


def _view_cases():
    """(family, flavor, n) for every family on every flavor it builds on,
    n = 3..5; c = 2 where the flavor leaves c free."""
    out = []
    for fam in FAMILY_NAMES:
        for flavor in FLAVORS:
            for n in (3, 4, 5):
                try:
                    build_local_rep(fam, make_spec(flavor, n, _FIXED_C.get(flavor, 2)))
                except ValueError:
                    continue
                out.append((fam, flavor, n))
    return out


def _seeded_rep(fam, flavor, n):
    """The family at a seeded Q(i) point off its side conditions."""
    rep = build_local_rep(fam, make_spec(flavor, n, _FIXED_C.get(flavor, 2)))
    rng = random.Random(f"{fam} {flavor} {n}")
    nz = [x for x in range(-4, 5) if x]
    while True:
        point = {p: GaussianRational(rng.choice(nz), rng.choice((0, 0, 1, -1)))
                 for p in rep.params}
        try:
            return specialize(rep, point)
        except ValueError:
            continue


def _scanned(g):
    """A copy of g that finds its off_identity view by a scan."""
    return Matrix(g.ring, g.rows)


class TestOffIdentityViews:
    """``block_embed`` prefills each generator's ``off_identity`` view from
    its block, and ``transpose`` passes it on: the views equal those a scan
    finds, and the engines that read them give identical results."""

    @pytest.mark.parametrize("fam, flavor, n", _view_cases())
    def test_prefilled_and_scanned_views_agree(self, fam, flavor, n):
        rep = _seeded_rep(fam, flavor, n)
        gens = _images(rep)
        copies = [_scanned(g) for g in gens]
        for g, c in zip(gens, copies):
            assert g._off is not None and c._off is None
            assert g.off_identity() == c.off_identity()
            t = g.transpose()
            assert t._off is not None
            assert t.off_identity() == {(j, i): a for (i, j), a in c.off_identity().items()}
        m = rep.degree
        e1 = Matrix.column(rep.ring, [1] + [0] * (m - 1))
        side, w = "column", e1
        if fam in _CRITERION_GROUPS:
            res = reducibility_at(rep)
            if res.witness is not None:
                side, w = res.witness_side, res.witness
        assert burnside_dim(gens) == burnside_dim(copies)
        got, want = spin(gens, [e1]), spin(copies, [e1])
        assert [str(v) for v in got] == [str(v) for v in want]
        assert invariant_check(gens, w, side) == invariant_check(copies, w, side)

    def test_symbolic_views_agree(self):
        rep = build_local_rep("epsilon1", make_spec("uv", 3, 2))
        gens = _images(rep)
        copies = [_scanned(g) for g in gens]
        for g, c in zip(gens, copies):
            assert g.off_identity() == c.off_identity()
            assert g.transpose().off_identity() == {
                (j, i): a for (i, j), a in c.off_identity().items()}
        assert all(g._off_terms is None for g in gens)
        e1 = Matrix.column(rep.ring, [1, 0, 0, 0])
        for mats in (gens, copies, [g.transpose() for g in gens]):
            with pytest.raises(ValueError, match="symbolic"):
                burnside_dim(mats)
            with pytest.raises(ValueError, match="symbolic"):
                spin(mats, [e1])
        for mats in (gens, copies):
            assert invariant_check(mats, e1, "column")
        assert not invariant_check(gens, Matrix.column(rep.ring, [0, 1, 0, 0]), "column")

    @pytest.mark.parametrize("fam, flavor, n", _view_cases())
    def test_cached_terms_are_the_scanned_terms(self, fam, flavor, n):
        # block_embed shifts its block's Gaussian-integer terms into every
        # image and transpose passes them on, for a rep specialized or built
        # at the point
        spec = make_spec(flavor, n, _FIXED_C.get(flavor, 2))
        rep = _seeded_rep(fam, flavor, n)
        for at in (rep, build_local_rep(fam, spec, rep.assignment)):
            for g in _images(at):
                for h in (g, g.transpose()):
                    assert h._off_terms is not None
                    assert h.off_terms() == gaussian_integer_terms(_scanned(h).off_identity())

    def test_reads_follow_the_block(self, monkeypatch):
        # RatFunc tests and reads made by building the generator images,
        # burnside_dim and invariant_check, net of the witness's own reads:
        # the same at both degrees, and at most 4 per entry of each block
        # (its off_identity scan, two constant tests, its Z[i] terms), as
        # every image reads its block's cached terms
        point = {"s1_1": 2, "s2_1": -1, "s3_1": 3, "s4_1": -2}  # row sums 1
        reads = Counter()

        def counted(name):
            fn = getattr(RatFunc, name)

            def wrapper(self):
                reads[name] += 1
                return fn(self)
            return wrapper

        totals = []
        for n in (6, 12):
            spec = make_spec("uv", n, 1)
            rep = build_local_rep("upsilon-prime", spec, point)
            res = reducibility_criterion("upsilon-prime", spec, point)
            with monkeypatch.context() as mp:
                for name in ("is_zero", "is_one", "is_constant", "constant_value"):
                    mp.setattr(RatFunc, name, counted(name))
                reads.clear()
                invariant_check([], res.witness, res.witness_side)
                witness = sum(reads.values())
                reads.clear()
                gens = _images(rep)
                assert burnside_dim(gens) == n * n - n + 1
                assert invariant_check(gens, res.witness, res.witness_side)
                totals.append(sum(reads.values()) - witness)
        blocks, k = 1 + len(rep.sigma_blocks), rep.block_size
        assert totals[0] == totals[1] <= 4 * k * k * blocks


class TestReducibilityCriterion:
    def test_row_sum_branch_with_column_witness(self):
        spec = make_spec("uv", 3, 1)
        res = reducibility_criterion(
            "upsilon-prime", spec, {"s1_1": 2, "s2_1": -1, "s3_1": 3, "s4_1": -2}
        )
        assert res.verdict == "reducible" and res.witness_side == "column"
        rep = build_local_rep(
            "upsilon-prime", spec, {"s1_1": 2, "s2_1": -1, "s3_1": 3, "s4_1": -2}
        )
        assert invariant_check(_images(rep), res.witness, "column")

    def test_column_sum_branch_with_row_witness(self):
        spec = make_spec("uv", 3, 1)
        res = reducibility_criterion(
            "upsilon-prime", spec, {"s1_1": 2, "s2_1": 3, "s3_1": -1, "s4_1": -2}
        )
        assert res.verdict == "reducible" and res.witness_side == "row"

    def test_generic_point_is_irreducible(self):
        res = reducibility_criterion(
            "upsilon-prime", make_spec("uv", 3, 1),
            {"s1_1": 1, "s2_1": 2, "s3_1": 3, "s4_1": 4},
        )
        assert res.verdict == "irreducible" and res.witness is None

    def test_mixed_types_quantify_over_all(self):
        spec = make_spec("uv", 3, 2)
        params = {
            "s1_1": 2, "s2_1": -1, "s3_1": 3, "s4_1": -2,  # on the row locus
            "s1_2": 1, "s2_2": 2, "s3_2": 3, "s4_2": 4,    # off it
        }
        res = reducibility_criterion("upsilon-prime", spec, params)
        assert res.verdict == "irreducible"
        assert any("all 2 crossing types" in d for d in res.details)

    def test_omega_prime_loci(self):
        spec = make_spec("uw", 3, 1)
        on1 = {"r2": 3, "s2_1": 3, "s3_1": GaussianRational(1) / 3}
        res = reducibility_criterion("omega1p", spec, on1)
        assert res.verdict == "reducible" and res.witness_side == "column"
        off1 = {"r2": 3, "s2_1": 2, "s3_1": 5}
        assert reducibility_criterion("omega1p", spec, off1).verdict == "irreducible"
        on2 = {"r2": 2, "s2_1": 4, "s4_1": -1}  # s2/r2 + s4 = 1
        res2 = reducibility_criterion("omega2p", spec, on2)
        assert res2.verdict == "reducible" and res2.witness_side == "row"
        on3 = {"r2": 2, "s1_1": 3, "s2_1": -4}  # s1 + s2/r2 = 1
        res3 = reducibility_criterion("omega3p", spec, on3)
        assert res3.verdict == "reducible" and res3.witness_side == "column"

    def test_epsilon_families_always_reducible(self):
        spec = make_spec("uv", 4, 2)
        res = reducibility_criterion(
            "epsilon3", spec, {"r6": 2, "s4_1": 1, "s5_1": 3, "s4_2": 2, "s5_2": 1}
        )
        assert res.verdict == "reducible"
        col = [row[0].constant_value() for row in res.witness.rows]
        assert col[1] == GaussianRational(1) / 2  # geometric in 1/r6

    def test_epsilon4_dual_reading_is_recorded(self):
        spec = make_spec("uv", 4, 2)
        res = reducibility_criterion(
            "epsilon4", spec, {"r2": 2, "s5_1": 3, "s8_1": 1, "s5_2": 1, "s8_2": 2}
        )
        assert res.verdict == "reducible" and res.witness_side == "row"
        joined = " ".join(res.details)
        assert "r2^-1" in joined and "invariant: True" in joined
        row = [a.constant_value() for a in res.witness.rows[0]]
        assert row == [GaussianRational(2) ** j for j in range(5)]

    def test_families_without_closed_form_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            reducibility_criterion(
                "upsilon", make_spec("uv", 3, 1),
                {"r2": 1, "s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1},
            )

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_criterion_matches_burnside_oracle(self, seed):
        rng = random.Random(seed)
        spec = make_spec("uv", 3, 1)
        params = {k: rng.choice([x for x in range(-5, 6) if x])
                  for k in ("s1_1", "s2_1", "s3_1", "s4_1")}
        try:
            rep = build_local_rep("upsilon-prime", spec, params)
        except ValueError:
            return  # singular crossing block; not a representation
        res = reducibility_criterion("upsilon-prime", spec, params)
        dim = burnside_dim(_images(rep))
        assert (res.verdict == "irreducible") == (dim == 9)


def _reference_criterion(family, spec, params):
    """The if/elif criterion that ``_CRITERIA`` replaced, kept as the
    reference; it calls ``invariant_check`` through the module so that the
    differential test can count its calls."""
    check = uvbraid.analysis.invariant_check
    name = canonical_family(family)
    rep = build_local_rep(name, spec, params)
    point = rep.assignment
    ring = rep.ring
    m = rep.degree
    details = []
    if spec.c > 1 and name.startswith(("omega", "upsilon")):
        details.append(
            f"branch conditions quantified over all {spec.c} crossing types"
        )

    def val(nm):
        return point[nm]

    one = G_ONE
    witness_side = None
    witness = None
    reducible = False
    types = range(1, spec.c + 1)

    if name == "upsilon-prime":
        row_branch = all(
            val(f"s1_{t}") + val(f"s2_{t}") == one
            and val(f"s3_{t}") + val(f"s4_{t}") == one
            for t in types
        )
        col_branch = all(
            val(f"s1_{t}") + val(f"s3_{t}") == one
            and val(f"s2_{t}") + val(f"s4_{t}") == one
            for t in types
        )
        details.append(f"row sums at 1: {row_branch}; column sums at 1: {col_branch}")
        reducible = row_branch or col_branch
        if row_branch:
            witness_side, witness = "column", Matrix.column(ring, [1] * m)
        elif col_branch:
            witness_side, witness = "row", Matrix.row_vector(ring, [1] * m)
    elif name == "omega1p":
        on = all(
            val(f"s2_{t}") == val("r2") and val(f"s3_{t}") * val("r2") == one
            for t in types
        )
        details.append(f"s2 = r2 and s3 = 1/r2 for all types: {on}")
        reducible = on
        if on:
            witness_side, witness = "column", Matrix.column(ring, [1] * m)
    elif name == "omega2p":
        on = all(val(f"s2_{t}") / val("r2") + val(f"s4_{t}") == one for t in types)
        details.append(f"s2/r2 + s4 = 1 for all types: {on}")
        reducible = on
        if on:
            witness_side, witness = "row", Matrix.row_vector(ring, [1] * m)
    elif name == "omega3p":
        on = all(val(f"s1_{t}") + val(f"s2_{t}") / val("r2") == one for t in types)
        details.append(f"s1 + s2/r2 = 1 for all types: {on}")
        reducible = on
        if on:
            witness_side, witness = "column", Matrix.column(ring, [1] * m)
    elif name == "epsilon1":
        reducible = True
        witness_side = "column"
        witness = Matrix.column(ring, [1] + [0] * (m - 1))
        details.append("first basis column is always invariant")
    elif name == "epsilon2":
        reducible = True
        witness_side = "column"
        witness = Matrix.column(ring, [0] * (m - 1) + [1])
        details.append("last basis column is always invariant")
    elif name == "epsilon3":
        reducible = True
        witness_side = "column"
        r6 = val("r6")
        witness = Matrix.column(ring, [r6 ** (-j) for j in range(m)])
        details.append("geometric column (1, r6^-1, ..., r6^-n) is invariant")
    elif name == "epsilon4":
        reducible = True
        r2 = val("r2")
        gens = _images(rep)
        inverse_reading = Matrix.row_vector(ring, [r2 ** (-j) for j in range(m)])
        direct_reading = Matrix.row_vector(ring, [r2 ** j for j in range(m)])
        inv_ok = check(gens, inverse_reading, "row")
        dir_ok = check(gens, direct_reading, "row")
        details.append(
            f"row (1, r2^-1, ..., r2^-n) invariant: {inv_ok}; "
            f"row (1, r2, ..., r2^n) invariant: {dir_ok}"
        )
        details.append(
            "a row in powers of r6 is not expressible: this family has no r6 parameter"
        )
        witness_side = "row"
        witness = direct_reading if dir_ok else inverse_reading
        assert dir_ok or inv_ok

    if reducible and witness is not None:
        assert check(_images(rep), witness, witness_side)
        details.append("witness re-verified invariant under every generator image")
    return (
        "reducible" if reducible else "irreducible",
        witness_side,
        None if witness is None else str(witness),
        details,
    )


_CRITERION_GROUPS = {
    "upsilon-prime": "uv", "omega1p": "uw", "omega2p": "uw", "omega3p": "uw",
    "epsilon1": "uv", "epsilon2": "uv", "epsilon3": "uv", "epsilon4": "uv",
}
_SMALL = [x for x in range(-3, 4) if x] + [Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def criterion_points(draw):
    """A family, a group and a point that is on or off the family's locus
    for each crossing type independently (for upsilon-prime: on the row,
    the column or both loci); epsilon4 points put r2 at 1, -1 or i half of
    the time, where its two row readings agree or only one holds."""
    family = draw(st.sampled_from(sorted(_CRITERION_GROUPS)))
    c = 2 if family.startswith("epsilon") else draw(st.sampled_from([1, 2]))
    spec = make_spec(_CRITERION_GROUPS[family], draw(st.sampled_from([3, 4])), c)

    def q():
        re = draw(st.sampled_from(_SMALL))
        return GaussianRational(re, draw(st.sampled_from([0, 0, 1, -1])))

    rep = build_local_rep(family, spec)
    point = {p: q() for p in rep.params}
    if family == "epsilon4" and draw(st.booleans()):
        point["r2"] = GaussianRational(*draw(st.sampled_from([(1, 0), (-1, 0), (0, 1)])))
    for t in range(1, c + 1):
        locus = draw(st.sampled_from(["off", "rows", "columns", "both"]))
        if locus == "off":
            continue
        v = {p[:-2]: point[p] for p in point if p.endswith(f"_{t}")}
        r2 = point.get("r2")
        if family == "upsilon-prime":
            if locus == "rows":
                v["s2"], v["s4"] = 1 - v["s1"], 1 - v["s3"]
            elif locus == "columns":
                v["s3"], v["s4"] = 1 - v["s1"], 1 - v["s2"]
            else:
                v["s2"] = v["s3"] = 1 - v["s1"]
                v["s4"] = v["s1"]
        elif family == "omega1p":
            v["s2"], v["s3"] = r2, 1 / r2
        elif family == "omega2p":
            v["s4"] = 1 - v["s2"] / r2
        elif family == "omega3p":
            v["s1"] = 1 - v["s2"] / r2
        point.update({f"{k}_{t}": x for k, x in v.items()})
    return family, spec, point


class TestCriterionTableAgainstReference:
    @given(criterion_points())
    @settings(max_examples=150, deadline=None)
    def test_same_result_and_no_more_checks(self, case):
        family, spec, point = case
        calls = []
        real = uvbraid.analysis.invariant_check

        def counted(*args):
            calls.append(args)
            return real(*args)

        with unittest.mock.patch.object(uvbraid.analysis, "invariant_check", counted):
            try:
                want = _reference_criterion(family, spec, point)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    reducibility_criterion(family, spec, point)
                return
            ref_calls = len(calls)
            del calls[:]
            res = reducibility_criterion(family, spec, point)
        got = (res.verdict, res.witness_side,
               None if res.witness is None else str(res.witness), res.details)
        assert got == want
        assert len(calls) <= ref_calls
        if family == "epsilon4":
            assert len(calls) == 2

    def test_symbolic_parameters_are_refused(self):
        with pytest.raises(ValueError, match="needs a parameter point"):
            reducibility_criterion("upsilon-prime", make_spec("uv", 3, 1), "symbolic")


class TestFactoring:
    def test_welded_relator_survives_crossing_trivial_map(self):
        uw = make_spec("uw", 4, 1)
        wr1 = [r for r in relations(uw) if r.tag == "WR1[i=1,t=1]"][0]
        out = factor_check(wr1, uw, "piK")
        assert out.verdict == "distinguishes"
        assert (out.lhs_image, out.rhs_image) == ("(1 2)", "(2 3)")
        assert factor_check(wr1, uw, "piP").verdict == "kills"

    def test_relator_word_form(self):
        uw = make_spec("uw", 4, 1)
        wr1 = [r for r in relations(uw) if r.tag == "WR1[i=1,t=1]"][0]
        out = factor_check(wr1.relator(), uw, "piK")
        assert out.verdict == "distinguishes"
        assert out.rhs_image == "id"

    def test_splitting_map_on_forbidden_moves(self):
        spec = make_spec("uv", 3, 2)
        moves = forbidden_moves(spec)
        assert [m.tag for m in moves] == [
            "FM1[i=1,t=1]", "FM2[i=1,t=1]", "FM1[i=1,t=2]", "FM2[i=1,t=2]"
        ]
        for m in moves:
            out = factor_check(m, spec, "phi", t0=1)
            assert out.verdict == "distinguishes"

    def test_splitting_map_kills_defining_relations(self):
        spec = make_spec("uv", 4, 2)
        for rel in relations(spec):
            assert factor_check(rel, spec, "phi", t0=2).verdict == "kills", rel.tag

    def test_unknown_map_rejected(self):
        spec = make_spec("uv", 3, 1)
        with pytest.raises(ValueError):
            factor_check(Word(), spec, "piQ")

    def test_forbidden_move_shapes(self):
        spec = make_spec("uv", 4, 1)
        fm1 = forbidden_moves(spec)[0]
        assert fm1.lhs == word(rho(1), sigma(2, 1), sigma(1, 1))
        assert fm1.rhs == word(sigma(2, 1), sigma(1, 1), rho(2))
        fm2 = forbidden_moves(spec)[1]
        assert fm2.lhs == word(rho(2), sigma(1, 1), sigma(2, 1))
        assert fm2.rhs == word(sigma(1, 1), sigma(2, 1), rho(1))
