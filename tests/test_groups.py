"""Group presentations: flavor table, relation enumeration, word parsing and
rewriting, permutation/splitting/abelianization homomorphisms."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uvbraid
from uvbraid import analysis, groups
from uvbraid.groups import (
    _FIXED_C,
    FLAVORS,
    GroupSpec,
    Permutation,
    Relation,
    Word,
    abelianize,
    forbidden_moves,
    free_reduce,
    make_spec,
    parse_word,
    perm_image,
    phi,
    relations,
    rho,
    sigma,
    word,
)


def random_word(spec, rng, max_len=8):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            letters.append((rho(rng.randint(1, spec.n - 1)), rng.choice((1, -1))))
        else:
            letters.append(
                (sigma(rng.randint(1, spec.n - 1), rng.randint(1, spec.c)),
                 rng.choice((1, -1)))
            )
    return Word(tuple(letters))


class TestSpecs:
    def test_universal_virtual(self):
        s = make_spec("uv", 3, 1)
        assert (s.n, s.c, s.welded) == (3, 1, False)
        assert not s.braid_types and not s.involutive_types and not s.singular

    def test_welded_twisted_flags(self):
        s = make_spec("wt", 4, 1)
        assert s.welded and s.involutive_types == frozenset({1})
        assert not s.braid_types

    def test_singular_flags(self):
        s = make_spec("wsg", 4, 2)
        assert s.welded and s.singular and s.braid_types == frozenset({1, 2})
        v = make_spec("vsg", 4, 2)
        assert not v.welded and v.singular

    def test_marked_flavors_flag_one_type(self):
        s = make_spec("mwb", 4, 3)
        assert s.c == 3 and s.braid_types == frozenset({3}) and s.welded
        assert not make_spec("mvb", 4, 2).welded

    def test_fixed_c_flavors_reject_mismatch(self):
        assert make_spec("wb", 3).c == 1
        with pytest.raises(ValueError):
            make_spec("wb", 3, 2)
        with pytest.raises(ValueError):
            make_spec("uv", 3)  # c is required here

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_spec("uv", 1, 1)
        with pytest.raises(ValueError):
            make_spec("uv", 3, 0)

    # (flavor, c) -> (welded, braided types, involutive types, singular), as
    # the flavor-by-flavor branches of an earlier make_spec set them; a
    # flavor that fixes c appears at that c only
    _FLAGS = {
        ("uv", 1): (False, set(), set(), False),
        ("uv", 2): (False, set(), set(), False),
        ("uv", 3): (False, set(), set(), False),
        ("uw", 1): (True, set(), set(), False),
        ("uw", 2): (True, set(), set(), False),
        ("uw", 3): (True, set(), set(), False),
        ("vb", 1): (False, {1}, set(), False),
        ("wb", 1): (True, {1}, set(), False),
        ("vt", 1): (False, set(), {1}, False),
        ("wt", 1): (True, set(), {1}, False),
        ("vsg", 2): (False, {1, 2}, set(), True),
        ("wsg", 2): (True, {1, 2}, set(), True),
        ("mvb", 1): (False, {1}, set(), False),
        ("mvb", 2): (False, {2}, set(), False),
        ("mvb", 3): (False, {3}, set(), False),
        ("mwb", 1): (True, {1}, set(), False),
        ("mwb", 2): (True, {2}, set(), False),
        ("mwb", 3): (True, {3}, set(), False),
    }

    _FIXED = {"vb": 1, "wb": 1, "vt": 1, "wt": 1, "vsg": 2, "wsg": 2}

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_flags_and_fixed_c_per_flavor(self, flavor):
        fixed = self._FIXED.get(flavor)
        assert _FIXED_C.get(flavor) == fixed
        if fixed is not None:
            assert make_spec(flavor, 3).c == fixed
        for c in (1, 2, 3):
            if fixed not in (None, c):
                with pytest.raises(ValueError, match=f"{flavor} fixes c = {fixed}; got {c}"):
                    make_spec(flavor, 3, c)
                continue
            s = make_spec(flavor, 3, c)
            got = s.welded, s.braid_types, s.involutive_types, s.singular
            assert got == self._FLAGS[flavor, c]

    def test_spec_is_flavor_n_and_c(self):
        assert [f.name for f in dataclasses.fields(GroupSpec)] == ["flavor", "n", "c"]
        assert make_spec("vb", 3) == GroupSpec("vb", 3, 1)
        assert hash(make_spec("vb", 3)) == hash(GroupSpec("vb", 3, 1))
        with pytest.raises(ValueError, match="vb fixes c = 1; got 2"):
            GroupSpec("vb", 3, 2)
        with pytest.raises(TypeError):
            GroupSpec("uv", 3, 1, welded=True)
        with pytest.raises(ValueError, match="unknown flavor"):
            GroupSpec("xx", 3, 1)


class TestRelations:
    def test_count_uv_3_1(self):
        tags = [r.tag for r in relations(make_spec("uv", 3, 1))]
        assert tags == ["PR1[i=1]", "PR3[i=1]", "PR3[i=2]", "MR2[i=1,t=1]"]

    def test_count_uv_4_2(self):
        rels = relations(make_spec("uv", 4, 2))
        assert len(rels) == 18
        by_family = {}
        for r in rels:
            by_family.setdefault(r.tag.split("[")[0], []).append(r)
        counts = {k: len(v) for k, v in by_family.items()}
        assert counts == {"PR1": 2, "PR2": 1, "PR3": 3, "CR": 4, "MR1": 4, "MR2": 4}

    def test_count_uw_3_1(self):
        rels = relations(make_spec("uw", 3, 1))
        assert len(rels) == 5
        assert rels[-1].tag == "WR1[i=1,t=1]"

    def test_no_duplicates_anywhere(self):
        for flavor in FLAVORS:
            spec = make_spec(flavor, 4, 2 if flavor not in ("vb", "wb", "vt", "wt") else None)
            rels = relations(spec)
            assert len({r.tag for r in rels}) == len(rels)
            assert len({(r.lhs, r.rhs) for r in rels}) == len(rels)

    def test_braid_and_involutive_families_present(self):
        tags = {r.tag.split("[")[0] for r in relations(make_spec("wb", 3))}
        assert "BR" in tags and "WR1" in tags
        tags = {r.tag.split("[")[0] for r in relations(make_spec("vt", 3))}
        assert "INV" in tags and "WR1" not in tags

    def test_singular_families_present(self):
        tags = {r.tag.split("[")[0] for r in relations(make_spec("vsg", 3))}
        assert {"SG1", "SG2", "SG3", "BR"} <= tags

    def test_relator_of_involution(self):
        pr3 = [r for r in relations(make_spec("uv", 3, 1)) if r.tag == "PR3[i=1]"][0]
        assert pr3.relator() == word(rho(1), rho(1))


def _reference_relations(spec):
    """The presentation written out as one loop nest per family: the
    enumeration ``relations`` replaced, kept as its reference."""
    n, c = spec.n, spec.c
    out = []
    for i in range(1, n - 1):
        out.append(
            Relation(f"PR1[i={i}]", word(rho(i), rho(i + 1), rho(i)),
                     word(rho(i + 1), rho(i), rho(i + 1)))
        )
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            out.append(Relation(f"PR2[i={i},j={j}]", word(rho(i), rho(j)), word(rho(j), rho(i))))
    for i in range(1, n):
        out.append(Relation(f"PR3[i={i}]", word(rho(i), rho(i)), Word()))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            for t in range(1, c + 1):
                for l in range(1, c + 1):
                    out.append(
                        Relation(f"CR[i={i},j={j},t={t},l={l}]", word(sigma(i, t), sigma(j, l)),
                                 word(sigma(j, l), sigma(i, t)))
                    )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                for t in range(1, c + 1):
                    out.append(
                        Relation(f"MR1[i={i},j={j},t={t}]", word(sigma(i, t), rho(j)),
                                 word(rho(j), sigma(i, t)))
                    )
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            out.append(
                Relation(f"MR2[i={i},t={t}]", word(rho(i), rho(i + 1), sigma(i, t)),
                         word(sigma(i + 1, t), rho(i), rho(i + 1)))
            )
    if spec.welded:
        for i in range(1, n - 1):
            for t in range(1, c + 1):
                out.append(
                    Relation(f"WR1[i={i},t={t}]", word(rho(i), sigma(i + 1, t), sigma(i, t)),
                             word(sigma(i + 1, t), sigma(i, t), rho(i + 1)))
                )
    for t in sorted(spec.braid_types):
        for i in range(1, n - 1):
            out.append(
                Relation(f"BR[i={i},t={t}]", word(sigma(i, t), sigma(i + 1, t), sigma(i, t)),
                         word(sigma(i + 1, t), sigma(i, t), sigma(i + 1, t)))
            )
    for t in sorted(spec.involutive_types):
        for i in range(1, n):
            out.append(Relation(f"INV[i={i},t={t}]", word(sigma(i, t), sigma(i, t)), Word()))
    if spec.singular:
        for i in range(1, n):
            out.append(
                Relation(f"SG1[i={i}]", word(sigma(i, 1), sigma(i, 2)),
                         word(sigma(i, 2), sigma(i, 1)))
            )
        for i in range(1, n - 1):
            out.append(
                Relation(f"SG2[i={i}]", word(sigma(i, 1), sigma(i + 1, 1), sigma(i, 2)),
                         word(sigma(i + 1, 2), sigma(i, 1), sigma(i + 1, 1)))
            )
            out.append(
                Relation(f"SG3[i={i}]", word(sigma(i + 1, 1), sigma(i, 1), sigma(i + 1, 2)),
                         word(sigma(i, 2), sigma(i + 1, 1), sigma(i, 1)))
            )
    return out


def _reference_forbidden_moves(spec):
    out = []
    for i in range(1, spec.n - 1):
        for t in range(1, spec.c + 1):
            out.append(
                Relation(f"FM1[i={i},t={t}]", word(rho(i), sigma(i + 1, t), sigma(i, t)),
                         word(sigma(i + 1, t), sigma(i, t), rho(i + 1)))
            )
            out.append(
                Relation(f"FM2[i={i},t={t}]", word(rho(i + 1), sigma(i, t), sigma(i + 1, t)),
                         word(sigma(i, t), sigma(i + 1, t), rho(i)))
            )
    return out


class TestSchemaAgainstReference:
    """``relations`` and ``forbidden_moves`` place the ``_SCHEMA`` rows; they
    must give the reference loops' relations, tags, words and order, on
    every valid spec of the flavor at n = 2..8 and c = 1..3."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_same_relations_in_the_same_order(self, flavor):
        checked = 0
        for n in range(2, 9):
            for c in range(1, 4):
                try:
                    spec = make_spec(flavor, n, c)
                except ValueError:  # a fixed-c flavor at another c
                    continue
                assert relations(spec) == _reference_relations(spec), spec
                assert forbidden_moves(spec) == _reference_forbidden_moves(spec), spec
                checked += 1
        assert checked == (7 if flavor in _FIXED_C else 21)

    def test_importable_from_every_module(self):
        assert uvbraid.relations is groups.relations is analysis.relations
        assert uvbraid.forbidden_moves is groups.forbidden_moves is analysis.forbidden_moves


class TestParsing:
    def test_grammar_roundtrip(self):
        spec = make_spec("uv", 3, 2)
        w = parse_word("r1 s1,1^-1 r2 s2,2", spec)
        assert str(w) == "r1 s1,1^-1 r2 s2,2"
        assert str(w.inverse()) == "s2,2^-1 r2^-1 s1,1 r1^-1"

    def test_empty_word(self):
        spec = make_spec("uv", 3, 2)
        assert parse_word("", spec) == Word()
        assert str(Word()) == "1"

    def test_type_out_of_range(self):
        with pytest.raises(ValueError, match="type index 3"):
            parse_word("s1,3", make_spec("uv", 3, 2))

    def test_strand_out_of_range(self):
        with pytest.raises(ValueError, match="strand"):
            parse_word("r3", make_spec("uv", 3, 2))

    @pytest.mark.parametrize("token", ["s1,0", "s1,3"])
    def test_type_index_message_names_the_range(self, token):
        with pytest.raises(ValueError, match=r"type index \d out of range 1\.\.2 in"):
            parse_word(token, make_spec("uv", 3, 2))

    @pytest.mark.parametrize("token", ["r0", "r3", "s0,1", "s3,2"])
    def test_strand_index_message_is_the_same_for_both_token_kinds(self, token):
        with pytest.raises(ValueError, match=r"strand index \d out of range 1\.\.2 in"):
            parse_word(token, make_spec("uv", 3, 2))

    def test_malformed_token(self):
        spec = make_spec("uv", 3, 2)
        for bad in ("q1", "s1", "r1^2", "s1,1^1", "r-1"):
            with pytest.raises(ValueError):
                parse_word(bad, spec)


class TestRewriting:
    def test_involution_cancels(self):
        spec = make_spec("uv", 3, 1)
        assert free_reduce(parse_word("r1 r1", spec), spec) == Word()

    def test_flagged_involutive_crossings_cancel(self):
        wt = make_spec("wt", 3, 1)
        assert free_reduce(parse_word("s1,1 s1,1", wt), wt) == Word()
        uv = make_spec("uv", 3, 1)
        assert free_reduce(parse_word("s1,1 s1,1", uv), uv) != Word()

    def test_inverse_pair_cancels_through(self):
        spec = make_spec("uv", 2, 2)
        w = parse_word("s1,1 r1 r1 s1,2", spec)
        assert str(free_reduce(w, spec)) == "s1,1 s1,2"

    def test_normal_form_examples(self):
        spec = make_spec("uv", 2, 2)
        assert str(free_reduce(parse_word("r1 s1,1 r1", spec), spec)) == "r1 s1,1 r1"
        assert str(free_reduce(parse_word("s1,1 r1 r1 s1,2", spec), spec)) == "s1,1 s1,2"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80)
    def test_free_reduce_idempotent_and_shorter(self, seed):
        spec = make_spec("uw", 3, 2)
        w = random_word(spec, random.Random(seed))
        r = free_reduce(w, spec)
        assert len(r.letters) <= len(w.letters)
        assert free_reduce(r, spec) == r

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80)
    def test_normal_form_separates_exactly_trivial_quotients(self, seed):
        spec = make_spec("uv", 2, 2)
        rng = random.Random(seed)
        w, v = random_word(spec, rng), random_word(spec, rng)
        same = free_reduce(w, spec) == free_reduce(v, spec)
        cancels = free_reduce(w * v.inverse(), spec) == Word()
        assert same == cancels


class TestPermutations:
    def test_composition_order_matches_matrices(self):
        # (p*q)(x) = p(q(x)): the right factor acts first
        p = Permutation.transposition(3, 1)
        q = Permutation.transposition(3, 2)
        assert (p * q)(1) == 2
        assert (p * q)(3) == 1

    def test_cycle_notation(self):
        p = Permutation((2, 3, 1))
        assert str(p) == "(1 2 3)"
        assert str(Permutation.identity(4)) == "id"

    @given(st.integers(0, 10 ** 6))
    def test_inverse(self, seed):
        rng = random.Random(seed)
        images = list(range(1, 6))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert (p * p.inverse()).is_identity()

    def test_image_of_mixed_word(self):
        spec = make_spec("uv", 3, 1)
        w = parse_word("r1 s1,1 r2", spec)
        assert str(perm_image(w, spec, "piK")) == "(1 2 3)"
        assert perm_image(w, spec, "piK")(1) == 2
        assert str(perm_image(w, spec, "piP")) == "(2 3)"

    def test_coxeter_slice_check_rejects_crossings(self):
        spec = make_spec("uv", 3, 1)
        pure = parse_word("r1 r2 r1", spec)
        assert perm_image(pure, spec, "iota_check") == perm_image(pure, spec, "piP")
        with pytest.raises(ValueError, match="pure-rho"):
            perm_image(parse_word("s1,1", spec), spec, "iota_check")

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_perm_maps_are_homomorphisms(self, seed):
        spec = make_spec("uv", 4, 2)
        rng = random.Random(seed)
        w, v = random_word(spec, rng), random_word(spec, rng)
        for which in ("piP", "piK"):
            assert perm_image(w * v, spec, which) == perm_image(w, spec, which) * perm_image(v, spec, which)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20)
    def test_perm_maps_are_the_products_of_their_transpositions(self, seed):
        spec = make_spec("uv", 200, 2)
        rng = random.Random(seed)
        w = random_word(spec, rng, max_len=60)
        pure = Word(tuple((g, e) for g, e in w.letters if g.kind == "rho"))
        for which, word_, kept in (
            ("piP", w, ("rho", "sigma")), ("piK", w, ("rho",)), ("iota_check", pure, ("rho",))
        ):
            want = Permutation.identity(spec.n)
            for g, _e in word_.letters:
                if g.kind in kept:
                    want = want * Permutation.transposition(spec.n, g.index)
            assert perm_image(word_, spec, which) == want, which


class TestSplittingMap:
    def test_example(self):
        spec = make_spec("uv", 3, 1)
        im = phi(parse_word("r1 s2,1 s1,1", spec), 1, spec)
        assert im.count == 2 and str(im.perm) == "(1 2)"

    def test_marker_type_counts_signed(self):
        spec = make_spec("uv", 3, 2)
        im = phi(parse_word("s1,1 s1,1^-1 s1,2", spec), 1, spec)
        assert im.count == 0 and im.perm.is_identity()

    def test_bad_marker_rejected(self):
        spec = make_spec("uv", 3, 2)
        with pytest.raises(ValueError):
            phi(Word(), 3, spec)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_homomorphism(self, seed):
        spec = make_spec("uv", 3, 2)
        rng = random.Random(seed)
        w, v = random_word(spec, rng), random_word(spec, rng)
        a, b, c = phi(w, 1, spec), phi(v, 1, spec), phi(w * v, 1, spec)
        assert c.count == a.count + b.count
        assert c.perm == a.perm * b.perm


class TestAbelianization:
    def test_example(self):
        spec = make_spec("uw", 3, 2)
        im = abelianize(parse_word("s1,1 s2,1 r1 r2 r1", spec), spec)
        assert im.sigma_exponents == (2, 0)
        assert im.rho_parity == 1

    def test_rejects_involutive_crossing_flavors(self):
        wt = make_spec("wt", 3, 1)
        with pytest.raises(ValueError):
            abelianize(parse_word("s1,1", wt), wt)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_additive(self, seed):
        spec = make_spec("uw", 3, 2)
        rng = random.Random(seed)
        w, v = random_word(spec, rng), random_word(spec, rng)
        assert abelianize(w * v, spec) == abelianize(w, spec) + abelianize(v, spec)


class TestQuotientCompatibility:
    """The permutation maps respect every enumerated relation, with the one
    genuine exception: the welded relation survives the crossing-trivial map."""

    def _all_specs(self):
        out = []
        for flavor in FLAVORS:
            c = None if flavor in ("vb", "wb", "vt", "wt", "vsg", "wsg") else 2
            out.append(make_spec(flavor, 4, c))
        return out

    def test_full_twist_map_kills_every_relation(self):
        for spec in self._all_specs():
            for rel in relations(spec):
                assert perm_image(rel.lhs, spec, "piP") == perm_image(rel.rhs, spec, "piP"), rel.tag

    def test_crossing_trivial_map_kills_all_but_the_welded_relation(self):
        for spec in self._all_specs():
            for rel in relations(spec):
                same = perm_image(rel.lhs, spec, "piK") == perm_image(rel.rhs, spec, "piK")
                if rel.tag.startswith("WR1"):
                    assert not same, f"{rel.tag} unexpectedly killed"
                else:
                    assert same, rel.tag
