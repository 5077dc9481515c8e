"""Local representation families: block tables, embedding, specialization,
word evaluation, and diagonal conjugation equivalences."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import uvbraid
from uvbraid.groups import make_spec, parse_word, rho, sigma
from uvbraid.matrices import Matrix, block_embed
from uvbraid.reps import (
    FAMILY_NAMES,
    build_local_rep,
    canonical_family,
    conjugation_equivalence,
    eval_word,
    generic_rep,
    specialize,
)
from uvbraid.scalars import GaussianRational


def _entry_strings(mat):
    return [[str(x) for x in row] for row in mat.rows]


_FAMILIES_GOLDEN = Path(__file__).parent / "data" / "families.json"

# family -> homes (flavor, n, c) it is built over in the golden file
_GOLDEN_HOMES = {
    "upsilon": [("uv", 3, 1), ("uv", 3, 2), ("uw", 4, 3)],
    "upsilon-prime": [("uv", 3, 1), ("uv", 4, 2), ("vt", 3, None)],
    "epsilon1": [("uv", 4, 2), ("uw", 3, 2)],
    "epsilon2": [("uv", 4, 2), ("vsg", 3, None)],
    "epsilon3": [("uv", 4, 2), ("uw", 3, 2)],
    "epsilon4": [("uv", 4, 2), ("uw", 3, 2)],
    "omega1": [("uw", 3, 1), ("uw", 3, 2)],
    "omega2": [("uw", 3, 1), ("uw", 4, 2)],
    "omega3": [("uw", 3, 1), ("mwb", 3, 2)],
    "omega1p": [("uw", 3, 1), ("uw", 3, 2)],
    "omega2p": [("uw", 3, 1), ("uw", 4, 2)],
    "omega3p": [("uw", 3, 1), ("wb", 3, None)],
    "burau": [("vb", 3, None), ("mvb", 3, 2), ("vsg", 4, None)],
    "f-rep": [("vb", 3, None), ("mvb", 4, 3), ("vsg", 3, None)],
}

# homes each family refuses, with the message it gives
_GOLDEN_REFUSALS = [
    ("epsilon1", ("uv", 3, 1)),
    ("omega1", ("uv", 3, 1)),
    ("burau", ("uv", 3, 1)),
]


def _family_dump() -> str:
    """Ring variables, parameters, blocks and side conditions of every
    family at its golden homes, and the refusals, as stable JSON."""
    built = {}
    for fam in FAMILY_NAMES:
        for flavor, n, c in _GOLDEN_HOMES[fam]:
            rep = build_local_rep(fam, make_spec(flavor, n, c))
            built[f"{fam} over {rep.spec.describe()}"] = {
                "ring": list(rep.ring.vars),
                "params": list(rep.params),
                "rho_block": None if rep.rho_block is None else str(rep.rho_block),
                "sigma_blocks": {
                    str(t): str(b) for t, b in sorted(rep.sigma_blocks.items())
                },
                "side_conditions": [str(x) for x in rep.side_conditions],
            }
    refused = {}
    for fam, home in _GOLDEN_REFUSALS:
        spec = make_spec(*home)
        with pytest.raises(ValueError) as exc:
            build_local_rep(fam, spec)
        refused[f"{fam} over {spec.describe()}"] = str(exc.value)
    return json.dumps({"built": built, "refused": refused}, indent=2) + "\n"


class TestFamilyTables:
    def test_canonical_names(self):
        assert canonical_family("Upsilon_Prime") == "upsilon-prime"
        assert canonical_family("omega2-prime") == "omega2p"
        assert canonical_family("frep") == "f-rep"
        with pytest.raises(ValueError):
            canonical_family("nope")

    def test_upsilon_blocks(self):
        rep = build_local_rep("upsilon", make_spec("uv", 3, 1))
        assert _entry_strings(rep.rho_block) == [["0", "r2"], ["1/(r2)", "0"]]
        assert _entry_strings(rep.sigma_blocks[1]) == [
            ["s1_1", "s2_1"],
            ["s3_1", "s4_1"],
        ]
        assert {str(c) for c in rep.side_conditions} == {"r2", "s1_1*s4_1 - s2_1*s3_1"}

    def test_upsilon_prime_has_constant_virtual_block(self):
        rep = build_local_rep("upsilon-prime", make_spec("uv", 3, 1))
        assert _entry_strings(rep.rho_block) == [["0", "1"], ["1", "0"]]
        assert rep.params == ("s1_1", "s2_1", "s3_1", "s4_1")

    def test_epsilon3_blocks(self):
        rep = build_local_rep("epsilon3", make_spec("uv", 4, 2))
        assert _entry_strings(rep.rho_block) == [
            ["1", "0", "0"],
            ["1/(r6)", "-1", "r6"],
            ["0", "0", "1"],
        ]
        s1 = rep.sigma_blocks[1]
        assert str(s1.rows[1][0]) == "s4_1"
        assert str(s1.rows[1][1]) == "s5_1"
        # the (2,3) entry keeps the row's product with (1, r6^-1, ...) geometric
        ring = rep.ring
        r6, s4, s5 = ring.rf("r6"), ring.rf("s4_1"), ring.rf("s5_1")
        assert s1.rows[1][2] == r6 * (1 - r6 * s4 - s5)

    def test_omega_blocks_pair_with_primed_versions(self):
        spec = make_spec("uw", 3, 1)
        w1 = build_local_rep("omega1", spec)
        assert _entry_strings(w1.sigma_blocks[1]) == [["0", "s2_1"], ["s3_1", "0"]]
        w1p = build_local_rep("omega1p", spec)
        assert _entry_strings(w1p.rho_block) == [["0", "1"], ["1", "0"]]
        assert str(w1p.sigma_blocks[1].rows[1][0]) == "r2*s3_1"

    def test_burau_block(self):
        rep = build_local_rep("burau", make_spec("vb", 3))
        assert rep.rho_block is None
        assert _entry_strings(rep.sigma_blocks[1]) == [["-t + 1", "t"], ["1", "0"]]
        assert rep.degree == 3

    def test_f_rep_block_and_degree(self):
        rep = build_local_rep("f-rep", make_spec("vb", 3))
        assert rep.degree == 4  # one more than the strand count
        assert _entry_strings(rep.sigma_blocks[1]) == [
            ["1", "1", "0"],
            ["0", "-t", "0"],
            ["0", "t", "1"],
        ]

    def test_every_family_builds_somewhere(self):
        homes = {
            "upsilon": make_spec("uv", 3, 2),
            "upsilon-prime": make_spec("uv", 3, 2),
            "epsilon1": make_spec("uv", 3, 2),
            "epsilon2": make_spec("uv", 3, 2),
            "epsilon3": make_spec("uv", 3, 2),
            "epsilon4": make_spec("uv", 3, 2),
            "omega1": make_spec("uw", 3, 1),
            "omega2": make_spec("uw", 3, 1),
            "omega3": make_spec("uw", 3, 1),
            "omega1p": make_spec("uw", 3, 1),
            "omega2p": make_spec("uw", 3, 1),
            "omega3p": make_spec("uw", 3, 1),
            "burau": make_spec("vb", 3),
            "f-rep": make_spec("vb", 3),
        }
        assert set(homes) == set(FAMILY_NAMES)
        for fam, spec in homes.items():
            rep = build_local_rep(fam, spec)
            assert rep.degree == spec.n + rep.block_size - 2

    def test_families_match_committed_file(self):
        """Every family's ring, parameters, blocks and side conditions, and
        the home-requirement errors, byte for byte against a committed file
        (rewritten only when a change in a family is intended)."""
        assert set(_GOLDEN_HOMES) == set(FAMILY_NAMES)
        assert {c for _f, _n, c in _GOLDEN_HOMES["upsilon"]} == {1, 2, 3}
        for fam in ("burau", "f-rep"):
            assert {"mvb", "vsg"} <= {f for f, _n, _c in _GOLDEN_HOMES[fam]}
        assert _family_dump().encode() == _FAMILIES_GOLDEN.read_bytes()

    def test_home_requirements_enforced(self):
        with pytest.raises(ValueError):
            build_local_rep("epsilon1", make_spec("uv", 3, 1))  # needs c = 2
        with pytest.raises(ValueError):
            build_local_rep("omega1", make_spec("uv", 3, 1))  # needs welded
        with pytest.raises(ValueError):
            build_local_rep("burau", make_spec("uv", 3, 1))  # needs a braided type


_SLOT_NAME = re.compile(r"[rs](\d+)(?:_\d+)?$")


def _bare_slot_parameters(block):
    """(row-major slot from 1, name) of every entry of ``block`` that is a
    bare parameter named by the slot convention (r6, s5_t)."""
    k = block.nrows
    return [
        (a * k + b + 1, name)
        for a, row in enumerate(block.rows)
        for b, x in enumerate(row)
        if (name := x.as_variable()) is not None and _SLOT_NAME.match(name)
    ]


def _slot_names(stem, k, suffix=""):
    return [[f"{stem}{a * k + b + 1}{suffix}" for b in range(k)] for a in range(k)]


class TestSlotConvention:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_bare_parameters_sit_at_the_slot_their_name_gives(self, family):
        seen = 0
        for flavor, n, c in _GOLDEN_HOMES[family]:
            rep = build_local_rep(family, make_spec(flavor, n, c))
            blocks = [] if rep.rho_block is None else [rep.rho_block]
            for block in blocks + list(rep.sigma_blocks.values()):
                for slot, name in _bare_slot_parameters(block):
                    assert int(_SLOT_NAME.match(name).group(1)) == slot, (name, str(block))
                    seen += 1
        # burau and f-rep have only t, which names no slot; omega1p has
        # s2_t/r2 and r2*s3_t, which are not bare
        assert seen or family in ("burau", "f-rep", "omega1p")

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    def test_every_generic_entry_is_its_own_slot_name(self, k, c):
        rep = generic_rep(k, make_spec("uv", k + 1, c))
        assert _entry_strings(rep.rho_block) == _slot_names("r", k)
        assert sorted(rep.sigma_blocks) == list(range(1, c + 1))
        for t, block in rep.sigma_blocks.items():
            assert _entry_strings(block) == _slot_names("s", k, f"_{t}")
        slots = range(1, k * k + 1)
        assert rep.ring.vars == tuple(f"r{j}" for j in slots) + tuple(
            f"s{j}_{t}" for t in range(1, c + 1) for j in slots
        )
        assert rep.side_conditions == ()

    def test_generic_antidiagonal_form(self):
        spec = make_spec("uw", 3, 2)
        rep = generic_rep(2, spec, "antidiagonal")
        assert str(rep.rho_block) == "[0, r2; 1/(r2), 0]"
        assert rep.name == "generic-2-local-antidiagonal"
        assert rep.ring.vars == generic_rep(2, spec).ring.vars
        assert _entry_strings(rep.sigma_blocks[2]) == _slot_names("s", 2, "_2")
        assert rep.side_conditions == ()

    @pytest.mark.parametrize(
        "k, rho_form, message",
        [
            (4, "generic", "block size must be 2 or 3"),
            (2, "bogus", "unknown rho_form 'bogus'"),
            (3, "antidiagonal", "the antidiagonal virtual block is a 2x2 form"),
        ],
    )
    def test_generic_rep_refusals(self, k, rho_form, message):
        with pytest.raises(ValueError, match=message):
            generic_rep(k, make_spec("uv", 4, 1), rho_form)

    def test_generic_rep_is_one_function_under_every_import_path(self):
        assert uvbraid.analysis.generic_rep is generic_rep
        assert uvbraid.generic_rep is generic_rep


@pytest.mark.parametrize(
    "family", [f for f in FAMILY_NAMES if f not in ("burau", "f-rep")]
)
def test_type_t_blocks_are_type_1_blocks_renamed(family):
    """The premise of type-renaming: a family's type-t crossing block and
    side conditions are its type-1 ones with every _1 parameter renamed _t
    (checked by substitution, not by string replacement)."""
    if family.startswith("epsilon"):
        spec = make_spec("uv", 4, 2)
    else:
        spec = make_spec("uw" if family.startswith("omega") else "uv", 3, 3)
    rep, c = build_local_rep(family, spec), spec.c
    ring = rep.ring
    shared = [p for p in rep.params if "_" not in p]
    per_type, rest = divmod(len(rep.side_conditions) - len(shared), c)
    assert rest == 0 and per_type > 0

    def conditions(t):
        start = len(shared) + (t - 1) * per_type
        return list(rep.side_conditions[start : start + per_type])

    for t in range(2, c + 1):
        rename = {p: ring.rf(f"{p[:-2]}_{t}" if p.endswith("_1") else p) for p in rep.params}

        def renamed(x):
            return x.num.substitute(rename, ring) / x.den.substitute(rename, ring)

        block_1, block_t = rep.sigma_blocks[1], rep.sigma_blocks[t]
        assert [[renamed(x) for x in row] for row in block_1.rows] == [
            list(row) for row in block_t.rows
        ]
        assert [renamed(x) for x in conditions(1)] == conditions(t)


class TestEmbeddingAndEvaluation:
    def test_generator_matrices_are_block_identities(self):
        rep = build_local_rep("upsilon", make_spec("uv", 4, 1))
        m = rep.matrix(rho(2))
        assert m.shape == (4, 4)
        assert str(m.rows[1][2]) == "r2"
        assert str(m.rows[0][0]) == "1"
        assert str(m.rows[3][3]) == "1"

    def test_inverse_exponent(self):
        rep = build_local_rep("upsilon", make_spec("uv", 3, 1))
        g = sigma(1, 1)
        assert (rep.matrix(g) * rep.matrix(g, -1)).is_identity()

    def test_missing_blocks_raise(self):
        rep = build_local_rep("burau", make_spec("vb", 3))
        assert not rep.has_block(rho(1))
        with pytest.raises(ValueError, match="virtual"):
            rep.matrix(rho(1))

    def test_strand_range_validated(self):
        rep = build_local_rep("upsilon", make_spec("uv", 3, 1))
        with pytest.raises(ValueError):
            rep.matrix(rho(3))

    def test_letter_refusals_are_raised_on_every_call(self):
        uv = build_local_rep("upsilon", make_spec("uv", 3, 1))
        burau = build_local_rep("burau", make_spec("mvb", 4, 2))
        for exp in (1, -1):  # fill the caches of sigma(1, 1) first
            uv.letter_block(sigma(1, 1), exp)
            uv.letter_fraction(sigma(1, 1), exp)
        refusals = [
            (uv, sigma(3, 1), re.escape(f"strand index 3 out of range for {uv.spec}")),
            (burau, rho(1), "family 'burau' does not represent virtual generators"),
            (burau, sigma(1, 1), "family 'burau' has no block for crossing type 1"),
        ]
        for rep, g, message in refusals:
            for read in (rep.letter_block, rep.letter_fraction):
                for exp in (1, -1, 1, -1):
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        read(g, exp)

    def test_each_inverse_block_is_computed_once_per_rep(self, monkeypatch):
        calls = []
        inverse = Matrix.inverse
        monkeypatch.setattr(
            Matrix, "inverse", lambda self: calls.append(self) or inverse(self)
        )
        spec = make_spec("uv", 6, 2)
        rep = build_local_rep("upsilon", spec)
        w = parse_word("s1,1^-1 s2,1^-1 s3,2^-1 s1,1^-1 r2^-1 s4,2^-1", spec)
        images = {str(eval_word(rep, w)) for _ in range(3)}
        assert len(images) == 1
        # one inversion each for the rho block and the two sigma types
        assert len(calls) == 3
        for i in range(1, 6):
            rep.matrix(sigma(i, 1), -1)
        assert len(calls) == 3
        assert rep.matrix(sigma(2, 1), -1) == block_embed(
            rep.sigma_blocks[1].inverse(), 2, rep.degree
        )

    def test_eval_word_involution(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep("upsilon", spec)
        assert eval_word(rep, parse_word("r1 r1", spec)).is_identity()

    def test_eval_word_follows_textual_order(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep("upsilon", spec)
        w = parse_word("r1 s2,1", spec)
        assert eval_word(rep, w) == rep.matrix(rho(1)) * rep.matrix(sigma(2, 1))

    def test_eval_word_on_a_window_is_the_diagonal_block_of_the_full_image(self):
        spec = make_spec("uv", 5, 2)
        rep = build_local_rep("epsilon3", spec)  # k = 3, degree 6
        w = parse_word("r2 s3,1^-1 r3 s2,2 r2", spec)
        full = eval_word(rep, w)
        product = Matrix.identity(rep.ring, rep.degree)
        for g, e in w.letters:
            product = product * rep.matrix(g, e)
        # the column updates give the very representatives of the product
        assert _entry_strings(full) == _entry_strings(product)
        window = eval_word(rep, w, start=2, size=4)
        assert _entry_strings(window) == [row[1:5] for row in _entry_strings(full)[1:5]]
        assert full == block_embed(window, 2, rep.degree)
        with pytest.raises(ValueError, match="does not fit"):
            eval_word(rep, w, start=3, size=4)
        with pytest.raises(ValueError, match="outside degree"):
            eval_word(rep, w, start=2, size=6)
        with pytest.raises(ValueError, match="out of range"):
            eval_word(rep, parse_word("r5", make_spec("uv", 6, 2)))

    def test_non_monomial_denominators_give_the_full_product(self):
        spec = make_spec("uv", 4, 1)
        rep = build_local_rep("upsilon", spec)  # k = 2, degree 4
        # sigma^-1 is read over its determinant, which is not a monomial
        _cols, den = rep.letter_fraction(sigma(1, 1), -1)
        assert str(den) == "s1_1*s4_1 - s2_1*s3_1"
        for text, start, size in [
            ("s1,1^-1", 1, 2),
            ("s2,1^-1 r2 s2,1 r3 s3,1^-1", 2, 3),
            ("r1 s1,1^-1 s2,1^-1 r1 s3,1 s1,1^-1", 1, 4),
        ]:
            w = parse_word(text, spec)
            product = Matrix.identity(rep.ring, rep.degree)
            for g, e in w.letters:
                product = product * rep.matrix(g, e)
            assert eval_word(rep, w) == product, text
            window = eval_word(rep, w, start=start, size=size)
            assert block_embed(window, start, rep.degree) == product, text

    def test_identity_entries_under_inverse_letters_print_as_one(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep("upsilon", spec)
        w = parse_word("s1,1^-1", spec)
        product = Matrix.identity(rep.ring, rep.degree)
        for g, e in w.letters:
            product = product * rep.matrix(g, e)
        # outside its window a letter read over D = s1_1*s4_1 - s2_1*s3_1
        # leaves D/D, which is 1
        assert str(eval_word(rep, w)) == str(product)
        conj = eval_word(rep, parse_word("s2,1^-1 r2 s2,1", spec))
        assert str(conj[0, 0]) == "1"

    def test_generator_images_cover_all_generators(self):
        spec = make_spec("uv", 4, 2)
        rep = build_local_rep("upsilon", spec)
        gens = rep.generator_images()
        assert len(gens) == (spec.n - 1) * (1 + spec.c)
        for _g, m in gens:
            assert m.shape == (rep.degree, rep.degree)


class TestSpecialization:
    def test_assignment_recorded_and_constant(self):
        spec = make_spec("uv", 3, 1)
        rep = specialize(
            build_local_rep("upsilon", spec),
            {"r2": 2, "s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1},
        )
        assert rep.assignment["r2"] == GaussianRational(2)
        assert eval_word(rep, parse_word("r1", spec))[0, 1].constant_value() == GaussianRational(2)

    def test_side_condition_zero_rejected(self):
        spec = make_spec("uv", 3, 1)
        base = build_local_rep("upsilon", spec)
        with pytest.raises(ValueError, match="side condition"):
            specialize(base, {"r2": 0, "s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1})
        with pytest.raises(ValueError, match="side condition"):
            # singular crossing block: determinant vanishes
            specialize(base, {"r2": 1, "s1_1": 1, "s2_1": 1, "s3_1": 1, "s4_1": 1})

    def test_vanishing_block_denominator_rejected(self):
        # generic_rep has no side conditions, yet r2 divides its antidiagonal block
        rep = generic_rep(2, make_spec("uv", 3, 1), "antidiagonal")
        point = {p: 1 for p in rep.params} | {"r2": 0}
        with pytest.raises(ValueError, match=r"generic-2-local-antidiagonal .*denominator r2"):
            specialize(rep, point)

    def test_unknown_and_missing_parameters_rejected(self):
        spec = make_spec("uv", 3, 1)
        base = build_local_rep("upsilon", spec)
        with pytest.raises(ValueError):
            specialize(base, {"r2": 2, "bogus": 1})
        with pytest.raises(ValueError, match=r"missing parameters \['s1_1', 's2_1'"):
            specialize(base, {"r2": 2})

    def test_float_parameter_is_refused(self):
        # 0.1 would otherwise bind r2 to the binary fraction nearest 1/10
        spec = make_spec("uv", 3, 1)
        point = {"r2": 0.1, "s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1}
        with pytest.raises(TypeError, match="not an exact scalar: 0.1"):
            specialize(build_local_rep("upsilon", spec), point)
        with pytest.raises(TypeError, match="not an exact scalar: 0.1"):
            build_local_rep("upsilon", spec, point)

    def test_specialized_rep_starts_with_an_empty_cache(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep("upsilon", spec)
        rep.letter_block(rho(1), -1)  # caches the symbolic inverse
        at = specialize(rep, {"r2": 2, "s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1})
        half = GaussianRational(1) / 2
        assert at.letter_block(rho(1), -1) == Matrix.from_rows(at.ring, [[0, 2], [half, 0]])
        assert str(at.letter_block(rho(1), -1)) == "[0, 2; 1/2, 0]"

    def test_build_local_rep_accepts_assignment_directly(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep(
            "upsilon", spec, {"r2": 2, "s1_1": 1, "s2_1": 0, "s3_1": 0, "s4_1": 1}
        )
        assert rep.assignment is not None


class TestConjugation:
    def test_self_equivalence_uses_trivial_scale(self):
        spec = make_spec("uv", 3, 1)
        rep = build_local_rep("upsilon", spec)
        wit = conjugation_equivalence(rep, rep)
        assert wit is not None
        assert wit.q.is_one()

    def test_upsilon_to_normalized_binding(self):
        spec = make_spec("uv", 3, 2)
        wit = conjugation_equivalence(
            build_local_rep("upsilon", spec), build_local_rep("upsilon-prime", spec)
        )
        assert wit is not None
        assert str(wit.q) == "1/(r2)"
        assert str(wit.binding["s2_1"]) == "s2_1/(r2)"
        assert str(wit.binding["s3_1"]) == "r2*s3_1"
        assert str(wit.binding["s1_1"]) == "s1_1"

    def test_witness_certifies_generator_equality(self):
        """Independent re-check: Q^-1 A(g) Q equals B(g) after substituting
        the binding for every generator of both kinds."""
        spec = make_spec("uw", 3, 1)
        a = build_local_rep("omega2", spec)
        b = build_local_rep("omega2p", spec)
        wit = conjugation_equivalence(a, b)
        assert wit is not None
        q_inv = wit.Q.inverse()
        for (g, mat_a), (g2, mat_b) in zip(a.generator_images(), b.generator_images()):
            assert g == g2
            conj = q_inv * mat_a * wit.Q
            mapped = mat_b
            for row_a, row_b in zip(conj.rows, mapped.rows):
                for x, y in zip(row_a, row_b):
                    image = y.num.substitute(wit.binding, a.ring) / y.den.substitute(
                        wit.binding, a.ring
                    )
                    assert x == image

    def test_witness_binds_each_name_once(self):
        """A B whose s4_1 slot reads s2_1 has s2_1 in two slots that ask
        for different A entries, so no binding certifies it."""
        spec = make_spec("uw", 3, 1)
        b = build_local_rep("omega2p", spec)
        rows = [list(r) for r in b.sigma_blocks[1].rows]
        rows[1][1] = b.ring.rf("s2_1")
        renamed = dataclasses.replace(
            b, sigma_blocks={1: Matrix(b.ring, tuple(map(tuple, rows)))}
        )
        assert conjugation_equivalence(build_local_rep("omega2", spec), renamed) is None

    def test_unrelated_families_do_not_match(self):
        spec = make_spec("uw", 3, 1)
        wit = conjugation_equivalence(
            build_local_rep("omega1", spec), build_local_rep("omega2p", spec)
        )
        assert wit is None

    def test_block_shape_mismatch_rejected(self):
        uv = make_spec("uv", 3, 2)
        with pytest.raises(ValueError):
            conjugation_equivalence(
                build_local_rep("upsilon", uv), build_local_rep("epsilon1", uv)
            )
