"""Command-line interface: exit codes, stable JSON, and the bundled suites."""

import ast
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

import uvbraid
from uvbraid import analysis, cli, matrices, reps
from uvbraid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def count_builds(*argv) -> dict:
    """Calls of build_local_rep, specialize and block_embed made by one CLI
    run, counted through wrappers in every module that holds them."""
    originals = {
        "build_local_rep": reps.build_local_rep,
        "specialize": reps.specialize,
        "block_embed": matrices.block_embed,
    }
    counts = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    with ExitStack() as stack:
        for mod in (uvbraid, analysis, cli, reps, matrices):
            for name, f in originals.items():
                if getattr(mod, name, None) is f:
                    stack.enter_context(mock.patch.object(mod, name, counted(name, f)))
        main(list(argv))
    return dict(counts)


class TestVerifyCommand:
    def test_symbolic_pass_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "upsilon", "--group", "uv",
            "--n", "4", "--c", "2",
        )
        assert code == 0
        assert "18/18 relations pass" in out

    def test_failing_family_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "upsilon", "--group", "vt",
            "--n", "3", "--c", "1",
        )
        assert code == 1
        assert "[   fail] INV[i=1,t=1]" in out

    def test_every_relation_skipped_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "burau", "--group", "vb", "--n", "2",
        )
        assert code == 1
        assert out.endswith("0/1 relations pass (1 skipped)\n")
        assert "[skipped] PR3[i=1]" in out

    def test_specialized_point(self, capsys):
        argv = ("verify", "--family", "upsilon-prime", "--n", "3", "--c", "1",
                "--param", "s1_1=1", "--param", "s2_1=2",
                "--param", "s3_1=3", "--param", "s4_1=4")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "specialized" in out
        code, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["mode"] == "specialized"
        assert "seed" not in payload

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "zeta", "--n", "3")
        assert code == 2
        assert "error:" in err and "zeta" in err

    def test_bad_param_syntax_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--family", "upsilon", "--n", "3", "--param", "s1_1"
        )
        assert code == 2 and "want name=value" in err

    def test_word_past_the_field_limit_is_usage_error(self, capsys, monkeypatch):
        # with two-bit fields the first window, PR1's r1 r2 r1, is refused:
        # each rho letter holds r2^2
        monkeypatch.setattr(reps, "_FIELD_BITS", 2)
        code, out, err = run(capsys, "verify", "--family", "upsilon", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: exponents up to 6 exceed the packed-monomial field limit 3\n"

    @pytest.mark.parametrize(
        "command,family", [("verify", "upsilon"), ("irreducibility", "upsilon-prime")]
    )
    def test_partial_parameter_point_is_usage_error(self, capsys, command, family):
        code, out, err = run(
            capsys, command, "--family", family, "--n", "3", "--c", "1",
            "--param", "s1_1=1",
        )
        assert code == 2 and out == ""
        assert "missing parameters" in err and "'s2_1'" in err

    def test_repeated_param_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "upsilon-prime", "--n", "3", "--c", "1",
            "--param", "s1_1=2", "--param", "s2_1=1", "--param", "s3_1=3",
            "--param", "s4_1=5", "--param", "s1_1=7",
        )
        assert code == 2 and out == ""
        assert "--param s1_1 given more than once" in err

    @pytest.mark.parametrize("command", ["verify", "irreducibility"])
    def test_zero_denominator_in_a_param_is_usage_error(self, capsys, command):
        code, out, err = run(
            capsys, command, "--family", "upsilon-prime", "--n", "3", "--c", "1",
            "--param", "s1_1=1/0", "--param", "s2_1=1",
            "--param", "s3_1=1", "--param", "s4_1=1",
        )
        assert code == 2 and out == ""
        assert "'1/0'" in err and "Traceback" not in err

    def test_fixed_c_flavor_defaults_to_its_own_c(self, capsys):
        argv = ("verify", "--family", "f-rep", "--group", "vsg", "--n", "4")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, *argv, "--c", "2")

    def test_fixed_c_flavor_still_refuses_another_c(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "f-rep", "--group", "vsg", "--n", "4",
            "--c", "1",
        )
        assert code == 2 and out == ""
        assert "vsg fixes c = 2; got 1" in err

    def test_unknown_flavor_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--family", "upsilon", "--group", "uq", "--n", "3")
        assert exc.value.code == 2


class TestConstraintsCommand:
    def test_full_system_text(self, capsys):
        code, out, _ = run(capsys, "constraints", "--n", "3", "--c", "1", "--k", "2")
        assert code == 0
        assert "15 equations in 8 unknowns" in out
        assert "r1^2 + r2*r3 - 1 = 0" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "constraints", "--n", "3", "--c", "1", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 15
        tags = {t for eq in payload["equations"] for t in eq["tags"]}
        assert "PR1[i=1]" in tags and "MR2[i=1,t=1]" in tags

    def test_welded_subset(self, capsys):
        code, out, _ = run(
            capsys, "constraints", "--group", "uw", "--n", "3", "--c", "1",
            "--tag", "WR1[i=1,t=1]", "--rho-form", "antidiagonal", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 3
        assert payload["rho_form"] == "antidiagonal"


class TestEnumerateCommand:
    def test_virtual_subsystem_mod_five(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--c", "1",
            "--tag", "PR1[i=1]", "--tag", "PR3[i=1]", "--mod", "5", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 5
        assert payload["classification"] == {"antidiagonal": 4, "identity": 1}

    def test_fixed_identity_bucket(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--c", "1", "--mod", "5",
            "--fixed", "r1=1", "--fixed", "r2=0",
            "--fixed", "r3=0", "--fixed", "r4=1", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 1
        (sol,) = payload["solutions"]
        assert [sol[k] for k in ("s1_1", "s2_1", "s3_1", "s4_1")] == [1, 0, 0, 1]

    def test_invertibility_flag(self, capsys):
        # identity point plus 4 antidiagonal r-points, each with a free
        # invertible crossing block: 1 + 4 * |GL_2(F_5)| = 1921
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--c", "1", "--mod", "5",
            "--invertible-blocks", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 1921
        assert payload["classification"] == {"antidiagonal": 1920, "identity": 1}

    def test_antidiagonal_invertibility_excludes_r2_zero(self, capsys):
        # the virtual block [[0, r2], [1/r2, 0]] is undefined at r2 = 0
        code, out, _ = run(
            capsys, "enumerate", "--group", "uw", "--n", "3", "--c", "1",
            "--tag", "WR1[i=1,t=1]", "--rho-form", "antidiagonal", "--mod", "3",
            "--invertible-blocks", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 24
        assert all(s["r2"] != 0 for s in payload["solutions"])

    @pytest.mark.parametrize("argv, names, classified", [
        # the count and the classes are both read from one r1..r4 tally
        (("--invertible-blocks",), [analysis._VIRTUAL], True),
        # no solution: the count is that tally's sum, no class is printed,
        # and the empty point list is a tally over the scanned unknowns
        (("--fixed", "r1=1", "--fixed", "r2=1"),
         [analysis._VIRTUAL, ("r3", "r4", "s1_1", "s2_1", "s3_1", "s4_1")], False),
        # a 3x3 block is not classified, so the count is a tally over no names
        (("--k", "3", "--n", "4", "--mod", "3", "--tag", "PR1[i=1]",
          "--tag", "PR3[i=1]", "--invertible-blocks"), [()], False),
    ])
    def test_count_and_classes_share_one_tally(self, capsys, monkeypatch, argv, names,
                                               classified):
        calls = []
        original = analysis.ModPScan.tally

        def counted(scan, names):
            calls.append(tuple(names))
            return original(scan, names)

        monkeypatch.setattr(analysis.ModPScan, "tally", counted)
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--c", "1", "--mod", "5",
                           *argv, "--json")
        payload = json.loads(out)
        assert code == 0 and calls == names
        assert ("classification" in payload) == classified

    def test_three_local_scan_is_not_classified(self, capsys):
        # r1..r4 of a 3x3 virtual block are not a 2x2 block to bucket
        argv = ("enumerate", "--k", "3", "--n", "4", "--c", "1", "--mod", "3",
                "--tag", "PR1[i=1]", "--tag", "PR3[i=1]")
        code, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 23
        assert "classification" not in payload
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "virtual-block classes" not in out

    def test_dense_scan_is_not_refused_by_its_grid_size(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--c", "2", "--mod", "5")
        assert code == 0
        assert out.startswith("1562501 solutions mod 5\n")

    def test_invertible_two_type_scan_counts_cells_less_holes(self, capsys):
        # identity point plus 4 antidiagonal r-points, each with two free
        # invertible crossing blocks: 1 + 4 * |GL_2(F_5)|^2 = 1 + 4 * 480^2
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--c", "2", "--mod", "5",
            "--invertible-blocks", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 921_601 == 1 + 4 * 480**2
        assert payload["classification"] == {"antidiagonal": 921_600, "identity": 1}

    def test_scan_over_the_work_budget_exits_2_within_30_s(self, capsys):
        """With invertible blocks uv(3,2) at p=7 has 1 + 6 * 2016^2 points;
        the descent and its holes' descents are stopped at their shared
        budget of 500 000 visited partial points (about 2-3 s on a 2-core
        host), not run to the end."""
        start = time.monotonic()
        code, out, err = run(
            capsys, "enumerate", "--n", "3", "--c", "2", "--mod", "7",
            "--invertible-blocks",
        )
        assert time.monotonic() - start < 30
        assert code == 2 and out == ""
        assert err == (
            "error: scan of 12 unknowns mod 7 exceeds desk scale: "
            "500004 partial points visited, over the budget of 500000\n"
        )

    def test_composite_modulus_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "3", "--mod", "9")
        assert code == 2 and "odd prime" in err

    @pytest.mark.parametrize("name", ["q", "s1"])
    def test_fixed_name_outside_the_system_is_usage_error(self, capsys, name):
        code, out, err = run(
            capsys, "enumerate", "--n", "3", "--c", "1", "--mod", "5",
            "--fixed", f"{name}=2", "--json",
        )
        assert code == 2 and out == ""
        assert f"{name!r} is not an unknown" in err
        assert "r1, r2, r3, r4, s1_1, s2_1, s3_1, s4_1" in err

    @pytest.mark.parametrize("value", ["1.5", "", "x", "1_0", " 3"])
    def test_fixed_value_that_is_no_integer_is_usage_error(self, capsys, value):
        code, out, err = run(
            capsys, "enumerate", "--n", "3", "--c", "1", "--mod", "5",
            "--fixed", f"r1={value}", "--json",
        )
        assert code == 2 and out == ""
        assert f"bad --fixed 'r1={value}'; want an integer" in err

    def test_repeated_fixed_name_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--n", "3", "--c", "1", "--mod", "5",
            "--fixed", "r1=1", "--fixed", "r1=0", "--json",
        )
        assert code == 2 and out == ""
        assert "--fixed r1 given more than once" in err


class TestIrreducibilityCommand:
    def test_oracle_and_criterion_agree(self, capsys):
        code, out, _ = run(
            capsys, "irreducibility", "--family", "upsilon-prime",
            "--n", "3", "--c", "1",
            "--param", "s1_1=2", "--param", "s2_1=-1",
            "--param", "s3_1=3", "--param", "s4_1=-2", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["burnside_dim"] == 7 and payload["full_dim"] == 9
        assert payload["criterion"]["verdict"] == "reducible"
        agree = [c for c in payload["checks"] if c["tag"] == "criterion agrees with oracle"]
        assert agree and agree[0]["status"] == "pass"

    def test_family_without_criterion_still_reports_oracle(self, capsys):
        code, out, _ = run(
            capsys, "irreducibility", "--family", "upsilon", "--n", "3", "--c", "1",
            "--param", "r2=2", "--param", "s1_1=1", "--param", "s2_1=1",
            "--param", "s3_1=0", "--param", "s4_1=1", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["criterion"] is None
        assert payload["burnside_dim"] >= 1

    def test_family_is_built_once_at_the_point(self):
        counts = count_builds(
            "irreducibility", "--family", "epsilon4", "--group", "uv", "--n", "4",
            "--c", "2", "--param", "r2=2", "--param", "s5_1=3", "--param", "s8_1=1",
            "--param", "s5_2=1", "--param", "s8_2=2",
        )
        # built at the point, so nothing is specialized; 9 generator images
        # of degree 5, shared by the oracle and the criterion
        assert counts == {"build_local_rep": 1, "block_embed": 9}

    def test_criterion_contradicting_its_table_is_a_failed_check(self, capsys, monkeypatch):
        [(label, _test, side, entry)], notes = analysis._CRITERIA["omega1p"]
        monkeypatch.setitem(
            analysis._CRITERIA, "omega1p", ([(label, lambda v: True, side, entry)], notes)
        )
        code, out, _ = run(
            capsys, "irreducibility", "--family", "omega1p", "--group", "uw",
            "--n", "4", "--param", "r2=3", "--param", "s2_1=2", "--param", "s3_1=5",
            "--json",
        )
        assert code == 1
        checks = {c["tag"]: c for c in json.loads(out)["checks"]}
        assert checks["closed-form criterion"]["status"] == "fail"
        assert "closed form and table disagree" in checks["closed-form criterion"]["details"]
        assert checks["algebra-dimension oracle"]["details"] == "dim 16 of 16 => irreducible"


class TestHomomorphismCommand:
    @pytest.mark.parametrize(
        "map_name,word,expected",
        [
            ("piP", "r1", "(1 2)"),
            ("piP", "s1,1", "(1 2)"),
            ("piK", "s1,1", "id"),
            ("piK", "r2 r1", "(1 3 2)"),
            ("iota", "r1 r2 r1", "(1 3)"),
            ("phi", "s1,1 s1,1 r1", "(2, (1 2))"),
            ("abelian", "s1,1^-1 r1 r2", "((-1,), 0)"),
        ],
    )
    def test_image_lines(self, capsys, map_name, word, expected):
        code, out, _ = run(
            capsys, "homomorphism", "--map", map_name, "--word", word,
            "--n", "3", "--c", "1",
        )
        assert code == 0
        assert f"= {expected}" in out

    def test_iota_rejects_sigma_letters(self, capsys):
        code, _, err = run(
            capsys, "homomorphism", "--map", "iota", "--word", "s1,1", "--n", "3"
        )
        assert code == 2 and "pure-rho" in err

    def test_abelian_rejects_involutive_flavors(self, capsys):
        code, _, err = run(
            capsys, "homomorphism", "--map", "abelian", "--word", "r1",
            "--group", "vt", "--n", "3",
        )
        assert code == 2

    def test_malformed_word_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "homomorphism", "--map", "piP", "--word", "q3", "--n", "3"
        )
        assert code == 2


class TestWordCommand:
    def test_free_reduction(self, capsys):
        code, out, _ = run(
            capsys, "word", "--word", "r1 r1 s1,1 s1,1^-1 r2", "--n", "3", "--c", "1"
        )
        assert code == 0
        assert "reduced: r2" in out

    def test_strand_out_of_range(self, capsys):
        code, _, err = run(capsys, "word", "--word", "r5", "--n", "3")
        assert code == 2 and "strand" in err


class TestClosedOutput:
    def test_broken_pipe_exits_141_with_nothing_on_stderr(self, capsys, monkeypatch, tmp_path):
        # standard output as a pipe whose reader has gone: every write
        # raises, and its descriptor is a file we can inspect afterwards
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", Closed())
        try:
            code = main(["constraints", "--group", "uv", "--n", "3", "--k", "2", "--json"])
            # the descriptor now points at devnull: what Python flushes at
            # exit goes nowhere
            os.write(fd, b"late output")
        finally:
            os.close(fd)
        assert code == 141
        assert capsys.readouterr().err == ""
        assert (tmp_path / "stdout").read_bytes() == b""


class TestSuites:
    NAMES = ["two-local", "welded-two-local", "three-local",
             "forbidden-moves", "mod-p", "classical-braid"]

    @pytest.mark.parametrize("name", NAMES)
    def test_each_suite_passes(self, capsys, name):
        code, out, _ = run(capsys, "suite", "--name", name)
        assert code == 0
        assert "[   fail]" not in out
        assert "[   pass]" in out

    def test_suites_are_named_in_table_order(self):
        assert cli.SUITES == tuple(self.NAMES)

    def test_each_suite_runs_its_own_rows_of_all(self, capsys):
        checks = []
        for name in self.NAMES:
            _, out, _ = run(capsys, "suite", "--name", name, "--json")
            checks += json.loads(out)["checks"]
        _, out, _ = run(capsys, "suite", "--name", "all", "--json")
        assert checks == json.loads(out)["checks"]

    def test_all_suites_text_matches_committed_file(self, capsys):
        code, out, _ = run(capsys, "suite", "--name", "all")
        assert code == 0
        assert out.encode() == (_GOLDEN / "suite_all.txt").read_bytes()

    def test_family_with_every_relation_skipped_fails(self, capsys, monkeypatch):
        # burau has no block for r1, so vb(n=2)'s one relation is skipped
        row = ("classical-braid", ("vb", 2, 1), cli._family, "burau")
        monkeypatch.setattr(cli, "_CLAIMS", (row,))
        code, out, _ = run(capsys, "suite", "--name", "classical-braid", "--json")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [(c["tag"], c["status"]) for c in checks] == [
            ("burau satisfies vb(n=2, c=1)", "fail")
        ]
        assert "0/1 relations pass (1 skipped)" in checks[0]["details"]

    def test_all_suites_json(self, capsys):
        code, out, _ = run(capsys, "suite", "--name", "all", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["name"] == "all"
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert len(payload["checks"]) >= 25

    def test_mod_p_scans_the_virtual_subsystem_and_the_full_system_once(
        self, capsys, monkeypatch
    ):
        """The crossing-block freedom of all p virtual blocks is read from
        one scan of the full system, not from a scan per block."""
        calls = []
        original = cli.enumerate_solutions_mod_p

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_solutions_mod_p", counted)
        code, _out, _err = run(capsys, "suite", "--name", "mod-p")
        assert code == 0
        assert len(calls) == 2

    def test_three_local_builds_and_specializes_each_family_once(self):
        counts = count_builds("suite", "--name", "three-local")
        assert counts == {"build_local_rep": 4, "specialize": 4, "block_embed": 36}

    def test_three_local_reports_a_wrong_criterion_row_as_failed(self, capsys, monkeypatch):
        _branches, notes = analysis._CRITERIA["epsilon1"]
        monkeypatch.setitem(
            analysis._CRITERIA, "epsilon1",
            ([(None, None, "column", lambda v, j, m: int(j == 1))], notes),
        )
        code, out, _ = run(capsys, "suite", "--name", "three-local", "--json")
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert [c["tag"] for c in failed] == [
            "epsilon1 is reducible with a verified invariant line"
        ]
        assert "no epsilon1 witness verified" in failed[0]["details"]


class TestJsonStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ("constraints", "--n", "3", "--c", "1", "--json"),
            ("enumerate", "--n", "3", "--tag", "PR1[i=1]", "--tag", "PR3[i=1]",
             "--mod", "7", "--json"),
            ("verify", "--family", "omega2", "--group", "uw", "--n", "3",
             "--c", "2", "--json"),
            ("suite", "--name", "two-local", "--json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        json.loads(first)  # well-formed

    def test_json_flag_accepted_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--json", "word", "--word", "r1", "--n", "3")
        assert code == 0
        assert json.loads(out)["reduced"] == "r1"


_GOLDEN = Path(__file__).parent / "data"


class TestJsonGoldens:
    """``--json`` output checked byte for byte against committed files, so
    a change in any reported representative (a residue, an equation) shows
    up.  A file is rewritten, from the command in its case, only when the
    change in output is intended."""

    # file stem -> (exit code, argv without --json)
    CASES = {
        "verify_upsilon_vt5": (
            1, ("verify", "--family", "upsilon", "--group", "vt", "--n", "5"),
        ),
        "verify_epsilon1_uw4_c2": (
            1,
            ("verify", "--family", "epsilon1", "--group", "uw", "--n", "4",
             "--c", "2"),
        ),
        # per-member fail residues and "class of" bookkeeping where far rows
        # span several gaps
        "verify_epsilon1_uw6_c2": (
            1,
            ("verify", "--family", "epsilon1", "--group", "uw", "--n", "6",
             "--c", "2"),
        ),
        "suite_all": (0, ("suite", "--name", "all")),
        # per-member skip details: PR1[i=2] has no block for r2, not r1
        "verify_burau_vb5": (0, ("verify", "--family", "burau", "--group", "vb", "--n", "5")),
        # provenance over far rows windowed at k = 3
        "constraints_k3_uv5_c2": (
            0, ("constraints", "--k", "3", "--n", "5", "--c", "2"),
        ),
        # equations and provenance in the caller's tag order
        "constraints_uv3_tag_order": (
            0,
            ("constraints", "--n", "3", "--c", "1", "--tag", "MR2[i=1,t=1]",
             "--tag", "PR1[i=1]"),
        ),
        # the dense k=2 system: (p-1) p^4 antidiagonal points plus the identity
        "enumerate_uv3_c1_mod7": (0, ("enumerate", "--n", "3", "--c", "1", "--mod", "7")),
        # 24 listed solutions, in lexicographic order
        "enumerate_uw3_wr1_antidiagonal_mod3_invertible": (
            0,
            ("enumerate", "--group", "uw", "--tag", "WR1[i=1,t=1]", "--rho-form",
             "antidiagonal", "--mod", "3", "--invertible-blocks"),
        ),
        # two crossing types: (p-1) p^8 + 1
        "enumerate_uv3_c2_mod3": (0, ("enumerate", "--n", "3", "--c", "2", "--mod", "3")),
        "irreducibility_upsilon_prime_uv6_on": (
            0,
            ("irreducibility", "--family", "upsilon-prime", "--group", "uv",
             "--n", "6", "--param", "s1_1=2", "--param", "s2_1=-1",
             "--param", "s3_1=3", "--param", "s4_1=-2"),
        ),
        "irreducibility_upsilon_prime_uv6_off": (
            0,
            ("irreducibility", "--family", "upsilon-prime", "--group", "uv",
             "--n", "6", "--param", "s1_1=2", "--param", "s2_1=-3",
             "--param", "s3_1=5", "--param", "s4_1=7"),
        ),
        # the benchmark's top rung: degree 8, on and off the locus
        "irreducibility_upsilon_prime_uv8_on": (
            0,
            ("irreducibility", "--family", "upsilon-prime", "--group", "uv",
             "--n", "8", "--param", "s1_1=2", "--param", "s2_1=-1",
             "--param", "s3_1=3", "--param", "s4_1=-2"),
        ),
        "irreducibility_upsilon_prime_uv8_off": (
            0,
            ("irreducibility", "--family", "upsilon-prime", "--group", "uv",
             "--n", "8", "--param", "s1_1=2", "--param", "s2_1=-3",
             "--param", "s3_1=5", "--param", "s4_1=7"),
        ),
        "irreducibility_omega2p_uw4_complex": (
            0,
            ("irreducibility", "--family", "omega2p", "--group", "uw", "--n", "4",
             "--param", "r2=1+i", "--param", "s2_1=2", "--param", "s4_1=i"),
        ),
        "irreducibility_omega1p_uw4_c2_on": (
            0,
            ("irreducibility", "--family", "omega1p", "--group", "uw", "--n", "4",
             "--c", "2", "--param", "r2=3", "--param", "s2_1=3", "--param", "s3_1=1/3",
             "--param", "s2_2=3", "--param", "s3_2=1/3"),
        ),
        "irreducibility_omega3p_uw4_c2_mixed": (
            0,
            ("irreducibility", "--family", "omega3p", "--group", "uw", "--n", "4",
             "--c", "2", "--param", "r2=2", "--param", "s1_1=3", "--param", "s2_1=-4",
             "--param", "s1_2=1", "--param", "s2_2=1"),
        ),
        "irreducibility_epsilon1_uv4_c2": (
            0,
            ("irreducibility", "--family", "epsilon1", "--group", "uv", "--n", "4",
             "--c", "2", "--param", "r6=2", "--param", "s5_1=1", "--param", "s6_1=2",
             "--param", "s8_1=3", "--param", "s9_1=5", "--param", "s5_2=2",
             "--param", "s6_2=1", "--param", "s8_2=1", "--param", "s9_2=1"),
        ),
        "irreducibility_epsilon2_uv4_c2": (
            0,
            ("irreducibility", "--family", "epsilon2", "--group", "uv", "--n", "4",
             "--c", "2", "--param", "r2=2", "--param", "s1_1=1", "--param", "s2_1=2",
             "--param", "s4_1=3", "--param", "s5_1=5", "--param", "s1_2=2",
             "--param", "s2_2=1", "--param", "s4_2=1", "--param", "s5_2=1"),
        ),
        "irreducibility_epsilon3_uv4_c2": (
            0,
            ("irreducibility", "--family", "epsilon3", "--group", "uv", "--n", "4",
             "--c", "2", "--param", "r6=2", "--param", "s4_1=1", "--param", "s5_1=3",
             "--param", "s4_2=2", "--param", "s5_2=1"),
        ),
        "irreducibility_epsilon4_uv4_c2": (
            0,
            ("irreducibility", "--family", "epsilon4", "--group", "uv", "--n", "4",
             "--c", "2", "--param", "r2=2", "--param", "s5_1=3", "--param", "s8_1=1",
             "--param", "s5_2=1", "--param", "s8_2=2"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_matches_committed_file(self, capsys, name):
        code, argv = self.CASES[name]
        got, out, _ = run(capsys, *argv, "--json")
        assert got == code
        assert out.encode() == (_GOLDEN / f"{name}.json").read_bytes()

    def test_every_committed_file_is_read(self):
        # families.json is read by tests/test_reps.py and suite_all.txt by
        # TestSuites; a case deleted without its file fails here
        stems = set(self.CASES) | {"families", "suite_all"}
        want = {f"{stem}.json" for stem in stems} | {"suite_all.txt"}
        assert {p.name for p in _GOLDEN.iterdir()} == want


def _readme_commands() -> list[list[str]]:
    """argv of each ``uvbraid`` line in the ``sh`` block under README's
    "## Command line", with ``\\`` continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("uvbraid ")]


def test_readme_command_line_examples_run(capsys):
    commands = _readme_commands()
    assert commands
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.strip(), argv


def test_successive_calls_match_each_call_run_alone(capsys):
    """``main`` builds its parser once per process; the --tag, --fixed and
    --param lists of one call do not leak into the next."""
    calls = [
        ("enumerate", "--n", "3", "--c", "1", "--tag", "PR1[i=1]",
         "--tag", "PR3[i=1]", "--mod", "5", "--json"),
        ("enumerate", "--n", "3", "--c", "1", "--mod", "5", "--fixed", "r1=1",
         "--fixed", "r2=0", "--fixed", "r3=0", "--fixed", "r4=1", "--json"),
        ("constraints", "--n", "3", "--c", "1", "--tag", "PR3[i=1]", "--json"),
        ("verify", "--family", "upsilon-prime", "--n", "3", "--c", "1",
         "--param", "s1_1=1", "--param", "s2_1=2", "--param", "s3_1=3",
         "--param", "s4_1=4", "--json"),
    ]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert cli.build_parser() is cli.build_parser()


def test_package_imports_only_the_standard_library_and_itself():
    """Pins README's "No runtime dependencies" and pyproject's
    ``dependencies = []``: every absolute import anywhere in a module of
    ``src/uvbraid`` names a standard-library module or the package; the
    relative ones are the package."""
    modules = sorted(Path(uvbraid.__file__).resolve().parent.glob("*.py"))
    assert len(modules) >= 7
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"uvbraid"}
            ]
    assert outside == []


def test_import_leaves_numpy_unloaded():
    """The package and its CLI are pure Python: importing them pulls in
    neither numpy (the benchmark under bench/ may use it on its own) nor
    sympy (a test-only reference)."""
    src = str(Path(uvbraid.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, uvbraid, uvbraid.cli; "
        "print('numpy' in sys.modules, 'sympy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"
