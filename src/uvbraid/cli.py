"""Command-line front end.

Commands map one-to-one onto the library API: ``verify`` runs a relation
check for a representation family, ``constraints`` and ``enumerate`` expose
the generic-block constraint systems and their finite-field scans,
``irreducibility`` runs the closed-form criterion next to the algebra
dimension oracle, ``homomorphism`` and ``word`` evaluate quotient maps and
rewrite words, and ``suite`` bundles the standard verification batteries.

Output is a human-readable report, or with ``--json`` a stable JSON
document (identical invocations produce byte-identical output; nothing is
timestamped or environment-dependent).  Exit status: 0 when no check
failed, 1 when at least one did, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter

from .analysis import (
    burnside_dim,
    classify_virtual_point,
    enumerate_solutions_mod_p,
    factor_check,
    forbidden_moves,
    generate_constraints,
    reducibility_at,
    verify_relations,
)
from .groups import (
    _FIXED_C,
    FLAVORS,
    GroupSpec,
    abelianize,
    free_reduce,
    make_spec,
    parse_word,
    perm_image,
    phi,
    relations,
)
from .reps import (
    FAMILY_NAMES,
    build_local_rep,
    canonical_family,
    conjugation_equivalence,
    specialize,
)
from .scalars import parse_gaussian

SUITES = (
    "two-local",
    "welded-two-local",
    "three-local",
    "forbidden-moves",
    "mod-p",
    "classical-braid",
)


def _spec_from(args) -> GroupSpec:
    c = args.c if args.c is not None or args.group in _FIXED_C else 1
    return make_spec(args.group, args.n, c)


def _bindings(items: list[str] | None, flag: str, parse) -> dict:
    """NAME=VALUE items of a repeatable flag; a repeated NAME is refused, and
    a VALUE that ``parse`` refuses is reported with its flag and item."""
    out = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"bad {flag} {item!r}; want name=value")
        if name in out:
            raise ValueError(f"{flag} {name} given more than once")
        try:
            out[name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"bad {flag} {item!r}; {exc}") from None
    return out


def _integer(text: str) -> int:
    """A plain decimal integer: an optional sign and digits, nothing else
    (``int`` alone would also take ``1_0`` and surrounding blanks)."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError("want an integer")
    return int(text)


def _check(tag: str, ok: bool, details: str) -> dict:
    return {"tag": tag, "status": "pass" if ok else "fail", "details": details}


def _emit(payload: dict, as_json: bool) -> int:
    checks = payload.get("checks", [])
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for c in checks:
            print(f"[{c['status']:>7}] {c['tag']}: {c['details']}")
        for line in payload.get("lines", []):
            print(line)
    return 1 if any(c["status"] == "fail" for c in checks) else 0


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    spec = _spec_from(args)
    rep = build_local_rep(args.family, spec)
    params = _bindings(args.param, "--param", parse_gaussian)
    if params:
        rep = specialize(rep, params)
    report = verify_relations(
        rep, mode="sampled" if args.sampled else "symbolic",
        seed=args.seed, samples=args.samples,
    )
    payload = {"command": "verify", "family": canonical_family(args.family)}
    payload.update(report.to_dict())
    payload["lines"] = [report.summary()]
    return _emit(payload, args.json)


def cmd_constraints(args) -> int:
    spec = _spec_from(args)
    system = generate_constraints(args.k, spec, args.tag or None, args.rho_form)
    payload = {
        "command": "constraints",
        "group": {"flavor": spec.flavor, "n": spec.n, "c": spec.c},
        "block_size": system.block_size,
        "rho_form": args.rho_form,
        "unknowns": list(system.unknowns),
        "count": len(system),
        "equations": [
            {"poly": str(e), "tags": tags}
            for e, tags in zip(system.equations, system.provenance)
        ],
        "checks": [],
        "lines": [f"{len(system)} equations in {len(system.unknowns)} unknowns"]
        + [
            f"  {e} = 0    [{', '.join(tags)}]"
            for e, tags in zip(system.equations, system.provenance)
        ],
    }
    return _emit(payload, args.json)


def cmd_enumerate(args) -> int:
    spec = _spec_from(args)
    system = generate_constraints(args.k, spec, args.tag or None, args.rho_form)
    invertible = system.invertibility if args.invertible_blocks else []
    fixed = _bindings(args.fixed, "--fixed", _integer)
    scan = enumerate_solutions_mod_p(system, args.mod, invertible, fixed or None)
    payload = {
        "command": "enumerate",
        "group": {"flavor": spec.flavor, "n": spec.n, "c": spec.c},
        "block_size": args.k,
        "rho_form": args.rho_form,
        "p": scan.p,
        "scanned_unknowns": list(scan.unknowns),
        "fixed": scan.fixed,
        "count": scan.count,
        "checks": [],
    }
    lines = [f"{scan.count} solutions mod {scan.p}"]
    # classify_virtual_point reads a 2x2 virtual block from r1..r4
    if args.k == 2 and scan.solutions and all(
        f"r{j}" in scan.solutions[0] for j in (1, 2, 3, 4)
    ):
        buckets = Counter(
            classify_virtual_point(s, scan.p) for s in scan.solutions
        )
        payload["classification"] = dict(sorted(buckets.items()))
        lines.append(
            "virtual-block classes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(buckets.items()))
        )
    if scan.count <= 50:
        payload["solutions"] = [dict(sorted(s.items())) for s in scan.solutions]
        lines += ["  " + str(dict(sorted(s.items()))) for s in scan.solutions]
    payload["lines"] = lines
    return _emit(payload, args.json)


def cmd_irreducibility(args) -> int:
    spec = _spec_from(args)
    params = _bindings(args.param, "--param", parse_gaussian)
    rep = build_local_rep(args.family, spec, params)
    gens = [mat for _g, mat in rep.generator_images()]
    dim = burnside_dim(gens)
    full = rep.degree * rep.degree
    oracle_verdict = "irreducible" if dim == full else "reducible"
    payload = {
        "command": "irreducibility",
        "family": canonical_family(args.family),
        "group": {"flavor": spec.flavor, "n": spec.n, "c": spec.c},
        "params": {k: str(v) for k, v in sorted(params.items())},
        "burnside_dim": dim,
        "full_dim": full,
        "checks": [],
    }
    checks = [
        _check(
            "algebra-dimension oracle",
            True,
            f"dim {dim} of {full} => {oracle_verdict}",
        )
    ]
    try:
        res = reducibility_at(rep)
    except (ValueError, AssertionError) as exc:
        # no criterion for this family is a pass; a criterion that
        # contradicts its own table is a failed check
        payload["criterion"] = None
        checks.append(
            _check("closed-form criterion", isinstance(exc, ValueError), str(exc))
        )
    else:
        payload["criterion"] = {
            "verdict": res.verdict,
            "witness_side": res.witness_side,
            "witness": str(res.witness) if res.witness is not None else None,
            "details": res.details,
        }
        checks.append(
            _check("closed-form criterion", True, f"{res.verdict}; " + "; ".join(res.details))
        )
        checks.append(
            _check(
                "criterion agrees with oracle",
                res.verdict == oracle_verdict,
                f"criterion={res.verdict}, oracle={oracle_verdict}",
            )
        )
    payload["checks"] = checks
    return _emit(payload, args.json)


def cmd_homomorphism(args) -> int:
    spec = _spec_from(args)
    w = parse_word(args.word, spec)
    if args.map == "phi":
        image = str(phi(w, args.t0, spec))
    elif args.map == "abelian":
        image = str(abelianize(w, spec))
    elif args.map == "iota":
        image = str(perm_image(w, spec, "iota_check"))
    else:
        image = str(perm_image(w, spec, args.map))
    payload = {
        "command": "homomorphism",
        "group": {"flavor": spec.flavor, "n": spec.n, "c": spec.c},
        "map": args.map,
        "word": str(w),
        "image": image,
        "checks": [],
        "lines": [f"{args.map}({w}) = {image}"],
    }
    return _emit(payload, args.json)


def cmd_word(args) -> int:
    spec = _spec_from(args)
    w = parse_word(args.word, spec)
    reduced = free_reduce(w, spec)
    payload = {
        "command": "word",
        "group": {"flavor": spec.flavor, "n": spec.n, "c": spec.c},
        "word": str(w),
        "reduced": str(reduced),
        "checks": [],
        "lines": [f"input:   {w}", f"reduced: {reduced}"],
    }
    return _emit(payload, args.json)


# ---------------------------------------------------------------------------
# suites


def _suite_two_local() -> list[dict]:
    checks = []
    spec = make_spec("uv", 3, 2)
    for fam in ("upsilon", "upsilon-prime"):
        report = verify_relations(build_local_rep(fam, spec))
        checks.append(
            _check(f"{fam} satisfies {spec.describe()}", report.all_passed, report.summary())
        )
    system = generate_constraints(2, make_spec("uv", 3, 1))
    checks.append(
        _check(
            "generic 2x2 blocks force 15 equations",
            len(system) == 15,
            f"{len(system)} equations in {len(system.unknowns)} unknowns",
        )
    )
    wit = conjugation_equivalence(
        build_local_rep("upsilon", spec), build_local_rep("upsilon-prime", spec)
    )
    checks.append(
        _check(
            "diagonal conjugation carries the two-parameter family to the normalized one",
            wit is not None,
            str(wit) if wit else "no witness found",
        )
    )
    return checks


def _suite_welded_two_local() -> list[dict]:
    checks = []
    spec = make_spec("uw", 3, 1)
    for fam in ("omega1", "omega2", "omega3", "omega1p", "omega2p", "omega3p"):
        report = verify_relations(build_local_rep(fam, spec))
        checks.append(
            _check(f"{fam} satisfies {spec.describe()}", report.all_passed, report.summary())
        )
    system = generate_constraints(
        2, spec, ["WR1[i=1,t=1]"], rho_form="antidiagonal"
    )
    checks.append(
        _check(
            "the welded relation adds 3 equations over the antidiagonal virtual block",
            len(system) == 3,
            "; ".join(str(e) for e in system.equations),
        )
    )
    for a, b in (("omega1", "omega1p"), ("omega2", "omega2p"), ("omega3", "omega3p")):
        wit = conjugation_equivalence(
            build_local_rep(a, spec), build_local_rep(b, spec)
        )
        checks.append(
            _check(
                f"{a} is conjugate to {b}",
                wit is not None,
                str(wit) if wit else "no witness found",
            )
        )
    return checks


_EPSILON_SAMPLE = {
    "epsilon1": {"r6": 2, "s5_1": 1, "s6_1": 2, "s8_1": 3, "s9_1": 5,
                 "s5_2": 2, "s6_2": 1, "s8_2": 1, "s9_2": 1},
    "epsilon2": {"r2": 2, "s1_1": 1, "s2_1": 2, "s4_1": 3, "s5_1": 5,
                 "s1_2": 2, "s2_2": 1, "s4_2": 1, "s5_2": 1},
    "epsilon3": {"r6": 2, "s4_1": 1, "s5_1": 3, "s4_2": 2, "s5_2": 1},
    "epsilon4": {"r2": 2, "s5_1": 3, "s8_1": 1, "s5_2": 1, "s8_2": 2},
}


def _suite_three_local() -> list[dict]:
    checks = []
    spec = make_spec("uv", 4, 2)
    for fam in ("epsilon1", "epsilon2", "epsilon3", "epsilon4"):
        rep = build_local_rep(fam, spec)
        report = verify_relations(rep)
        checks.append(
            _check(f"{fam} satisfies {spec.describe()}", report.all_passed, report.summary())
        )
        point = specialize(rep, _EPSILON_SAMPLE[fam])
        tag = f"{fam} is reducible with a verified invariant line"
        try:
            res = reducibility_at(point)
        except AssertionError as exc:
            checks.append(_check(tag, False, f"closed-form criterion: {exc}"))
            continue
        dim = burnside_dim([m for _g, m in point.generator_images()])
        full = rep.degree * rep.degree
        checks.append(
            _check(
                tag,
                res.verdict == "reducible" and dim < full,
                f"witness {res.witness_side} {res.witness}; algebra dim {dim} < {full}",
            )
        )
    return checks


def _suite_forbidden_moves() -> list[dict]:
    checks = []
    spec = make_spec("uv", 3, 2)
    for rel in forbidden_moves(spec):
        out = factor_check(rel, spec, "phi", t0=1)
        checks.append(
            _check(
                f"splitting map separates {rel.tag}",
                out.verdict == "distinguishes",
                str(out),
            )
        )
    bad = [
        str(out)
        for rel in relations(spec)
        if (out := factor_check(rel, spec, "phi", t0=1)).verdict != "kills"
    ]
    checks.append(
        _check(
            "splitting map respects every defining relation",
            not bad,
            "all killed" if not bad else "; ".join(bad),
        )
    )
    return checks


def _suite_mod_p(p: int = 5) -> list[dict]:
    checks = []
    spec = make_spec("uv", 3, 1)
    rho_sys = generate_constraints(2, spec, ["PR1[i=1]", "PR3[i=1]"])
    det_r, det_s = rho_sys.invertibility
    scan = enumerate_solutions_mod_p(rho_sys, p, [det_r])
    buckets = Counter(classify_virtual_point(s, p) for s in scan.solutions)
    checks.append(
        _check(
            f"virtual 2x2 blocks mod {p}: identity plus antidiagonal family",
            scan.count == p
            and buckets["identity"] == 1
            and buckets["antidiagonal"] == p - 1
            and buckets["other"] == 0,
            f"{scan.count} solutions: {dict(sorted(buckets.items()))}",
        )
    )
    full_sys = generate_constraints(2, spec)
    gl2 = (p * p - 1) * (p * p - p)
    ok = True
    notes = []
    for sol in scan.solutions:
        sub = enumerate_solutions_mod_p(full_sys, p, [det_s], fixed=sol)
        kind = classify_virtual_point(sol, p)
        want = 1 if kind == "identity" else gl2
        ok &= sub.count == want
        notes.append(f"{kind}: {sub.count}")
    checks.append(
        _check(
            f"crossing-block freedom mod {p}: forced identity vs full GL2",
            ok,
            f"expected identity->1, antidiagonal->{gl2}; got " + ", ".join(notes),
        )
    )
    return checks


def _suite_classical_braid() -> list[dict]:
    checks = []
    spec = make_spec("vb", 4)
    for fam in ("burau", "f-rep"):
        report = verify_relations(build_local_rep(fam, spec))
        n_checked = sum(1 for o in report.outcomes if o.status == "pass")
        checks.append(
            _check(
                f"{fam} satisfies the braid and commutation relations",
                report.all_passed and n_checked > 0,
                report.summary(),
            )
        )
    return checks


_SUITE_FUNCS = {
    "two-local": _suite_two_local,
    "welded-two-local": _suite_welded_two_local,
    "three-local": _suite_three_local,
    "forbidden-moves": _suite_forbidden_moves,
    "mod-p": _suite_mod_p,
    "classical-braid": _suite_classical_braid,
}


def cmd_suite(args) -> int:
    names = list(SUITES) if args.name == "all" else [args.name]
    checks = []
    for name in names:
        checks.extend(_SUITE_FUNCS[name]())
    payload = {"command": "suite", "name": args.name, "checks": checks}
    return _emit(payload, args.json)


# ---------------------------------------------------------------------------
# parser


def _add_group_flags(sub):
    sub.add_argument("--group", choices=FLAVORS, default="uv", help="group flavor")
    sub.add_argument("--n", type=int, default=3, help="number of strands")
    sub.add_argument(
        "--c",
        type=int,
        help="number of crossing types (marked index for mvb/mwb); "
        "default: the flavor's fixed c, else 1",
    )
    sub.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a stable JSON report",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uvbraid",
        description="verification laboratory for universal virtual and welded braid groups",
    )
    ap.add_argument("--json", action="store_true", help="emit a stable JSON report")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a representation family against relations")
    _add_group_flags(p)
    p.add_argument("--family", required=True, help=f"one of {', '.join(FAMILY_NAMES)}")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="bind a parameter; repeat to bind every one")
    p.add_argument("--sampled", action="store_true",
                   help="advisory check at random points instead of a symbolic proof")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constraints", help="derive the generic-block equations")
    _add_group_flags(p)
    p.add_argument("--k", type=int, default=2, help="block size (2 or 3)")
    p.add_argument("--tag", action="append", help="restrict to these relation tags")
    p.add_argument("--rho-form", choices=("generic", "antidiagonal"), default="generic")
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("enumerate", help="solve the equations over a small prime field")
    _add_group_flags(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tag", action="append")
    p.add_argument("--rho-form", choices=("generic", "antidiagonal"), default="generic")
    p.add_argument("--mod", type=int, required=True, metavar="P", help="odd prime, 3..13")
    p.add_argument("--invertible-blocks", action="store_true",
                   help="require block determinants nonzero")
    p.add_argument("--fixed", action="append", metavar="NAME=INT",
                   help="pre-bind an unknown (repeatable)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("irreducibility",
                       help="closed-form criterion plus algebra-dimension oracle")
    _add_group_flags(p)
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE", required=True)
    p.set_defaults(func=cmd_irreducibility)

    p = sub.add_parser("homomorphism", help="evaluate a quotient map on a word")
    _add_group_flags(p)
    p.add_argument("--map", choices=("piP", "piK", "iota", "phi", "abelian"),
                   required=True)
    p.add_argument("--t0", type=int, default=1, help="marker type for phi")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_homomorphism)

    p = sub.add_parser("word", help="parse and freely reduce a word")
    _add_group_flags(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("suite", help="run a bundled verification battery")
    p.add_argument("--name", choices=SUITES + ("all",), default="all")
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit a stable JSON report")
    p.set_defaults(func=cmd_suite)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
