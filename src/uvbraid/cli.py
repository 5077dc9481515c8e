"""Command-line front end.

Commands map one-to-one onto the library API: ``verify`` runs a relation
check for a representation family, ``constraints`` and ``enumerate`` expose
the generic-block constraint systems and their finite-field scans,
``irreducibility`` runs the closed-form criterion next to the algebra
dimension oracle, ``homomorphism`` and ``word`` evaluate quotient maps and
rewrite words, and ``suite`` runs the ``_CLAIMS`` table: one row per paper
claim, each row a check function applied to one group.

Output is a human-readable report, or with ``--json`` a stable JSON
document (identical invocations produce byte-identical output; nothing is
timestamped or environment-dependent).  Exit status: 0 when no check
failed, 1 when at least one did (or, for ``verify``, when every relation
was skipped), 2 on usage errors, 141 (128 + SIGPIPE) when standard output
is closed before the report is written, with nothing printed on standard
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .analysis import (
    _VIRTUAL,
    burnside_dim,
    classify_virtual_cells,
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
    conjugation_equivalence,
    specialize,
)
from .scalars import parse_gaussian

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
    try:
        params = _bindings(args.param, "--param", parse_gaussian)
    except ValueError:
        build_local_rep(args.family, spec)  # an unknown or refused family is reported first
        raise
    rep = build_local_rep(args.family, spec, params or "symbolic")
    report = verify_relations(rep)
    payload = {"command": "verify", "family": rep.name}
    payload.update(report.to_dict())
    payload["lines"] = [report.summary()]
    # as in a suite's family row, a run whose every relation was skipped fails
    return max(_emit(payload, args.json), 0 if report.checked else 1)


def cmd_constraints(args) -> int:
    spec = _spec_from(args)
    system = generate_constraints(args.k, spec, args.tag or None, args.rho_form)
    printed = [(str(e), tags) for e, tags in zip(system.equations, system.provenance)]
    payload = {
        "command": "constraints",
        "group": spec.to_dict(),
        "block_size": system.block_size,
        "rho_form": args.rho_form,
        "unknowns": list(system.unknowns),
        "count": len(system),
        "equations": [{"poly": e, "tags": tags} for e, tags in printed],
        "checks": [],
        "lines": [f"{len(system)} equations in {len(system.unknowns)} unknowns"]
        + [f"  {e} = 0    [{', '.join(tags)}]" for e, tags in printed],
    }
    return _emit(payload, args.json)


def cmd_enumerate(args) -> int:
    spec = _spec_from(args)
    system = generate_constraints(args.k, spec, args.tag or None, args.rho_form)
    invertible = system.invertibility if args.invertible_blocks else []
    fixed = _bindings(args.fixed, "--fixed", _integer)
    scan = enumerate_solutions_mod_p(system, args.mod, invertible, fixed or None)
    # a 2x2 virtual block is read from r1..r4; its classes sum to the count
    buckets = classify_virtual_cells(scan) if args.k == 2 else None
    count = scan.count if buckets is None else sum(buckets.values())
    payload = {
        "command": "enumerate",
        "group": spec.to_dict(),
        "block_size": args.k,
        "rho_form": args.rho_form,
        "p": scan.p,
        "scanned_unknowns": list(scan.unknowns),
        "fixed": scan.fixed,
        "count": count,
        "checks": [],
    }
    lines = [f"{count} solutions mod {scan.p}"]
    if buckets:  # none when there is no solution
        payload["classification"] = dict(sorted(buckets.items()))
        lines.append(
            "virtual-block classes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(buckets.items()))
        )
    if count <= 50:
        payload["solutions"] = [dict(sorted(s.items())) for s in scan.solutions]
        lines += ["  " + str(s) for s in payload["solutions"]]
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
        "family": rep.name,
        "group": spec.to_dict(),
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
        "group": spec.to_dict(),
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
        "group": spec.to_dict(),
        "word": str(w),
        "reduced": str(reduced),
        "checks": [],
        "lines": [f"input:   {w}", f"reduced: {reduced}"],
    }
    return _emit(payload, args.json)


# ---------------------------------------------------------------------------
# suites


def _family(spec, fam, tag="{fam} satisfies {spec}", point=None) -> list[dict]:
    """Verify ``fam`` on ``spec``; at least one relation must be checked, so
    a family whose every relation is skipped fails.  Given a parameter
    ``point``, also show the same rep reducible there: the closed-form
    criterion's witness next to the algebra-dimension oracle."""
    rep = build_local_rep(fam, spec)
    report = verify_relations(rep)
    tag = tag.format(fam=fam, spec=spec.describe())
    checks = [_check(tag, report.all_passed and report.checked, report.summary())]
    if point is None:
        return checks
    at = specialize(rep, point)
    tag = f"{fam} is reducible with a verified invariant line"
    try:
        res = reducibility_at(at)
    except AssertionError as exc:
        return checks + [_check(tag, False, f"closed-form criterion: {exc}")]
    dim = burnside_dim([m for _g, m in at.generator_images()])
    full = rep.degree * rep.degree
    details = f"witness {res.witness_side} {res.witness}; algebra dim {dim} < {full}"
    return checks + [_check(tag, res.verdict == "reducible" and dim < full, details)]


def _equations(spec, want, tag, tags=None, rho_form="generic") -> list[dict]:
    """The generic 2x2 system has ``want`` equations.  A system restricted to
    ``tags`` is small enough to list; the full one reports its size."""
    system = generate_constraints(2, spec, tags, rho_form)
    if tags:
        details = "; ".join(str(e) for e in system.equations)
    else:
        details = f"{len(system)} equations in {len(system.unknowns)} unknowns"
    return [_check(tag, len(system) == want, details)]


def _conjugate(spec, a, b, tag="{a} is conjugate to {b}") -> list[dict]:
    wit = conjugation_equivalence(build_local_rep(a, spec), build_local_rep(b, spec))
    details = str(wit) if wit else "no witness found"
    return [_check(tag.format(a=a, b=b), wit is not None, details)]


def _forbidden(spec) -> list[dict]:
    """The splitting map phi separates each forbidden move and kills every
    defining relation."""
    checks = [
        _check(f"splitting map separates {rel.tag}", out.verdict == "distinguishes", str(out))
        for rel in forbidden_moves(spec)
        for out in [factor_check(rel, spec, "phi", t0=1)]
    ]
    outs = [factor_check(rel, spec, "phi", t0=1) for rel in relations(spec)]
    bad = [str(out) for out in outs if out.verdict != "kills"]
    tag = "splitting map respects every defining relation"
    return checks + [_check(tag, not bad, "; ".join(bad) or "all killed")]


def _mod_p(spec, p) -> list[dict]:
    """Over F_p the virtual 2x2 blocks are the identity plus an antidiagonal
    family; the identity forces the crossing block, the others leave GL2,
    counted per virtual block in one invertible scan of the full system."""
    rho_sys = generate_constraints(2, spec, ["PR1[i=1]", "PR3[i=1]"])
    det_r, det_s = rho_sys.invertibility
    scan = enumerate_solutions_mod_p(rho_sys, p, [det_r])
    buckets = classify_virtual_cells(scan)
    tag = f"virtual 2x2 blocks mod {p}: identity plus antidiagonal family"
    ok = scan.count == p and buckets == {"identity": 1, "antidiagonal": p - 1}
    checks = [_check(tag, ok, f"{scan.count} solutions: {dict(sorted(buckets.items()))}")]
    full = enumerate_solutions_mod_p(generate_constraints(2, spec), p, [det_r, det_s])
    freedom = full.tally(_VIRTUAL)
    gl2 = (p * p - 1) * (p * p - p)
    ok = True
    notes = []
    for sol in scan.solutions:
        kind = classify_virtual_point(sol, p)
        count = freedom[tuple(sol[v] for v in _VIRTUAL)]
        ok &= count == (1 if kind == "identity" else gl2)
        notes.append(f"{kind}: {count}")
    tag = f"crossing-block freedom mod {p}: forced identity vs full GL2"
    details = f"expected identity->1, antidiagonal->{gl2}; got " + ", ".join(notes)
    return checks + [_check(tag, ok, details)]


# A claim row is (suite, (flavor, n, c), check, *args); ``check`` takes the
# row's spec and args and returns its checks.  A suite runs its rows in order.
_CLAIMS = (
    # 2-local representations of UV_n(c) are unique up to equivalence
    ("two-local", ("uv", 3, 2), _family, "upsilon"),
    ("two-local", ("uv", 3, 2), _family, "upsilon-prime"),
    ("two-local", ("uv", 3, 1), _equations, 15, "generic 2x2 blocks force 15 equations"),
    ("two-local", ("uv", 3, 2), _conjugate, "upsilon", "upsilon-prime",
     "diagonal conjugation carries the two-parameter family to the normalized one"),
    # UW_n(c) has three distinct families of 2-local representations
    *(("welded-two-local", ("uw", 3, 1), _family, fam)
      for fam in ("omega1", "omega2", "omega3", "omega1p", "omega2p", "omega3p")),
    ("welded-two-local", ("uw", 3, 1), _equations, 3,
     "the welded relation adds 3 equations over the antidiagonal virtual block",
     ["WR1[i=1,t=1]"], "antidiagonal"),
    *(("welded-two-local", ("uw", 3, 1), _conjugate, f"omega{j}", f"omega{j}p")
      for j in (1, 2, 3)),
    # UV_n(2) has four distinct 3-local families, each reducible at a point
    ("three-local", ("uv", 4, 2), _family, "epsilon1", "{fam} satisfies {spec}",
     {"r6": 2, "s5_1": 1, "s6_1": 2, "s8_1": 3, "s9_1": 5,
      "s5_2": 2, "s6_2": 1, "s8_2": 1, "s9_2": 1}),
    ("three-local", ("uv", 4, 2), _family, "epsilon2", "{fam} satisfies {spec}",
     {"r2": 2, "s1_1": 1, "s2_1": 2, "s4_1": 3, "s5_1": 5,
      "s1_2": 2, "s2_2": 1, "s4_2": 1, "s5_2": 1}),
    ("three-local", ("uv", 4, 2), _family, "epsilon3", "{fam} satisfies {spec}",
     {"r6": 2, "s4_1": 1, "s5_1": 3, "s4_2": 2, "s5_2": 1}),
    ("three-local", ("uv", 4, 2), _family, "epsilon4", "{fam} satisfies {spec}",
     {"r2": 2, "s5_1": 3, "s8_1": 1, "s5_2": 1, "s8_2": 2}),
    # the forbidden moves do not hold in UV_n(c): phi separates them
    ("forbidden-moves", ("uv", 3, 2), _forbidden),
    # the 2-local classification of UV_n(c), counted over a prime field
    ("mod-p", ("uv", 3, 1), _mod_p, 5),
    # the classical Burau and F-representations on the virtual braid group
    ("classical-braid", ("vb", 4, 1), _family, "burau",
     "{fam} satisfies the braid and commutation relations"),
    ("classical-braid", ("vb", 4, 1), _family, "f-rep",
     "{fam} satisfies the braid and commutation relations"),
)

SUITES = tuple(dict.fromkeys(row[0] for row in _CLAIMS))


def cmd_suite(args) -> int:
    checks = []
    for suite, (flavor, n, c), check, *rest in _CLAIMS:
        if args.name in ("all", suite):
            checks += check(make_spec(flavor, n, c), *rest)
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


def _add_system_flags(sub):
    sub.add_argument("--k", type=int, default=2, help="block size (2 or 3)")
    sub.add_argument("--tag", action="append", help="restrict to these relation tags")
    sub.add_argument("--rho-form", choices=("generic", "antidiagonal"), default="generic",
                     help="shape of the virtual block")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: ``parse_args`` builds a fresh namespace
    per call, and the ``append`` flags copy their lists."""
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
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constraints", help="derive the generic-block equations")
    _add_group_flags(p)
    _add_system_flags(p)
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("enumerate", help="solve the equations over a small prime field")
    _add_group_flags(p)
    _add_system_flags(p)
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed standard output early: send what Python still
        # flushes at exit to devnull, so that no second error is printed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed


if __name__ == "__main__":
    sys.exit(main())
