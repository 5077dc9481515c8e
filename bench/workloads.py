"""The benchmark's three workloads: fixed job lists with known answers.

A job's ``run`` is the timed call into uvbraid's public API; its ``check``
compares the output with a known answer, outside the timed region, and
returns a problem string or ``None``.  The seed picks parameter points and
job order; the library receives only the generated inputs.  Jobs resolve
library functions through the ``uvbraid`` namespaces at call time, so the
tracer's wrappers see every call.

Why these workloads (see README.md for the full rationale):

* ``verify-ladder`` spends its time in symbolic scalars, matrix products and
  word evaluation, and grows with n: it exercises locality-based verification
  and bypasses Burnside and the finite-field scan.
* ``oracle-sampling`` spends its time in constant Q(i) arithmetic inside the
  Burnside closure, with almost no polynomial work: it exercises a modular
  Burnside and bypasses the symbolic and scan paths.
* ``constraint-scan`` spends its time and memory in the dense finite-field
  grid, driven through the CLI: it exercises a staged solver and is the only
  workload that goes through ``cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import uvbraid as ub
import uvbraid.cli  # noqa: F401  (binds ub.cli)

WORKLOADS = ("verify-ladder", "oracle-sampling", "constraint-scan")
SIZES = ("full", "smoke")
# workloads whose times are scaled to a reference host speed: their time goes
# to the interpreter, whose speed the calibration follows.  constraint-scan's
# goes to numpy, which did not slow down with the calibration, and
# calibrating during its scans would time the calibration on caches the scan
# has just flushed.
SCALED = ("verify-ladder", "oracle-sampling")


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    top: bool = False


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The seeded job list of one workload, in seeded order."""
    if workload not in WORKLOADS or size not in SIZES:
        raise ValueError(f"unknown workload {workload!r} or size {size!r}")
    rng = random.Random(f"{workload}/{seed}")
    builder = {
        "verify-ladder": _verify_ladder,
        "oracle-sampling": _oracle_sampling,
        "constraint-scan": _constraint_scan,
    }[workload]
    jobs = builder(rng, size == "smoke")
    rng.shuffle(jobs)
    return jobs


def _nz(rng: random.Random, bound: int) -> int:
    return rng.choice([x for x in range(-bound, bound + 1) if x])


def _invertible_block(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    """Nonzero a, b, c, d with a*d - b*c != 0."""
    while True:
        a, b, c, d = (_nz(rng, bound) for _ in range(4))
        if a * d != b * c:
            return a, b, c, d


# ---------------------------------------------------------------------------
# verify-ladder: symbolic verify_relations


def _has_rho(rel) -> bool:
    return any(g.kind == "rho" for w in (rel.lhs, rel.rhs) for g, _e in w.letters)


def _verify_job(family, flavor, n, c=None, point=None, top=False) -> Job:
    def run():
        spec = ub.make_spec(flavor, n, c)
        rep = ub.build_local_rep(family, spec)
        if point is not None:
            rep = ub.specialize(rep, point)
        return ub.verify_relations(rep)

    def check(report) -> str | None:
        rels = ub.relations(ub.make_spec(flavor, n, c))
        mode = "symbolic" if point is None else "specialized"
        if report.mode != mode:
            return f"mode {report.mode}, expected {mode}"
        if [o.tag for o in report.outcomes] != [r.tag for r in rels]:
            return f"{len(report.outcomes)} outcomes for {len(rels)} relations"
        for o, rel in zip(report.outcomes, rels):
            # the classical blocks have no virtual block, so rho relations skip
            skip = family in ("burau", "f-rep") and _has_rho(rel)
            want = "skipped" if skip else "pass"
            if o.status != want:
                return f"{o.tag}: {o.status}, expected {want} ({o.detail})"
        return None

    where = f"{flavor}({n})" if c is None else f"{flavor}({n},{c})"
    kind = "specialized " if point is not None else ""
    return Job(f"verify {kind}{family} {where}", run, check, top)


def _upsilon_point(rng: random.Random, c: int) -> dict:
    point = {"r2": _nz(rng, 9)}
    for t in range(1, c + 1):
        for j, v in zip((1, 2, 3, 4), _invertible_block(rng, 9)):
            point[f"s{j}_{t}"] = v
    return point


def _verify_ladder(rng: random.Random, smoke: bool) -> list[Job]:
    ns = (3, 4) if smoke else (4, 6, 8, 10, 12)
    big = ns[-1]
    jobs = [_verify_job("upsilon", "uv", n, 3, top=n == big) for n in ns]
    jobs.append(_verify_job("upsilon-prime", "uv", 4 if smoke else 10, 3))
    for fam in ("omega1", "omega2", "omega3"):
        jobs.append(_verify_job(fam, "uw", 3 if smoke else 8, 2))
    for fam in ("epsilon1", "epsilon2", "epsilon3", "epsilon4"):
        jobs.append(_verify_job(fam, "uv", 3 if smoke else 6, 2))
    for fam in ("burau", "f-rep"):
        jobs.append(_verify_job(fam, "vb", 4 if smoke else 10))
    jobs.append(_verify_job("upsilon", "uv", big, 3, point=_upsilon_point(rng, 3)))
    return jobs


# ---------------------------------------------------------------------------
# oracle-sampling: criterion + Burnside + spin + invariant_check per point


@dataclass
class OracleOutcome:
    verdict: str
    burnside: int
    degree: int
    spun: int
    witness_ok: bool | None


def _oracle_job(family, flavor, n, c, point, expected, top=False) -> Job:
    def run() -> OracleOutcome:
        spec = ub.make_spec(flavor, n, c)
        res = ub.reducibility_criterion(family, spec, point)
        rep = ub.build_local_rep(family, spec, point)
        gens = [mat for _g, mat in rep.generator_images()]
        dim = ub.burnside_dim(gens)
        m = rep.degree
        if res.verdict == "reducible":
            ok = ub.invariant_check(gens, res.witness, res.witness_side)
            if res.witness_side == "column":
                spun = ub.spin(gens, [res.witness])
            else:  # a row witness spans an invariant line of the transposes
                spun = ub.spin([g.transpose() for g in gens], [res.witness.transpose()])
        else:
            ok = None
            spun = ub.spin(gens, [ub.Matrix.column(rep.ring, [1] + [0] * (m - 1))])
        return OracleOutcome(res.verdict, dim, m, len(spun), ok)

    def check(out: OracleOutcome) -> str | None:
        full = out.degree * out.degree
        if out.verdict != expected:
            return f"verdict {out.verdict}, expected {expected}"
        if (out.burnside == full) != (out.verdict == "irreducible"):
            return f"criterion says {out.verdict} but algebra dim is {out.burnside}/{full}"
        if out.verdict == "reducible" and not out.witness_ok:
            return "reducible witness fails invariant_check"
        want_spun = 1 if out.verdict == "reducible" else out.degree
        if out.spun != want_spun:
            return f"spin gave dimension {out.spun}, expected {want_spun}"
        return None

    where = f"{flavor}({n},{c})"
    side = {"reducible": "on", "irreducible": "off"}[expected]
    return Job(f"oracle {family} {where} {side}-locus", run, check, top)


def _upsilon_prime_point(rng: random.Random, on_locus: bool) -> dict:
    while True:
        if on_locus and rng.random() < 0.5:  # row sums 1
            s1, s3 = _nz(rng, 6), _nz(rng, 6)
            s2, s4 = 1 - s1, 1 - s3
        elif on_locus:  # column sums 1
            s1, s2 = _nz(rng, 6), _nz(rng, 6)
            s3, s4 = 1 - s1, 1 - s2
        else:
            s1, s2, s3, s4 = (_nz(rng, 6) for _ in range(4))
            if (s1 + s2 == 1 and s3 + s4 == 1) or (s1 + s3 == 1 and s2 + s4 == 1):
                continue
        if s1 * s4 != s2 * s3:
            return {"s1_1": s1, "s2_1": s2, "s3_1": s3, "s4_1": s4}


def _omega_prime_point(rng: random.Random, which: int, on_locus: bool) -> dict:
    """Points on and off the reducibility locus of omega{which}p over c = 1."""
    while True:
        r2, a, b = _nz(rng, 6), _nz(rng, 6), _nz(rng, 6)
        q = Fraction(a, r2)
        if which == 1:
            if on_locus:
                return {"r2": r2, "s2_1": r2, "s3_1": Fraction(1, r2)}
            if a != r2 or b * r2 != 1:
                return {"r2": r2, "s2_1": a, "s3_1": b}
        elif on_locus:
            if a != r2:  # keeps the derived entry nonzero
                key = "s4_1" if which == 2 else "s1_1"
                return {"r2": r2, "s2_1": a, key: 1 - q}
        elif q + b != 1:
            return {"r2": r2, "s2_1": a, ("s4_1" if which == 2 else "s1_1"): b}


# epsilon family -> (virtual parameter, sigma stems, stems form a 2x2 block)
_EPSILON_PARAMS = {
    "epsilon1": ("r6", ("s5", "s6", "s8", "s9"), True),
    "epsilon2": ("r2", ("s1", "s2", "s4", "s5"), True),
    "epsilon3": ("r6", ("s4", "s5"), False),
    "epsilon4": ("r2", ("s5", "s8"), False),
}


def _epsilon_point(rng: random.Random, family: str) -> dict:
    virtual, stems, block = _EPSILON_PARAMS[family]
    point = {virtual: _nz(rng, 9)}
    for t in (1, 2):
        vals = _invertible_block(rng, 9) if block else [_nz(rng, 9) for _ in stems]
        point.update({f"{s}_{t}": v for s, v in zip(stems, vals)})
    return point


def _oracle_sampling(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = []
    up_ns = (3, 4) if smoke else (3, 4, 5, 6, 8)
    for n in up_ns:
        for on in (True, False):
            jobs.append(_oracle_job(
                "upsilon-prime", "uv", n, 1, _upsilon_prime_point(rng, on),
                "reducible" if on else "irreducible", top=n == up_ns[-1],
            ))
    for which in (1, 2, 3):
        for n in (3,) if smoke else (3, 4, 5, 6):
            for on in (True, False):
                jobs.append(_oracle_job(
                    f"omega{which}p", "uw", n, 1, _omega_prime_point(rng, which, on),
                    "reducible" if on else "irreducible",
                ))
    for fam in _EPSILON_PARAMS:
        jobs.append(_oracle_job(
            fam, "uv", 3 if smoke else 4, 2, _epsilon_point(rng, fam), "reducible"
        ))
    return jobs


# ---------------------------------------------------------------------------
# constraint-scan: the CLI's constraints and enumerate commands


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ub.cli.main(argv + ["--json"])
    return rc, out.getvalue(), err.getvalue()


def _cli_job(label: str, argv: list[str], check_payload, top=False) -> Job:
    def check(result) -> str | None:
        rc, out, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        return check_payload(json.loads(out))

    return Job(label, lambda: _cli(argv), check, top)


def _block_map(rep, k: int) -> dict:
    """Generic block unknowns (r1.., s1_t..) -> the family's block entries."""
    out = {}
    blocks = [("r", rep.rho_block)] + [(f"_{t}", b) for t, b in rep.sigma_blocks.items()]
    for tag, blk in blocks:
        for a in range(k):
            for b in range(k):
                name = f"r{a * k + b + 1}" if tag == "r" else f"s{a * k + b + 1}{tag}"
                out[name] = blk.rows[a][b]
    return out


def _vanishes_on(k: int, n: int, c: int, families: tuple[str, ...]):
    """Check: the CLI printed the k-block system of uv(n,c), and every family
    listed solves it exactly (each equation substitutes to zero)."""

    def check(payload) -> str | None:
        spec = ub.make_spec("uv", n, c)
        system = ub.generate_constraints(k, spec)
        printed = [e["poly"] for e in payload["equations"]]
        if printed != [str(e) for e in system.equations]:
            return f"printed {len(printed)} equations, library gives {len(system)}"
        for fam in families:
            rep = ub.build_local_rep(fam, spec)
            values = system.substitute(_block_map(rep, k), rep.ring)
            bad = [i for i, v in enumerate(values) if not v.is_zero()]
            if bad:
                return f"{fam} does not solve equations {bad}"
        return None

    return check


def _expect(**want):
    def check(payload) -> str | None:
        got = {key: payload.get(key) for key in want}
        return None if got == want else f"got {got}, expected {want}"

    return check


def _constraint_scan(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = [
        _cli_job(
            "constraints k=2 uv(3,1)",
            ["constraints", "--n", "3", "--c", "1"],
            lambda pl: None if (pl["count"], len(pl["unknowns"])) == (15, 8)
            else f"{pl['count']} equations in {len(pl['unknowns'])} unknowns, expected 15 in 8",
        ),
        _cli_job(
            "constraints welded WR1 antidiagonal uw(3,1)",
            ["constraints", "--group", "uw", "--n", "3", "--c", "1",
             "--tag", "WR1[i=1,t=1]", "--rho-form", "antidiagonal"],
            _expect(count=3),
        ),
    ]
    for n in (4,) if smoke else (4, 5, 6):
        c = rng.choice((1, 2))
        jobs.append(_cli_job(
            f"constraints k=2 uv({n},{c})",
            ["constraints", "--n", str(n), "--c", str(c)],
            _vanishes_on(2, n, c, ("upsilon",)),
        ))
    for n in (3,) if smoke else (4, 5):
        jobs.append(_cli_job(
            f"constraints k=3 uv({n},2)",
            ["constraints", "--k", "3", "--n", str(n), "--c", "2"],
            _vanishes_on(3, n, 2, tuple(_EPSILON_PARAMS)),
        ))

    base = ["enumerate", "--n", "3", "--c", "1"]
    for p in (3, 5) if smoke else (5, 7, 11):
        mod = ["--mod", str(p)]
        jobs.append(_cli_job(
            f"enumerate virtual subsystem p={p}",
            base + mod + ["--tag", "PR1[i=1]", "--tag", "PR3[i=1]"],
            _expect(count=p, classification={"antidiagonal": p - 1, "identity": 1}),
        ))
        identity = {"r1": 1, "r2": 0, "r3": 0, "r4": 1}
        jobs.append(_cli_job(
            f"enumerate fixed identity p={p}",
            base + mod + ["--invertible-blocks"] + _fixed(identity),
            _expect(count=1),
        ))
        gl2 = (p * p - 1) * (p * p - p)
        for a in rng.sample(range(1, p), 2):
            anti = {"r1": 0, "r2": a, "r3": pow(a, -1, p), "r4": 0}
            jobs.append(_cli_job(
                f"enumerate fixed antidiagonal r2={a} p={p}",
                base + mod + ["--invertible-blocks"] + _fixed(anti),
                _expect(count=gl2),
            ))
    dense = (3,) if smoke else (5, 7)
    for p in dense:
        jobs.append(_cli_job(
            f"enumerate dense full system p={p}",
            base + ["--mod", str(p)],
            _expect(count=1 + (p - 1) * p**4),
            top=p == dense[-1],
        ))
    return jobs


def _fixed(values: dict) -> list[str]:
    return [arg for k, v in values.items() for arg in ("--fixed", f"{k}={v}")]
