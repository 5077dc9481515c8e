"""uvbraid benchmark: time-to-verdict on three workloads.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout.  Each pass of the workload's job list runs
in a fresh child interpreter (``worker.py``), one at a time, each followed by
one fresh interpreter that only imports uvbraid, until another pass would
overrun ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json: the median pass's wall and top-rung times, the largest
pass's peak memory, and the median import time of the fresh interpreters.
Wall and top-rung times are scaled to a reference host speed, job by job, by
a fixed calibration timed around and during every job (``worker.calibrate``):
on a shared host the speed of pure-Python code drifts over minutes, and the
scaled times do not follow it.  With ``--trace 1`` it runs one pass
untraced and one traced and reports the per-layer metrics, including the
tracing overhead.  ``--smoke`` runs every job list at a tiny size.

Every metric is printed as ``name = value unit``; the last line of standard
output is the JSON result.  A run record (versions, seed, job counts, every
pass) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify-ladder", "oracle-sampling", "constraint-scan")
DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_RUNS = 7
# worker.calibrate()'s time, in seconds, on the host that wall_s and
# top_rung_s are scaled to; about its fastest on a 2-vCPU Intel Xeon VM
CALIB_REF_S = 0.0017
SETUP_PROBE = "import time, uvbraid, uvbraid.cli; print(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args, trace: int, timeout: float, top_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", "smoke" if args.smoke else "full", "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.npz")]
    if top_only:
        cmd.append("--top-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed"] = time.monotonic() - started
    record["top_only"] = top_only
    record["raw_wall_s"] = sum(j["seconds"] for j in record["jobs"])
    record["raw_top_s"] = sum(j["seconds"] for j in record["jobs"] if j["top"])
    if not trace:
        record["wall_s"] = sum(map(reference_seconds, record["jobs"]))
        record["top_rung_s"] = sum(reference_seconds(j) for j in record["jobs"] if j["top"])
    return record


def reference_seconds(job: dict) -> float:
    """The job's seconds on a host where ``worker.calibrate()`` takes
    ``CALIB_REF_S``: the measured seconds times ``CALIB_REF_S`` over the
    calibration measured around and during the job.  Jobs of a workload that
    is not scaled keep their measured seconds."""
    if "calib_s" not in job:
        return job["seconds"]
    return job["seconds"] * CALIB_REF_S / job["calib_s"]


def setup_sample(env: dict, timeout: float) -> float:
    """Seconds from starting a fresh interpreter until ``import uvbraid,
    uvbraid.cli`` returns.  Not scaled: import time did not follow the
    calibration on a slow host."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=timeout, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uvbraid").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(args) -> tuple[list[dict], dict, list[float]]:
    """Run the passes; return them, the metrics keyed by name, and the
    set-up samples."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if args.trace:
        base = run_pass(args, 0, deadline - time.monotonic())
        traced = run_pass(args, 1, deadline - time.monotonic())
        if traced.get("unwrapped"):
            raise RuntimeError(f"tracer missed namespaces: {traced['unwrapped']}")
        passes, setup = [base, traced], []
        metrics = dict(traced["layers"])
        metrics["trace.base_wall_s"] = base["raw_wall_s"]
        metrics["trace.wall_s"] = traced["raw_wall_s"]
        metrics["trace.overhead"] = traced["raw_wall_s"] / base["raw_wall_s"]
    else:
        env = child_env()
        # a first, untimed start writes the bytecode caches, which users do
        # not pay for on every run
        setup_sample(env, deadline - time.monotonic())
        passes, setup = [], []

        def fits(seconds: float) -> bool:
            """Whether a pass of this many seconds, and the set-up samples
            still owed after it, end within --seconds."""
            owed = max(SETUP_RUNS - len(setup), 1) * max(setup)
            end = min(start + args.seconds, deadline - 10)
            return time.monotonic() + seconds + owed <= end

        # full passes and set-up samples alternate, so both see the whole
        # window, while the slowest full pass so far still fits
        while True:
            passes.append(run_pass(args, 0, deadline - time.monotonic()))
            setup.append(setup_sample(env, deadline - time.monotonic()))
            if not fits(max(p["elapsed"] for p in passes)):
                break
        full = list(passes)
        # then passes of the top rung alone fill the rest: more samples of
        # top_rung_s, none of wall_s.  A full pass's time outside its other
        # jobs bounds the first one's.
        guess = max(p["elapsed"] - p["raw_wall_s"] + p["raw_top_s"] for p in full)
        while fits(guess):
            passes.append(run_pass(args, 0, deadline - time.monotonic(), top_only=True))
            setup.append(setup_sample(env, deadline - time.monotonic()))
            guess = max(p["elapsed"] for p in passes[len(full):])
        while len(setup) < SETUP_RUNS:
            setup.append(setup_sample(env, deadline - time.monotonic()))
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in full),
            "top_rung_s": statistics.median(p["top_rung_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup),
        }
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["problem"])
    metrics["failed_frac"] = failed / attempted
    return passes, metrics, setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="uvbraid benchmark", formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny job lists, for tests")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "uvbraid" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no uvbraid sources to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        passes, measured, setup = measure(args)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(len(p["jobs"]) for p in passes)
    problems = [(p_i, j) for p_i, p in enumerate(passes) for j in p["jobs"] if j["problem"]]
    for p_i, job in problems:
        print(f"FAILED pass {p_i} {job['label']}: {job['problem']}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "jobs_per_pass": len(passes[0]["jobs"]),
        "setup_samples": setup,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    full = [p for p in passes if not p["top_only"]]
    if not args.trace and "calib_s" in passes[0]["jobs"][0]:
        raw = statistics.median(p["raw_wall_s"] for p in full)
        calib = statistics.median(j["calib_s"] for p in passes for j in p["jobs"])
        print(f"# unscaled wall_s = {raw} s; calibration = {calib} s (reference {CALIB_REF_S} s)")
    print(
        f"# {args.workload} seed {args.seed}: {len(full)} passes of "
        f"{record['jobs_per_pass']} jobs and {len(passes) - len(full)} of the top rung, "
        f"{len(problems)}/{attempted} failed"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
