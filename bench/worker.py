"""Run one pass of a workload's job list in this process; print its record.

Started by ``run.py``, one fresh process per pass, with ``PYTHONPATH``
pointing at the checkout's ``src`` and a pinned ``PYTHONHASHSEED``.  The last
line of standard output is a JSON record: per-job seconds and problems, peak
resident memory and, with ``--trace 1``, the per-layer figures.  Untraced, on
the workloads in ``workloads.SCALED``, ``calibrate()`` runs four times before
the first job, after every job, and every 0.1 s during each job; each job
records the harmonic mean of the calibrations from the four before it to the
four after it.
"""

from __future__ import annotations

import argparse
import functools
import json
import gc
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a dense bivariate polynomial with 25 Fraction coefficients
_CALIB_POLY = {(i, j): Fraction(5 * i + j + 1, j + 2) for i in range(5) for j in range(5)}
CALIB_EVERY_S = 0.1  # the interval between calibrations during a job
BRACKET = 4  # calibrations between two jobs


def calibrate() -> float:
    """Seconds for the product of ``_CALIB_POLY`` with itself.

    This is the kind of interpreter work uvbraid's scalars do (dictionaries
    of exponent tuples, Fraction arithmetic), fixed and independent of
    uvbraid, so its time tracks the host's speed at that moment."""
    t0 = time.perf_counter()
    out = {}
    for (i, j), x in _CALIB_POLY.items():
        for (k, m), y in _CALIB_POLY.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return time.perf_counter() - t0


class HostSpeed:
    """Calibrations between jobs and, on SIGALRM every ``CALIB_EVERY_S``,
    during them, so that a long job's calibrations cover all of it.  The
    time spent calibrating during a job is taken out of the job's time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.during = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would time the job's garbage as calibration
        try:
            self.samples.extend(calibrate() for _ in range(count))
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.during += time.perf_counter() - t0

    def start(self) -> None:
        self.during = 0.0
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)

    def stop(self) -> float:
        """Stop sampling; return the seconds spent calibrating since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.during


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="where --trace 1 writes its spans")
    ap.add_argument("--top-only", action="store_true", help="run only the top-rung jobs")
    args = ap.parse_args(argv)

    import numpy
    import uvbraid

    src = (ROOT / "src").resolve()
    if src not in Path(uvbraid.__file__).resolve().parents:
        print(f"error: imported uvbraid from {uvbraid.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    jobs = workloads.build(args.workload, args.seed, args.size)
    if args.top_only:
        jobs = [job for job in jobs if job.top]
    host = None
    if not args.trace and args.workload in workloads.SCALED:
        host = HostSpeed()
        host.sample(BRACKET)
    records = []
    for job in jobs:
        call = job.run
        if tracer is not None:
            call = functools.partial(tracer.job(job.label), job.run)
        problem = error = None
        if host is not None:
            first = len(host.samples) - BRACKET
            host.start()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a job that raises counts as failed, the pass goes on
            error = exc
        seconds = time.perf_counter() - t0
        if host is not None:
            seconds -= host.stop()
        if error is not None:
            problem = "raised: " + "".join(traceback.format_exception(error, limit=-3))
        else:
            if tracer is not None:
                tracer.enabled = False
            try:
                problem = job.check(out)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=-3)
            if tracer is not None:
                tracer.enabled = True
        entry = {"label": job.label, "seconds": seconds, "top": job.top, "problem": problem}
        if host is not None:
            host.sample(BRACKET)
            # with calibrations spread evenly over the job's run, their
            # harmonic mean estimates the host's time per unit of work
            # averaged over the job's work
            entry["calib_s"] = statistics.harmonic_mean(host.samples[first:])
            entry["calibrations"] = len(host.samples) - first
        records.append(entry)

    record = {
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.enabled = False
        record["layers"] = tracer.metrics()
        record["unwrapped"] = tracer.unwrapped()
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            record["spans"] = tracer.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
