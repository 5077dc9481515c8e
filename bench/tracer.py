"""Span tracer installed around uvbraid's public functions from outside ``src/``.

``Tracer.install()`` replaces each traced function or method with a wrapper
and rebinds every ``uvbraid`` module namespace that holds the original (for
example ``analysis`` imports ``eval_word`` from ``reps`` and ``cli`` imports
the engines from ``analysis``), because a namespace left holding the original
would bypass the wrapper and silently lose its spans.

A span records name, start, end and the index of its parent span.  Spans are
kept in flat arrays in memory and written out once, by ``dump``.  Self time is
a span's duration minus the time its direct child spans cover.  Q(i) scalar
operations are too fine-grained for spans and are only counted.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import uvbraid
import uvbraid.cli  # noqa: F401  (binds uvbraid.cli)
from uvbraid.matrices import Matrix
from uvbraid.reps import LocalRep
from uvbraid.scalars import GaussianRational, MultiPoly, RatFunc

# span name -> (owner, attribute).  An owner is a module or a class.
SPANS = {
    "scalars.poly_mul": (MultiPoly, "__mul__"),
    "scalars.poly_div": (MultiPoly, "exact_div"),
    "scalars.ratfunc_add": (RatFunc, "__add__"),
    "scalars.ratfunc_mul": (RatFunc, "__mul__"),
    "matrices.inverse": (Matrix, "inverse"),
    "matrices.det": (Matrix, "det"),
    "matrices.evaluate": (Matrix, "evaluate"),
    "groups.relations": (uvbraid.groups, "relations"),
    "reps.eval_word": (uvbraid.reps, "eval_word"),
    "reps.specialize": (uvbraid.reps, "specialize"),
    "analysis.verify": (uvbraid.analysis, "verify_relations"),
    "analysis.constraints": (uvbraid.analysis, "generate_constraints"),
    "analysis.scan": (uvbraid.analysis, "enumerate_solutions_mod_p"),
    "analysis.burnside": (uvbraid.analysis, "burnside_dim"),
    "analysis.spin": (uvbraid.analysis, "spin"),
    "analysis.criterion": (uvbraid.analysis, "reducibility_criterion"),
    "cli.main": (uvbraid.cli, "main"),
}

# counter name -> (owner, attributes); counted, not timed.
COUNTS = {
    "scalars.gauss_ops": (
        GaussianRational,
        ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__"),
    ),
    "reps.matrix": (LocalRep, ("matrix",)),
    "reps.block_embed": (uvbraid.matrices, ("block_embed",)),
}

# Reflected operators that a class defines as an alias of the forward one;
# ``_replace`` rebinds the alias too, so it must not be listed separately.
_ALIASES = {"__mul__": "__rmul__", "__add__": "__radd__"}


def _uvbraid_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "uvbraid" or name.startswith("uvbraid."))
    ]


class Tracer:
    """Spans and counters of one traced pass, in one process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, list[int]] = {}
        self.totals = {
            "relations": 0, "relations_checked": 0, "equations": 0,
            "scan_points": 0, "scan_solutions": 0, "max_entry_terms": 0,
        }
        self.enabled = True
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        nid = self._name_id(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(out, args)
                return out
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call while enabled bumps counter ``name``."""
        cell = self.counts.setdefault(name, [0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def job(self, label: str):
        """A span around one benchmark job; every library span nests in it."""
        return self.span(f"job.{label}", lambda run: run())

    # -- result hooks ---------------------------------------------------

    def _on_relations(self, rels, _args):
        self.totals["relations"] += len(rels)

    def _on_verify(self, report, _args):
        self.totals["relations_checked"] += sum(
            1 for o in report.outcomes if o.status != "skipped"
        )

    def _on_constraints(self, system, _args):
        self.totals["equations"] += len(system.equations)

    def _on_scan(self, scan, _args):
        self.totals["scan_points"] += scan.p ** len(scan.unknowns)
        self.totals["scan_solutions"] += scan.count

    def _on_matmul(self, product, _args):
        worst = max(
            (len(e.num.terms) + len(e.den.terms) for row in product.rows for e in row),
            default=0,
        )
        if worst > self.totals["max_entry_terms"]:
            self.totals["max_entry_terms"] = worst

    # -- installation ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._installed.append((owner, attr, old))
        if isinstance(owner, type):
            alias = _ALIASES.get(attr)
            if alias and owner.__dict__.get(alias) is old:
                setattr(owner, alias, new)
                self._installed.append((owner, alias, old))
            return
        for mod in _uvbraid_modules():
            for key, val in list(vars(mod).items()):
                if val is old and mod is not owner:
                    setattr(mod, key, new)
                    self._installed.append((mod, key, old))

    def install(self) -> "Tracer":
        hooks = {
            "groups.relations": self._on_relations,
            "analysis.verify": self._on_verify,
            "analysis.constraints": self._on_constraints,
            "analysis.scan": self._on_scan,
        }
        for name, (owner, attr) in SPANS.items():
            fn = getattr(owner, attr)
            self._replace(owner, attr, self.span(name, fn, hooks.get(name)))
        for name, (owner, attrs) in COUNTS.items():
            for attr in attrs:
                self._replace(owner, attr, self.counter(name, getattr(owner, attr)))

        plain_mul = Matrix.__mul__
        traced_mul = self.span("matrices.matmul", plain_mul, self._on_matmul)

        def matmul(a, b):
            if isinstance(b, Matrix):
                return traced_mul(a, b)
            return plain_mul(a, b)  # scalar scaling, not a product

        self._replace(Matrix, "__mul__", matmul)
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._installed):
            setattr(owner, attr, old)
        self._installed.clear()

    def unwrapped(self) -> list[str]:
        """``module.name`` of every namespace entry still bound to an original."""
        originals = {id(old) for owner, _a, old in self._installed}
        return [
            f"{mod.__name__}.{key}"
            for mod in _uvbraid_modules()
            for key, val in vars(mod).items()
            if id(val) in originals
        ]

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures, named as in BENCHMARK.json."""
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))
        out: dict[str, float] = {}
        for name in list(SPANS) + ["matrices.matmul"]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["scalars.gauss_ops.calls"] = self.counts["scalars.gauss_ops"][0]
        out["reps.matrix.calls"] = self.counts["reps.matrix"][0]
        out["reps.block_embed.calls"] = self.counts["reps.block_embed"][0]
        t = self.totals
        out["matrices.max_entry_terms"] = t["max_entry_terms"]
        out["groups.relations.count"] = t["relations"]
        out["analysis.verify.relations_checked"] = t["relations_checked"]
        out["analysis.constraints.equations"] = t["equations"]
        out["analysis.scan.points"] = t["scan_points"]
        points, looked_up = t["scan_points"], out["reps.matrix.calls"]
        out["analysis.scan.hit_ratio"] = t["scan_solutions"] / points if points else 0.0
        out["reps.matrix_cache_hit_ratio"] = (
            1 - out["reps.block_embed.calls"] / looked_up if looked_up else 0.0
        )
        return out

    def dump(self, path) -> int:
        """Write every span to ``path`` (numpy .npz); returns the span count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)
