"""Timing wrappers around peepopt's functions, recorded from outside the library.

``Tracer.install()`` replaces each function in ``TARGETS`` by a wrapper in
every loaded peepopt module that binds it (or only in the modules named for
it), and ``uninstall()`` puts the originals back.  Every wrapped call adds
to a per-function call count and inclusive time, and its self time (its
duration minus that of wrapped calls inside it) to its layer.  Calls marked
as spans also keep a record ``(id, name, start, end, parent id, job)`` in
memory; ``write_spans`` saves them when the run ends.  Hot kernels
(``apply_unitary``, ``objective`` ...) are counted but keep no record.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (defining module, attribute, layer, keep a span record, only in these modules)
TARGETS = [
    ("peepopt.pipeline", "run_pipeline", "pipeline", True, None),
    ("peepopt.pipeline", "evaluate_circuit", "pipeline", True, None),
    ("peepopt.pipeline", "ideal_distribution", "pipeline", True, None),
    ("peepopt.pipeline", "noisy_counts", "pipeline", True, None),
    ("peepopt.pipeline", "ensemble_distribution", "pipeline", True, None),
    ("peepopt.pipeline", "cnot_reduction", "pipeline", False, None),
    ("peepopt.recombine", "reassemble", "reassemble", False, None),
    ("peepopt.qasm", "parse_qasm", "qasm", False, None),
    ("peepopt.qasm", "emit_qasm", "qasm", False, None),
    ("peepopt.partition", "scan_partition", "partition", True, None),
    ("peepopt.partition", "build_partition_graph", "partition", True, None),
    ("peepopt.expand", "expand_all", "expand", True, None),
    ("peepopt.expand", "optimize_params", "expand", True, None),
    ("peepopt.expand", "ApproximationSet.save", "expand", True, None),
    ("peepopt.expand", "ApproximationSet.load", "expand", True, None),
    ("peepopt.expand", "score_candidates", "noise", True, None),
    ("peepopt.noise", "simulate_density", "noise", True, None),
    ("peepopt.recombine", "recombine", "recombine", True, None),
    ("peepopt.recombine", "objective", "recombine", False, None),
    ("peepopt.circuits", "hs_distance", "circuits", False, ("peepopt.recombine",)),
    ("peepopt.partition", "pair_unitary", "partition", False, ("peepopt.recombine",)),
    ("peepopt.metrics", "tvd", "metrics", False, None),
    ("peepopt.metrics", "jsd", "metrics", False, None),
    ("peepopt.circuits", "apply_unitary", "circuits", False, None),
    ("peepopt.circuits", "unitary_of", "circuits", False, None),
]


def _tally_expand_all(tally, args, result):
    tally["expand.blocks"] += len(result.blocks)
    tally["expand.candidates"] += sum(result.counts())


def _tally_recombine(tally, args, result):
    tally["recombine.results"] += len(result)


def _tally_simulate(tally, args, result):
    tally["noise.gates_simulated"] += len(args[0].gates)


def _tally_ensemble(tally, args, result):
    solutions = [tuple(s) for s in args[0]]
    tally["noise.ensemble_circuits"] += len(solutions)
    tally["noise.ensemble_unique"] += len(set(solutions))


def _tally_scan(tally, args, result):
    tally["partition.blocks"] += len(result)


def _tally_graph(tally, args, result):
    tally["partition.edges"] += len(result.edges)


# Counts read off a call's arguments or result, keyed by function name.
TALLIES = {
    "expand_all": _tally_expand_all,
    "recombine": _tally_recombine,
    "simulate_density": _tally_simulate,
    "ensemble_distribution": _tally_ensemble,
    "scan_partition": _tally_scan,
    "build_partition_graph": _tally_graph,
}


class _Frame:
    __slots__ = ("child", "span_id")

    def __init__(self, span_id):
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Spans, call counts and per-layer self time of one process."""

    def __init__(self):
        self.job = ""
        self.spans: list[tuple] = []
        self.calls: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.self_s: dict[str, float] = defaultdict(float)
        self.tally: dict[str, float] = defaultdict(float)
        self._stack = [_Frame(None)]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _enter(self, keep_span):
        parent = self._stack[-1]
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent.span_id
        frame = _Frame(span_id)
        self._stack.append(frame)
        return parent, frame

    def _exit(self, name, layer, keep_span, parent, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        parent.child += dur
        self.self_s[layer] += dur - frame.child
        c = self.calls[name]
        c[0] += 1
        c[1] += dur
        if keep_span:
            self.spans.append((frame.span_id, name, t0, t1, parent.span_id, self.job))

    @contextmanager
    def section(self, name: str):
        """A span around the benchmark's own code; its self time is layer 'bench'."""
        parent, frame = self._enter(True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, "bench", True, parent, frame, t0, perf_counter())

    def _wrap(self, fn, name, layer, keep_span):
        tracer = self
        tally = TALLIES.get(name)

        def wrapper(*args, **kwargs):
            parent, frame = tracer._enter(keep_span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, layer, keep_span, parent, frame, t0, perf_counter())
            if tally is not None:
                tally(tracer.tally, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper; the original must be loaded."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "peepopt" or n.startswith("peepopt."))]
        for mod_name, attr, layer, keep_span, only_in in TARGETS:
            home = sys.modules[mod_name]
            if "." in attr:  # a method on a class of the defining module
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, meth, layer, keep_span))
                else:
                    new = self._wrap(raw, meth, layer, keep_span)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, attr, layer, keep_span)
            for mod in modules:
                if only_in is not None and mod.__name__ not in only_in:
                    continue
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the counters, to subtract one phase from another."""
        return {
            "calls": {k: list(v) for k, v in self.calls.items()},
            "self_s": dict(self.self_s),
            "tally": dict(self.tally),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "job": job}))
                fh.write("\n")


def difference(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots."""
    calls = {}
    for k, (n, s) in after["calls"].items():
        n0, s0 = before["calls"].get(k, (0, 0.0))
        calls[k] = [n - n0, s - s0]
    return {
        "calls": calls,
        "self_s": {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()},
        "tally": {k: v - before["tally"].get(k, 0.0) for k, v in after["tally"].items()},
    }
