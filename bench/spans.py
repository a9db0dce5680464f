"""Spans around the package's public entry functions, recorded from outside.

`Tracer.installed()` replaces each listed function at every module binding
that holds it (so `graph.enumerate_words` and `cli.build_graph` are caught
as well as `language.enumerate_words`) and puts the originals back on exit.
Per-word helpers such as `is_circular_word` stay unwrapped: a wrapper would
cost more than the work it times. Span records stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from pathlib import Path
from statistics import median
from time import perf_counter

def _size(result, args):
    return len(result)


def _graph_size(result, args):
    return (len(result.vertices), len(result.arcs))


def _walk_cover(result, args):
    return (len(result.steps), len(args[0].arcs))


def _checks(result, args):
    return result.checks


def _matrix_order(result, args):
    return len(args[0])


def _digits(result, args):
    return len(str(result))


# layer -> {function name: measure(result, args) recorded on the span, or None}
TARGETS = {
    "language": {"enumerate_words": _size},
    "scc": {"strongly_connected_components": _size},
    "graph": {"build_graph": _graph_size, "graph_from_arcs": None},
    "walks": {"eulerian_cycle": None, "minimal_walk": _walk_cover,
              "walk_avoiding": None, "exhaustion_order": None},
    "structure": {
        "analyze_max_arcs": None,
        "decide_minimal_is_eulerian": None,
        "enumerate_obstructions": _size,
        "verify_exhaustion_order": _checks,
        "verify_label_monotonicity": _checks,
        "verify_cycle_structure": _checks,
        "verify_overlap_bounds": _checks,
        "verify_floor_paths": _checks,
        "check_cycle_label_blocks": _checks,
        "verify_greedy_decision": _checks,
    },
    "counting": {"integer_determinant": _matrix_order,
                 "count_converging_spanning_trees": None,
                 "count_eulerian_cycles": _digits},
    "oracle": {"minimal_eulerian_label": None, "global_minimal_label": None,
               "certify_minimal_walk": None},
    "cli": {"main": None},
}

LAYERS = tuple(TARGETS)   # the package's modules
OTHER_VERIFIERS = tuple(
    f"structure.{name}" for name, measure in TARGETS["structure"].items()
    if measure is _checks and name != "verify_exhaustion_order"
)

# Span record fields.
NAME, START, END, PARENT, JOB, VALUE = range(6)


class Tracer:
    def __init__(self, package: str) -> None:
        self.modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        self.spans: list[list] = []
        self.jobs: list[str] = []        # job id -> job key
        self.job = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[VALUE] = measure(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        patched = []
        for layer, functions in TARGETS.items():
            for fname, measure in functions.items():
                original = getattr(self.modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, measure)
                for mod in self.modules.values():
                    if getattr(mod, fname, None) is original:
                        patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        try:
            yield self
        finally:
            for mod, fname, original in patched:
                setattr(mod, fname, original)

    def write(self, path: Path) -> None:
        """JSON lines: first the job keys by job id, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"jobs": self.jobs}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "job", "value"), rec))) + "\n")


def self_times(spans: list[list], first: int) -> list[float]:
    """Each span's duration minus the durations of its direct children;
    `spans` is the tracer's record list from index `first` on."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT] - first] -= rec[END] - rec[START]
    return own


def pass_metrics(spans: list[list], first: int, job_factor: dict[int, float],
                 stdout_bytes: int) -> dict[str, float]:
    """Per-layer totals for the spans of one pass, which start at index
    `first` of the tracer's record list. Self times are multiplied by the
    speed factor of their job."""
    own = [t * job_factor[rec[JOB]] for rec, t in zip(spans, self_times(spans, first))]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    for rec, t in zip(spans, own):
        name = rec[NAME]
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if rec[VALUE] is not None:
            values.setdefault(name, []).append(rec[VALUE])

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def total(name: str) -> int:
        return sum(values.get(name, ()))

    built = values.get("graph.build_graph", [])
    enumerated = sum(
        rec[VALUE] for rec in spans
        if rec[NAME] == "language.enumerate_words" and rec[PARENT] >= 0
        and spans[rec[PARENT] - first][NAME] == "graph.build_graph"
    )
    walks = values.get("walks.minimal_walk", [])
    everything = sum(own)
    out = {
        "language.enumerate_words.self_s": s("language.enumerate_words"),
        "language.enumerate_words.calls": calls.get("language.enumerate_words", 0),
        "language.words_out": total("language.enumerate_words"),
        "scc.strongly_connected_components.self_s": s("scc.strongly_connected_components"),
        "scc.strongly_connected_components.calls": calls.get("scc.strongly_connected_components", 0),
        "scc.components": total("scc.strongly_connected_components"),
        "graph.build_graph.self_s": s("graph.build_graph"),
        "graph.graph_from_arcs.self_s": s("graph.graph_from_arcs"),
        "graph.vertices": sum(v for v, _ in built),
        "graph.arcs": sum(a for _, a in built),
        "graph.kept_ratio": sum(a for _, a in built) / enumerated if enumerated else 0.0,
        "walks.eulerian_cycle.self_s": s("walks.eulerian_cycle"),
        "walks.minimal_walk.self_s": s("walks.minimal_walk"),
        "walks.walk_avoiding.self_s": s("walks.walk_avoiding"),
        "walks.exhaustion_order.self_s": s("walks.exhaustion_order"),
        "walks.minimal_cover_ratio":
            sum(k for k, _ in walks) / sum(a for _, a in walks) if walks else 0.0,
        "structure.analyze_max_arcs.self_s": s("structure.analyze_max_arcs"),
        "structure.analyze_max_arcs.calls": calls.get("structure.analyze_max_arcs", 0),
        "structure.decide_minimal_is_eulerian.calls":
            calls.get("structure.decide_minimal_is_eulerian", 0),
        "structure.enumerate_obstructions.self_s": s("structure.enumerate_obstructions"),
        "structure.obstructions_found": total("structure.enumerate_obstructions"),
        "structure.verify_exhaustion_order.self_s": s("structure.verify_exhaustion_order"),
        "structure.verifiers_other.self_s": sum(s(n) for n in OTHER_VERIFIERS),
        "structure.verifier_checks":
            total("structure.verify_exhaustion_order") + sum(total(n) for n in OTHER_VERIFIERS),
        "counting.integer_determinant.self_s": s("counting.integer_determinant"),
        "counting.integer_determinant.calls": calls.get("counting.integer_determinant", 0),
        "counting.det_order_sum": total("counting.integer_determinant"),
        "counting.count_digits": total("counting.count_eulerian_cycles"),
        "oracle.minimal_eulerian_label.self_s": s("oracle.minimal_eulerian_label"),
        "oracle.minimal_eulerian_label.calls": calls.get("oracle.minimal_eulerian_label", 0),
        "oracle.global_minimal_label.self_s": s("oracle.global_minimal_label"),
        "oracle.certify_minimal_walk.self_s": s("oracle.certify_minimal_walk"),
        "cli.main.self_s": s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
    }
    for layer in LAYERS:
        layer_s = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
        out[f"{layer}.share"] = layer_s / everything if everything else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
