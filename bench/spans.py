"""Spans and counts for the traced benchmark run.

`install` replaces public kpvcr functions, at the module or class where
their callers look them up, with wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans stay in memory and
are written once, when the traced process ends.  The untraced run never
calls `install`, so it measures kpvcr untouched.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover.  Module-private helpers (`_kpaths`, the
memoised `_signature`/`_rigid_cached`) have no public entry point, so their
time lands in the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        spans = [
            [index[n], s, e, p, o]
            for n, s, e, p, o in zip(
                self.names, self.starts, self.ends, self.parents, self.ops
            )
        ]
        with open(path, "w") as fh:
            json.dump(
                {"names": table, "spans": spans, "counts": dict(self.counts)},
                fh,
                separators=(",", ":"),
            )


def _rigid_tags(counts: Counter, args, report) -> None:
    counts["rigidity.tokens"] += len(report.rationale)
    counts["rigidity.rigid_tokens"] += len(report.rigid)
    for tag in report.rationale.values():
        counts[f"rigidity.tag.{tag}"] += 1


def _moves(counts: Counter, args, seq) -> None:
    counts["planner.moves"] += len(seq.moves)


def _states(counts: Counter, args, ok) -> None:
    counts["planner.validate_sequence.states"] += len(args[2].moves) + 1


def _covers(counts: Counter, args, covers) -> None:
    counts["oracle.covers"] += len(covers)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point.  Call before any kpvcr work runs.

    `is_ts_reachable` and `reachability_signature` share the span
    `planner.signature`: both decide through the memoised `_signature`, and
    the CLI reaches only the first while the sweep mostly calls the second.
    """
    import kpvcr.cli
    import kpvcr.instance
    import kpvcr.oracle
    import kpvcr.planner
    import kpvcr.rigidity
    from kpvcr.graph import CaterpillarForest

    points = [
        (kpvcr.cli, "parse_instance", "instance.parse_instance", None),
        (kpvcr.cli, "parse_witness", "instance.parse_witness", None),
        (kpvcr.cli, "is_ts_reachable", "planner.signature", None),
        (kpvcr.cli, "build_sequence", "planner.build_sequence", _moves),
        (kpvcr.cli, "validate_sequence", "planner.validate_sequence", _states),
        (kpvcr.planner, "is_ts_reachable", "planner.signature", None),
        (kpvcr.planner, "reachability_signature", "planner.signature", None),
        (kpvcr.planner, "build_sequence", "planner.build_sequence", _moves),
        (kpvcr.planner, "validate_sequence", "planner.validate_sequence", _states),
        (kpvcr.planner, "rigid_set", "rigidity.rigid_set", _rigid_tags),
        (kpvcr.planner, "is_kpvc", "cover.is_kpvc", None),
        (kpvcr.instance, "is_kpvc", "cover.is_kpvc", None),
        (kpvcr.rigidity, "partition", "cover.partition", None),
        (CaterpillarForest, "delete", "graph.delete", None),
        (CaterpillarForest, "canonical", "graph.canonical", None),
        (kpvcr.oracle, "enumerate_kpvcs", "oracle.enumerate_kpvcs", _covers),
        (kpvcr.oracle, "reachability_classes", "oracle.reachability_classes", None),
    ]
    for owner, attr, name, observe in points:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))


def summarize(path: str) -> tuple[dict[str, float], Counter[str]]:
    """Self seconds per span name, and calls per name plus the observed
    counts, from one written span file."""
    with open(path) as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    self_s = self_times(
        [names[s[0]] for s in spans],
        [s[1] for s in spans],
        [s[2] for s in spans],
        [s[3] for s in spans],
    )
    counts: Counter[str] = Counter(data["counts"])
    for s in spans:
        counts[f"{names[s[0]]}.calls"] += 1
    return self_s, counts


def self_times(
    names: list[str], starts: list[float], ends: list[float], parents: list[int]
) -> dict[str, float]:
    covered = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += ends[i] - starts[i] - covered[i]
    return dict(out)
