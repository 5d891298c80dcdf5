"""In-memory spans around the calls into factormatch's layers.

``Tracer.install`` swaps each traced public function, at every module
attribute through which the package or the benchmark calls it, for a
wrapper that records a span (id, name, start, end, parent) and, for some
layers, a count taken from the arguments or the result. Spans stay in
memory and are written out once, at the end of the run. Nothing is patched
in an untraced run, so end-to-end figures come from unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans of one thread: the benchmark calls the package from one thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []  # ids of the spans enclosing the current call
        self._paused = False

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((span_id, name, 0, 0, parent))
        self._open.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)

    @contextmanager
    def off(self):
        """Call traced functions without recording (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Trace ``owner.attr``; ``name`` is a span name or a function of the
        bound call arguments, ``counts`` maps (arguments, result) to counts."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            span_name = name if isinstance(name, str) else name(bound)
            with self.span(span_name):
                result = original(*args, **kwargs)
            for count_name, value in (counts(bound, result) if counts else {}).items():
                self.count(count_name, value)
            return result

        setattr(owner, attr, traced)

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every finished span with this name, in s."""
        return [(end - start) / 1e9 for _, n, start, end, _ in self.spans
                if n == name and end]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent}) + "\n")
            for name, values in sorted(self.counts.items()):
                out.write(json.dumps({"count": name, "values": values}) + "\n")


def _rank_span(bound) -> str:
    metric = bound.get("metric")
    if metric is None:  # the default metric follows the query's kind
        metric = "correlation" if bound["query"].kind == "pca" else "angle"
    if metric == "correlation":
        return "matcher.correlation_rank"
    return "matcher.angle_rerank" if bound.get("candidates") is not None else "matcher.angle_full"


def install(tracer: Tracer, fm) -> None:
    """Trace every layer boundary of the ``factormatch`` package ``fm``."""
    service, evaluation, matcher, codec = fm.service, fm.evaluation, fm.matcher, fm.codec
    nmf_iters = lambda bound, result: {"factorization.nmf_iters": len(result[2])}
    k_star = lambda bound, result: {"model_order.k_star": result.k_star}
    candidates = lambda bound, result: (
        {"matcher.rerank_candidates": len(bound["candidates"])}
        if bound.get("candidates") is not None else {})
    eval_runtime = lambda bound, result: {
        "evaluation.index_build_s": result.runtime["index_build"],
        "evaluation.queries_s": result.runtime["queries"]}

    tracer.wrap(fm.descriptors, "load_descriptors", "descriptors.load")
    for owner in (service, evaluation):
        tracer.wrap(owner, "estimate_order", "model_order.estimate_order", k_star)
        tracer.wrap(owner, "pca_loadings", "factorization.pca_loadings")
        tracer.wrap(owner, "nmf_loadings", "factorization.nmf_loadings", nmf_iters)
    for owner in (fm.model_order, fm.factorization):
        tracer.wrap(owner, "compute_svd", "factorization.compute_svd")
    tracer.wrap(service, "factorize_image", "service.factorize_image")
    tracer.wrap(codec, "quantize", "codec.quantize")
    tracer.wrap(codec, "encode", "codec.encode",
                lambda bound, result: {"codec.blob_bytes": len(result)})
    tracer.wrap(codec, "decode", "codec.decode")
    tracer.wrap(codec, "dequantize", "codec.dequantize")
    for owner in (matcher, evaluation):
        tracer.wrap(owner, "rank_database", _rank_span, candidates)
        tracer.wrap(owner, "fuse", "fusion.fuse")
    tracer.wrap(matcher.ObjectIndex, "images_of_objects", "matcher.images_of_objects")
    tracer.wrap(service, "answer_query", "service.answer_query")
    tracer.wrap(service, "write_index", "service.write_index")
    tracer.wrap(service, "read_index", "service.read_index")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate", eval_runtime)
