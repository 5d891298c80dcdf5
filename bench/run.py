"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 bench/run.py --workload serve-k24 --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with spans around every layer call and prints the per-layer
metrics instead (the end-to-end figures of a traced run go to stderr, for
the tracing overhead). Every workload prints every metric that
``BENCHMARK.json`` lists for its mode; a layer the workload never calls
reads 0. Spans are written to ``bench/_work/spans/``.
"""

import os

# One BLAS thread for the benchmark and the server it starts: set before
# numpy loads, inherited through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
MANIFEST = BENCH_DIR.parent / "BENCHMARK.json"
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"

# span name -> (per-layer metric, unit, scale from seconds)
SPAN_METRICS = {
    name: (f"{name}_ms", "ms", 1000.0) for name in (
        "descriptors.load", "model_order.estimate_order", "factorization.compute_svd",
        "factorization.pca_loadings", "factorization.nmf_loadings",
        "service.factorize_image", "codec.quantize", "codec.encode", "codec.decode",
        "codec.dequantize", "matcher.correlation_rank", "matcher.images_of_objects",
        "matcher.angle_rerank", "matcher.angle_full", "fusion.fuse",
        "service.answer_query", "service.write_index", "service.read_index")
}
SPAN_METRICS["cli.serve_ready"] = ("cli.serve_ready_s", "s", 1.0)
# count name -> (per-layer metric, unit); the metric is the mean
COUNT_METRICS = {
    "model_order.k_star": ("model_order.k_star_mean", "count"),
    "factorization.nmf_iters": ("factorization.nmf_iters_mean", "count"),
    "codec.blob_bytes": ("codec.blob_bytes", "bytes"),
    "matcher.rerank_candidates": ("matcher.rerank_candidates", "count"),
    "service.wire_overhead_ms": ("service.wire_overhead_ms", "ms"),
    "evaluation.index_build_s": ("evaluation.index_build_s", "s"),
    "evaluation.queries_s": ("evaluation.queries_s", "s"),
}


def layer_metrics(tracer) -> dict:
    """Mean span time per call, or mean count; 0 for a layer never called."""
    metrics = {}
    for span, (name, unit, scale) in SPAN_METRICS.items():
        durations = tracer.durations(span)
        metrics[name] = (scale * statistics.mean(durations) if durations else 0.0, unit)
    for count, (name, unit) in COUNT_METRICS.items():
        values = tracer.counts.get(count)
        metrics[name] = (statistics.mean(values) if values else 0.0, unit)
    return metrics


def check_manifest(metrics: dict, trace: int) -> list[str]:
    """The metrics of this mode must be exactly those BENCHMARK.json lists,
    each in its unit."""
    listed = json.loads(MANIFEST.read_text())["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: unit for name, (_, unit) in metrics.items()}
    return [f"metric {name}: printed unit {got.get(name)!r}, BENCHMARK.json says {unit!r}"
            for name, unit in want.items() if got.get(name) != unit] + \
           [f"metric {name} is not in BENCHMARK.json" for name in got if name not in want]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "factormatch" / "__init__.py").is_file():
        print(f"no factormatch sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import factormatch
    import tracing
    from reference import Mismatch
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, factormatch)
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
            outcome = WORKLOADS[args.workload](args, Path(tmp), tracer)
    except Mismatch as exc:
        outcome = Outcome(attempted=1)
        outcome.fail_check(f"reference check aborted the run: {exc}")

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = outcome.metrics
    if tracer:
        print("traced end-to-end: " + json.dumps(metrics), file=sys.stderr)
        metrics = layer_metrics(tracer)
        tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    mismatches = check_manifest(metrics, args.trace)
    if mismatches:
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
