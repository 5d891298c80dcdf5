"""Leave-one-view-out retrieval evaluation along the paper's three axes.

One view per object (the first, by default) queries an index built from all
remaining views; accuracy at depth n is the fraction of queries whose true
object lands in the top n. ``evaluate`` takes that measurement at every
(rank, rate, alpha) point: fixed factorization rank versus the estimated
model order, quantization rate, and fusion weight. It scores every query of
a (rank, rate) point at once as one ``matcher.QueryBatch``, whose lists are
the ones each query gets on its own.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Sequence

from . import codec, factorization, service
from .descriptors import DescriptorMatrix, view_index
from .factorization import KIND_NMF, KIND_PCA
from .fusion import FusionParams, RankedList, _check_eta, _integer, fuse
from .matcher import METRIC_ANGLE, METRIC_CORRELATION, IndexRecord, ObjectIndex, QueryBatch
from .service import quantized

# Not called here; the benchmark's tracer (bench/tracing.py) wraps these names on this module.
from .factorization import nmf_loadings, pca_loadings  # noqa: F401
from .matcher import rank_database  # noqa: F401
from .model_order import estimate_order  # noqa: F401

PIPELINES = ("pca_corr", "pca_angle", "nmf_corr", "nmf_angle", "combined")
_SINGLE_METRIC = {
    "pca_corr": (KIND_PCA, METRIC_CORRELATION),
    "pca_angle": (KIND_PCA, METRIC_ANGLE),
    "nmf_corr": (KIND_NMF, METRIC_CORRELATION),
    "nmf_angle": (KIND_NMF, METRIC_ANGLE),
}

RANK_ESTIMATED = "estimated"
# the top-n columns of EvalReport.summary, those the report holds
_SUMMARY_DEPTHS = (1, 2, 3, 5, 10)


def rank_mode_label(fixed_k: int | None) -> str:
    return RANK_ESTIMATED if fixed_k is None else f"fixed:{fixed_k}"


@dataclass(frozen=True)
class EvalRecord:
    pipeline: str
    rank_mode: str
    bits: int | None
    alpha: int | None
    top_n: int
    accuracy: float

    def config_key(self) -> tuple:
        return (self.pipeline, self.rank_mode, self.bits, self.alpha)


@dataclass
class EvalReport:
    corpus_label: str
    eta: int
    records: list[EvalRecord] = field(default_factory=list)
    runtime: dict[str, float] = field(default_factory=dict)

    def accuracy(self, pipeline: str, top_n: int = 1, **match) -> float:
        """Look up one accuracy value; extra kwargs filter on record fields."""
        hits = [
            r for r in self.records
            if r.pipeline == pipeline and r.top_n == top_n
            and all(getattr(r, k) == v for k, v in match.items())
        ]
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} records match pipeline={pipeline}, top_n={top_n}, {match}"
            )
        return hits[0].accuracy

    def validate(self) -> None:
        """Accuracy must be in [0,1], given once per config and top_n, and
        non-decreasing in top_n per config."""
        by_config: dict[tuple, dict[int, float]] = {}
        for rec in self.records:
            if not 0.0 <= rec.accuracy <= 1.0:
                raise ValueError(f"accuracy out of range in {rec}")
            found = by_config.setdefault(rec.config_key(), {})
            if rec.top_n in found:
                raise ValueError(f"two records for config {rec.config_key()} at top-{rec.top_n}")
            found[rec.top_n] = rec.accuracy
        for key, found in by_config.items():
            accs = [found[n] for n in sorted(found)]
            if any(b < a for a, b in zip(accs, accs[1:])):
                raise ValueError(f"accuracy not monotone in top_n for config {key}")

    def to_jsonl(self) -> str:
        lines = [json.dumps({
            "type": "header", "corpus": self.corpus_label, "eta": self.eta,
            "num_records": len(self.records),
        }, sort_keys=True)]
        for rec in self.records:
            lines.append(json.dumps({
                "type": "record", "pipeline": rec.pipeline, "rank_mode": rec.rank_mode,
                "bits": rec.bits, "alpha": rec.alpha, "top_n": rec.top_n,
                "accuracy": rec.accuracy,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        configs: dict[tuple, dict[int, float]] = {}
        for rec in self.records:
            configs.setdefault(rec.config_key(), {})[rec.top_n] = rec.accuracy
        depths = [d for d in _SUMMARY_DEPTHS if any(d in accs for accs in configs.values())]
        header = f"{'pipeline':<10} {'rank':<10} {'bits':>5} {'alpha':>5} " + " ".join(
            f"top-{d:<3}" for d in depths
        )
        lines = [self.corpus_label, header, "-" * len(header)]
        # stringified sort key: bits/alpha columns mix ints and None
        ordered = sorted(configs.items(), key=lambda kv: tuple(str(x) for x in kv[0]))
        for (pipeline, rank_mode, bits, alpha), accs in ordered:
            cells = " ".join(
                f"{accs[d]:7.4f}" if d in accs else "      -" for d in depths
            )
            lines.append(
                f"{pipeline:<10} {rank_mode:<10} {str(bits):>5} {str(alpha):>5} {cells}"
            )
        for phase, seconds in sorted(self.runtime.items()):
            lines.append(f"[{phase}: {seconds:.2f}s]")
        return "\n".join(lines)


# --- corpus preparation ---------------------------------------------------


def split_queries(
    corpus: Sequence[DescriptorMatrix], query_view: int = 1
) -> tuple[list[DescriptorMatrix], list[DescriptorMatrix]]:
    """Leave-one-view-out split: view ``query_view`` of each object queries
    an index built from every other view."""
    views_per_object: dict[str, int] = {}
    for m in corpus:
        views_per_object[m.object_id] = views_per_object.get(m.object_id, 0) + 1
    singletons = [obj for obj, n in views_per_object.items() if n < 2]
    if singletons:
        raise ValueError(
            f"leave-one-view-out needs >= 2 views per object; single-view "
            f"object(s): {sorted(singletons)[:5]}"
        )
    queries = [m for m in corpus if view_index(m.image_id) == query_view]
    database = [m for m in corpus if view_index(m.image_id) != query_view]
    if not queries:
        raise ValueError(f"no image has view index {query_view}")
    return queries, database


def _true_object_rank(ranked: RankedList, object_id: str) -> int | None:
    for pos, entry in enumerate(ranked.entries, start=1):
        if entry.object_id == object_id:
            return pos
    return None


# --- evaluate ---------------------------------------------------------------


def _factorized_by_rank(
    images: Sequence[DescriptorMatrix],
    k_max: int | None,
    ranks: Sequence[int | None],
) -> list[list[IndexRecord]]:
    """The float-loadings records of ``images`` at each rank, every image's
    ranks all factorized from its one SVD."""
    by_rank: list[list[IndexRecord]] = [[] for _ in ranks]
    for m in images:
        # through the modules, so wrappers on either function see the calls
        svd = factorization.compute_svd(m)
        for records, fixed_k in zip(by_rank, ranks):
            pca, nmf, _ = service.factorize_image(m, k_max, fixed_k, svd)
            records.append(IndexRecord(m.object_id, pca, nmf))
    return by_rank


def evaluate(
    corpus: Sequence[DescriptorMatrix],
    ranks: Sequence[int | None] = (None,),
    rates: Sequence[int | None] = (5,),
    alphas: Sequence[int] = (2,),
    pipelines: Sequence[str] = PIPELINES,
    eta: int = 20,
    top: int = 20,
    k_max: int | None = None,
    query_view: int = 1,
    corpus_label: str = "corpus",
) -> EvalReport:
    """Top-n accuracy of ``pipelines`` at every (rank, rate, alpha) point.

    Rank ``None`` is the estimated model order, rate ``None`` full precision;
    the defaults are the paper's operating point. Every image is factorized
    once per rank, all ranks from one SVD, and the database is indexed once
    per rate. At each rate, the queries are scored together as one
    :class:`~factormatch.matcher.QueryBatch`, which scores only the key
    matrices that the requested pipelines read; each query's two hypotheses
    are fused once per alpha, and each single-metric pipeline's lists are
    read once per rate (its records keep ``alpha=None``). Records come out
    rank by rate by pipeline, with the alphas inside ``combined``.
    """
    ranks, rates, alphas, pipelines = map(tuple, (ranks, rates, alphas, pipelines))
    # before any image is factorized
    for name, axis in (("ranks", ranks), ("rates", rates), ("alphas", alphas),
                       ("pipelines", pipelines)):
        if not axis or len(set(axis)) < len(axis):
            raise ValueError(f"{name} must be non-empty without repeats, got {list(axis)}")
    unknown = set(pipelines) - set(PIPELINES)
    if unknown:
        raise ValueError(f"unknown pipeline(s) {sorted(unknown)}")
    _check_eta(eta)
    if not all(_integer(a) and 0 <= a <= eta for a in alphas):
        raise ValueError(f"alphas must lie in [0, {eta}] and be integers, got {list(alphas)}")
    for k in ranks:
        if k is not None and not (_integer(k) and k >= 1):
            raise ValueError(f"fixed ranks must be positive integers, got {k!r}")
    for bits in rates:
        if bits is not None:
            codec.check_bits(bits)
    if not (_integer(top) and top >= 1):
        raise ValueError(f"top must be >= 1 and an integer, got {top!r}")
    if k_max is not None and not (_integer(k_max) and k_max >= 1):
        raise ValueError(f"k_max must be >= 1 and an integer, got {k_max!r}")
    top = min(top, eta)
    queries, database = split_queries(corpus, query_view)
    points = [(p, a) for p in pipelines for a in (alphas if p == "combined" else [None])]
    report = EvalReport(corpus_label, eta, runtime={"index_build": 0.0, "queries": 0.0})
    t0 = time.perf_counter()
    db_by_rank = _factorized_by_rank(database, k_max, ranks)
    t1 = time.perf_counter()
    query_by_rank = _factorized_by_rank(queries, k_max, ranks)
    report.runtime["index_build"] += t1 - t0
    report.runtime["queries"] += time.perf_counter() - t1
    for fixed_k, db_loadings, query_loadings in zip(ranks, db_by_rank, query_by_rank):
        for bits in rates:
            t0 = time.perf_counter()
            index = ObjectIndex(quantized(db_loadings, bits))
            t1 = time.perf_counter()
            query_records = list(quantized(query_loadings, bits))
            batch = QueryBatch(query_records, index, eta)
            lists = {p: batch.hypotheses() if p == "combined" else batch.ranked(*_SINGLE_METRIC[p])
                     for p in pipelines}
            positions: list[list[int | None]] = []
            for pipeline, alpha in points:
                if pipeline == "combined":
                    params = FusionParams(alpha=alpha, eta=eta)
                    ranked = [fuse(v_pri, v_sec, params) for v_pri, v_sec in lists[pipeline]]
                else:
                    ranked = lists[pipeline]
                positions.append([_true_object_rank(r, q.object_id)
                                  for r, q in zip(ranked, query_records)])
            report.runtime["index_build"] += t1 - t0
            report.runtime["queries"] += time.perf_counter() - t1
            for (pipeline, alpha), found in zip(points, positions):
                report.records.extend(
                    EvalRecord(pipeline, rank_mode_label(fixed_k), bits, alpha, n,
                               sum(1 for p in found if p is not None and p <= n) / len(found))
                    for n in range(1, top + 1)
                )
    report.validate()
    return report


def sweep_bits(
    corpus: Sequence[DescriptorMatrix],
    *,
    bit_grid: Sequence[int],
    eta: int,
    alpha: int,
    top: int,
    k_max: int | None,
    corpus_label: str,
) -> EvalReport:
    """Accuracy versus quantization rate, plus the unquantized reference row;
    kept for the benchmark's sweep-bits workload, which calls it by name. The
    ``evaluate`` it calls is looked up on the module at call time, so a
    wrapper on ``evaluation.evaluate`` sees the call."""
    return evaluate(corpus, rates=(*bit_grid, None), alphas=(alpha,), eta=eta, top=top,
                    k_max=k_max, corpus_label=corpus_label)
