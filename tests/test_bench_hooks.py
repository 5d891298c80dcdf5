"""The benchmark's tracer finds the layer functions by name on the package's
modules, and its workloads check outputs through the package's public API;
these tests fail when a refactor moves a name either of them uses."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import factormatch
from factormatch import SynthCorpusSpec, generate_corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name, monkeypatch):
    """bench/<name>.py as a module until the test ends, with bench/ on the
    path (workloads imports reference) and the module registered (a
    dataclass looks its module up)."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    """A tracer installed on the package; every wrapped attribute is put
    back afterwards so later tests run unwrapped code."""
    owners = [module for module in vars(factormatch).values()
              if type(module) is type(factormatch)]
    owners.append(factormatch.matcher.ObjectIndex)
    saved = [(owner, dict(vars(owner))) for owner in owners]
    tracing = _load_bench("tracing", monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, factormatch)
        yield tracer
    finally:
        for owner, attrs in saved:
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)


def test_install_finds_every_hook(tracer):
    assert tracer.spans == []


def test_factorize_image_traced_with_one_svd(tracer):
    spec = SynthCorpusSpec(1, 1, T=16, descriptors_per_view=60,
                           planted_rank=3, view_noise_sigma=0.02, seed=3)
    m = generate_corpus(spec)[0]
    result = factormatch.service.factorize_image(m, 8)
    assert len(result) == 3
    for name in ("service.factorize_image", "factorization.compute_svd",
                 "model_order.estimate_order", "factorization.pca_loadings",
                 "factorization.nmf_loadings"):
        assert len(tracer.durations(name)) == 1, name


def test_evaluate_runtime_keys_read(tracer):
    spec = SynthCorpusSpec(3, 2, T=16, descriptors_per_view=60,
                           planted_rank=3, view_noise_sigma=0.02, seed=3)
    factormatch.evaluation.evaluate(generate_corpus(spec), eta=3, alphas=(1,),
                                    top=2, k_max=8)
    assert len(tracer.counts["evaluation.index_build_s"]) == 1
    assert len(tracer.counts["evaluation.queries_s"]) == 1


def _bench_sweep_bits_keywords() -> list[str]:
    """The keywords of the one ``sweep_bits`` call in bench/workloads.py,
    which also passes the corpus as its one positional argument."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    (call,) = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "sweep_bits"]
    assert len(call.args) == 1
    return [keyword.arg for keyword in call.keywords]


def test_bench_sweep_bits_call_is_one_traced_evaluate(tracer):
    keywords = _bench_sweep_bits_keywords()
    sweep_bits = factormatch.evaluation.sweep_bits
    inspect.signature(sweep_bits).bind(None, **dict.fromkeys(keywords))
    spec = SynthCorpusSpec(3, 2, T=16, descriptors_per_view=60,
                           planted_rank=3, view_noise_sigma=0.02, seed=3)
    values = {"bit_grid": (5,), "eta": 3, "alpha": 1, "top": 2, "k_max": 8,
              "corpus_label": "toy"}
    assert sorted(values) == sorted(keywords)
    report = sweep_bits(generate_corpus(spec), **values)
    assert {r.bits for r in report.records} == {5, None}
    assert len(tracer.durations("evaluation.evaluate")) == 1
    assert len(tracer.counts["evaluation.index_build_s"]) == 1
    assert len(tracer.counts["evaluation.queries_s"]) == 1


def test_answer_query_spans(tracer):
    """One query records the prefilter, candidate lookup and rerank spans
    the benchmark's per-layer matcher metrics are read from."""
    spec = SynthCorpusSpec(4, 3, T=16, descriptors_per_view=60,
                           planted_rank=3, view_noise_sigma=0.02, seed=3)
    corpus = generate_corpus(spec)
    service, codec = factormatch.service, factormatch.codec
    with tracer.off():
        index = factormatch.matcher.ObjectIndex(
            service.quantized(service.factorized(corpus[1:], 8), 5))
        q_pca, q_nmf = service.client_blobs(corpus[0], 5, k_max=8)
    payload = service.encode_query(3, 1, codec.encode(q_pca), codec.encode(q_nmf))
    status, entries, _ = service.decode_response(service.answer_query(index, payload))
    assert status == service.STATUS_OK and entries
    for name in ("service.answer_query", "matcher.correlation_rank",
                 "matcher.images_of_objects", "matcher.angle_rerank"):
        assert len(tracer.durations(name)) == 1, name
    assert tracer.durations("matcher.angle_full") == []
    with tracer.off():  # every view of the objects the prefilter keeps
        kept = factormatch.matcher.rank_database(q_pca, index, "correlation", eta=3)
        rerank = index.images_of_objects(kept.object_ids())
    assert tracer.counts["matcher.rerank_candidates"] == [len(rerank)]


def test_workload_checks_pass_on_the_package(tmp_path, monkeypatch):
    """The workloads' own checks of uploads, a read-back index and fresh
    loadings accept the package's outputs on a small corpus."""
    workloads = _load_bench("workloads", monkeypatch)
    spec = SynthCorpusSpec(3, 2, T=16, descriptors_per_view=60,
                           planted_rank=3, view_noise_sigma=0.02, seed=3)
    corpus = generate_corpus(spec)
    out = workloads.Outcome()
    uploads = [workloads._client_upload(m) for m in corpus]
    for upload in uploads:
        workloads._check_upload(upload, out, k_star=None)
    records = workloads._records(uploads)
    path = tmp_path / "bench.idx"
    factormatch.service.write_index(path, records)
    index, _, _ = workloads._load_index(path, records, out, measure=False)
    assert index.num_images == len(corpus) == 6
    for m, (_, _, q_pca, q_nmf, _, _) in zip(corpus, uploads):
        workloads._check_fresh(m, q_pca, q_nmf, out)
    assert out.problems == []
    assert out.correct
