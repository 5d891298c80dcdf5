import json

import pytest

from factormatch import evaluation, service
from factormatch.descriptors import SynthCorpusSpec, generate_corpus
from factormatch.evaluation import (
    EvalRecord,
    EvalReport,
    evaluate,
    split_queries,
    sweep_alpha,
    sweep_bits,
    sweep_rank,
)

from conftest import per_query_sweep

K_MAX = 8  # toy corpora: T=16, planted rank <= 3
ETA = 6


@pytest.fixture(scope="module")
def noisy_corpus():
    spec = SynthCorpusSpec(8, 3, T=16, descriptors_per_view=120,
                           planted_rank=3, view_noise_sigma=0.03, seed=17)
    return generate_corpus(spec)


@pytest.fixture(scope="module")
def noiseless_corpus():
    spec = SynthCorpusSpec(8, 3, T=16, descriptors_per_view=120,
                           planted_rank=3, view_noise_sigma=0.0, seed=17)
    return generate_corpus(spec)


@pytest.mark.parametrize("sweep, alpha", [
    (evaluate, {"alpha": 5}),
    (sweep_alpha, {"alphas": (0, 5)}),
    (sweep_bits, {"alpha": 5}),
    (sweep_rank, {"alpha": 5}),
], ids=["evaluate", "sweep_alpha", "sweep_bits", "sweep_rank"])
@pytest.mark.parametrize("eta, message", [(4, r"alphas must lie in \[0, 4\]"),
                                          (0, "eta must be >= 1")],
                         ids=["alpha_above_eta", "eta_zero"])
def test_eta_and_alpha_checked_before_factorizing(noisy_corpus, monkeypatch, sweep, alpha,
                                                  eta, message):
    def factorize_image(*_args):
        pytest.fail("factorized the corpus before checking eta and alpha")

    monkeypatch.setattr(service, "factorize_image", factorize_image)
    with pytest.raises(ValueError, match=message):
        sweep(noisy_corpus, eta=eta, k_max=K_MAX, **alpha)


@pytest.mark.parametrize("sweep, kwargs, message", [
    (evaluate, {"bits": 0}, "bits must lie in 1..16, got 0"),
    (evaluate, {"bits": 17}, "bits must lie in 1..16, got 17"),
    (evaluate, {"bits": 5.0}, "bits must lie in 1..16, got 5.0"),
    (sweep_alpha, {"bits": 0}, "bits must lie in 1..16"),
    (sweep_bits, {"bit_grid": (5, 0)}, "bits must lie in 1..16, got 0"),
    (sweep_rank, {"bits": -1}, "bits must lie in 1..16, got -1"),
    (evaluate, {"top": 0}, "top must be >= 1"),
    (sweep_alpha, {"top": -3}, "top must be >= 1"),
    (sweep_bits, {"top": 0}, "top must be >= 1"),
    (sweep_rank, {"top": 0}, "top must be >= 1"),
], ids=["evaluate_bits_0", "evaluate_bits_17", "evaluate_bits_float", "sweep_alpha_bits",
        "sweep_bits_grid", "sweep_rank_bits", "evaluate_top", "sweep_alpha_top",
        "sweep_bits_top", "sweep_rank_top"])
def test_rates_and_top_checked_before_factorizing(noisy_corpus, monkeypatch, sweep, kwargs,
                                                  message):
    def factorize_image(*_args):
        pytest.fail("factorized the corpus before checking the rates and top")

    monkeypatch.setattr(service, "factorize_image", factorize_image)
    with pytest.raises(ValueError, match=message):
        sweep(noisy_corpus, eta=ETA, k_max=K_MAX, **kwargs)


class TestEvaluate:
    def test_noiseless_corpus_is_perfect_everywhere(self, noiseless_corpus):
        report = evaluate(noiseless_corpus, eta=ETA, alpha=2, bits=5,
                          top=3, k_max=K_MAX)
        for pipeline in ("pca_corr", "pca_angle", "nmf_corr", "nmf_angle", "combined"):
            assert report.accuracy(pipeline, 1) == 1.0

    def test_noisy_corpus_ordering(self, noisy_corpus):
        report = evaluate(noisy_corpus, eta=ETA, alpha=2, bits=5,
                          top=3, k_max=K_MAX)
        combined = report.accuracy("combined", 1)
        nmf = report.accuracy("nmf_angle", 1)
        assert combined >= nmf >= 0.5
        # pinned from the seeded oracle run
        assert combined == 1.0
        assert nmf == 1.0

    def test_single_view_object_rejected(self):
        spec = SynthCorpusSpec(2, 1, T=8, descriptors_per_view=30,
                               planted_rank=2, view_noise_sigma=0.0, seed=3)
        with pytest.raises(ValueError, match="2 views"):
            evaluate(generate_corpus(spec), eta=2, k_max=4)

    def test_accuracy_monotone_in_depth(self, noisy_corpus):
        report = evaluate(noisy_corpus, eta=ETA, alpha=2, bits=5,
                          top=ETA, k_max=K_MAX)
        report.validate()
        for pipeline in ("pca_corr", "combined"):
            accs = [report.accuracy(pipeline, n) for n in range(1, ETA + 1)]
            assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_deterministic(self, noisy_corpus):
        a = evaluate(noisy_corpus, eta=ETA, alpha=2, bits=5, top=3, k_max=K_MAX)
        b = evaluate(noisy_corpus, eta=ETA, alpha=2, bits=5, top=3, k_max=K_MAX)
        assert a.records == b.records

    def test_jsonl_shape(self, noisy_corpus):
        report = evaluate(noisy_corpus, eta=ETA, alpha=2, bits=5, top=2,
                          k_max=K_MAX, corpus_label="toy")
        lines = [json.loads(line) for line in report.to_jsonl().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["corpus"] == "toy"
        records = [ln for ln in lines[1:] if ln["type"] == "record"]
        assert len(records) == len(report.records)
        assert {r["pipeline"] for r in records} == {
            "pca_corr", "pca_angle", "nmf_corr", "nmf_angle", "combined"}

    def test_query_view_selects_queries(self, noisy_corpus):
        queries, database = split_queries(noisy_corpus, query_view=2)
        assert len(queries) == 8
        assert len(database) == 16
        assert all(m.image_id.endswith("_v2") for m in queries)


class TestSweepAlpha:
    def test_alpha_eta_column_equals_nmf_row(self, noisy_corpus):
        report = sweep_alpha(noisy_corpus, alphas=(0, 2, ETA), eta=ETA,
                             bits=5, top=3, k_max=K_MAX)
        for n in (1, 2, 3):
            assert report.accuracy("combined", n, alpha=ETA) == \
                report.accuracy("nmf_angle", n)

    def test_full_grid_emitted(self, noisy_corpus):
        report = sweep_alpha(noisy_corpus, eta=4, bits=5, top=2, k_max=K_MAX)
        alphas = {r.alpha for r in report.records if r.pipeline == "combined"}
        assert alphas == set(range(5))

    def test_alpha_out_of_range(self, noisy_corpus):
        with pytest.raises(ValueError, match="alphas"):
            sweep_alpha(noisy_corpus, alphas=(0, 9), eta=4, k_max=K_MAX)

    def test_records_equal_evaluate_at_each_alpha(self, noisy_corpus):
        alphas = (0, 2, ETA)
        report = sweep_alpha(noisy_corpus, alphas=alphas, eta=ETA, bits=5,
                             top=3, k_max=K_MAX)
        expected = []
        for alpha in alphas:
            expected.extend(evaluate(noisy_corpus, eta=ETA, alpha=alpha, bits=5, top=3,
                                     k_max=K_MAX, pipelines=("combined",)).records)
        expected.extend(evaluate(noisy_corpus, eta=ETA, bits=5, top=3, k_max=K_MAX,
                                 pipelines=("nmf_angle",)).records)
        assert report.records == expected


class TestSweepBits:
    def test_rate_sweep_shape_and_degradation(self, noisy_corpus):
        report = sweep_bits(noisy_corpus, bit_grid=(1, 5, 8), eta=ETA,
                            alpha=2, top=3, k_max=K_MAX)
        bits_seen = {r.bits for r in report.records}
        assert bits_seen == {1, 5, 8, None}  # unquantized reference included
        acc1 = report.accuracy("combined", 1, bits=1)
        acc5 = report.accuracy("combined", 1, bits=5)
        acc8 = report.accuracy("combined", 1, bits=8)
        accf = report.accuracy("combined", 1, bits=None)
        assert acc1 < acc5            # one bit per entry is lossy
        assert abs(acc5 - acc8) <= 0.01
        assert abs(acc5 - accf) <= 0.01


    def test_records_equal_evaluate_at_each_rate(self, noisy_corpus):
        # the sweep factorizes once; each point must match a full evaluate
        grid = (2, 5)
        report = sweep_bits(noisy_corpus, bit_grid=grid, eta=ETA, alpha=2,
                            top=3, k_max=K_MAX)
        expected = []
        for bits in (*grid, None):
            expected.extend(evaluate(noisy_corpus, eta=ETA, alpha=2, bits=bits,
                                     top=3, k_max=K_MAX).records)
        assert report.records == expected


class TestSweepRank:
    def test_records_equal_evaluate_at_each_rank(self, noisy_corpus):
        ranks = (1, 3)
        report = sweep_rank(noisy_corpus, fixed_ranks=ranks, eta=ETA, alpha=2,
                            bits=5, top=2, k_max=K_MAX)
        expected = []
        for k in ranks:  # each fixed rank's records of a sweep of that rank alone
            expected.extend(r for r in sweep_rank(noisy_corpus, fixed_ranks=(k,), eta=ETA,
                                                  alpha=2, bits=5, top=2, k_max=K_MAX).records
                            if r.rank_mode == f"fixed:{k}")
        expected.extend(evaluate(noisy_corpus, eta=ETA, alpha=2, bits=5, top=2,
                                 k_max=K_MAX).records)
        assert report.records == expected

    def test_one_svd_per_image_for_every_rank(self, noisy_corpus, svd_calls):
        sweep_rank(noisy_corpus, fixed_ranks=(1, 2, 4), eta=ETA, alpha=2, bits=5, top=2,
                   k_max=K_MAX)
        assert sorted(svd_calls) == sorted(m.image_id for m in noisy_corpus)

    def test_estimated_row_reported_with_every_fixed_rank(self, noisy_corpus):
        report = sweep_rank(noisy_corpus, fixed_ranks=(1, 3), eta=ETA,
                            alpha=2, bits=5, top=2, k_max=K_MAX)
        modes = {r.rank_mode for r in report.records}
        assert modes == {"fixed:1", "fixed:3", "estimated"}

    def test_estimated_matches_best_fixed_rank(self, noisy_corpus):
        report = sweep_rank(noisy_corpus, fixed_ranks=(1, 3), eta=ETA,
                            alpha=2, bits=5, top=2, k_max=K_MAX)
        best_fixed = max(
            report.accuracy("combined", 1, rank_mode="fixed:1"),
            report.accuracy("combined", 1, rank_mode="fixed:3"),
        )
        estimated = report.accuracy("combined", 1, rank_mode="estimated")
        assert estimated >= best_fixed - 0.02

    def test_rank_one_underperforms_on_planted_rank_four(self):
        # enough objects that one loading column cannot separate them
        spec = SynthCorpusSpec(40, 3, T=16, descriptors_per_view=150,
                               planted_rank=4, view_noise_sigma=0.06, seed=17)
        corpus = generate_corpus(spec)
        report = sweep_rank(corpus, fixed_ranks=(1,), eta=10,
                            alpha=2, bits=5, top=2, k_max=K_MAX,
                            pipelines=("nmf_angle", "combined"))
        for pipeline in ("nmf_angle", "combined"):
            fixed1 = report.accuracy(pipeline, 1, rank_mode="fixed:1")
            estimated = report.accuracy(pipeline, 1, rank_mode="estimated")
            assert fixed1 < estimated


@pytest.mark.parametrize("run", [
    lambda c: evaluate(c, eta=ETA, top=2, k_max=K_MAX),
    lambda c: sweep_alpha(c, alphas=(0, 2), eta=ETA, top=2, k_max=K_MAX),
    lambda c: sweep_bits(c, bit_grid=(5,), eta=ETA, top=2, k_max=K_MAX),
    lambda c: sweep_rank(c, fixed_ranks=(2,), eta=ETA, top=2, k_max=K_MAX),
], ids=["evaluate", "sweep_alpha", "sweep_bits", "sweep_rank"])
def test_runtime_split_into_index_build_and_queries(noisy_corpus, run):
    runtime = run(noisy_corpus).runtime
    assert set(runtime) == {"index_build", "queries"}
    assert all(seconds > 0 for seconds in runtime.values())


@pytest.fixture(scope="module")
def factorizations():
    """Float records by (image ids, k_max, ranks), shared by the tests below."""
    return {}


@pytest.mark.parametrize("run", [
    lambda c: evaluate(c, k_max=16),
    lambda c: sweep_alpha(c, k_max=16),
    lambda c: sweep_bits(c, bit_grid=(1, 2, 3, 5, 8), k_max=16),
    lambda c: sweep_rank(c, k_max=16),
    lambda c: evaluate(c, k_max=16, pipelines=("combined",)),
    lambda c: evaluate(c, k_max=16, pipelines=("pca_angle",)),
    lambda c: evaluate(c, k_max=16, pipelines=("nmf_corr", "combined")),
], ids=["evaluate", "sweep_alpha", "sweep_bits", "sweep_rank", "combined", "pca_angle",
        "nmf_corr_and_combined"])
def test_sweeps_equal_the_per_query_loop(eval_corpus, factorizations, monkeypatch, run):
    """Every report byte equals that of ranking each query on its own, on
    the README's corpus; each image is factorized once for both runs."""
    factorize = evaluation._factorized_by_rank

    def factorized_once(images, k_max, ranks):
        key = (tuple(m.image_id for m in images), k_max, tuple(ranks))
        if key not in factorizations:
            factorizations[key] = factorize(images, k_max, ranks)
        return factorizations[key]

    monkeypatch.setattr(evaluation, "_factorized_by_rank", factorized_once)
    got = run(eval_corpus).to_jsonl()
    monkeypatch.setattr(evaluation, "_sweep", per_query_sweep)
    assert got == run(eval_corpus).to_jsonl()


class TestReportValidation:
    def test_non_monotone_accuracy_rejected(self):
        report = EvalReport(corpus_label="x", eta=4, records=[
            EvalRecord("pca_corr", "estimated", 5, None, 1, 0.9),
            EvalRecord("pca_corr", "estimated", 5, None, 2, 0.8),
        ])
        with pytest.raises(ValueError, match="monotone"):
            report.validate()

    def test_out_of_range_accuracy_rejected(self):
        report = EvalReport(corpus_label="x", eta=4, records=[
            EvalRecord("pca_corr", "estimated", 5, None, 1, 1.2),
        ])
        with pytest.raises(ValueError, match="out of range"):
            report.validate()

    def test_unknown_pipeline_rejected(self, noisy_corpus):
        with pytest.raises(ValueError, match="unknown pipeline"):
            evaluate(noisy_corpus, pipelines=("pca_corr", "sift"), k_max=K_MAX)
