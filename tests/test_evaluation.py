import json

import pytest

from factormatch import cli, evaluation, service
from factormatch.descriptors import SynthCorpusSpec, generate_corpus
from factormatch.evaluation import (
    EvalRecord,
    EvalReport,
    evaluate,
    split_queries,
    sweep_bits,
)

from conftest import per_query_sweep

K_MAX = 8  # toy corpora: T=16, planted rank <= 3
ETA = 6
# the axes of each evaluation subcommand at its default grid, with its reference
SWEEP_ALPHA = {"pipelines": ("combined", "nmf_angle")}
SWEEP_BITS = {"rates": (1, 2, 3, 4, 5, 6, 8, None)}
SWEEP_RANK = {"ranks": (1, 2, 4, 8, 16, None)}


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


@pytest.fixture
def unfactorized(monkeypatch):
    """Fails the test if any image is factorized."""
    def factorize_image(*_args):
        pytest.fail("factorized the corpus before checking the arguments")

    monkeypatch.setattr(service, "factorize_image", factorize_image)


@pytest.mark.parametrize("axes", [
    {"alphas": (5,)},
    {**SWEEP_ALPHA, "alphas": (0, 5)},
    {**SWEEP_BITS, "alphas": (5,)},
    {**SWEEP_RANK, "alphas": (5,)},
], ids=["evaluate", "sweep_alpha", "sweep_bits", "sweep_rank"])
@pytest.mark.parametrize("eta, message", [(4, r"alphas must lie in \[0, 4\]"),
                                          (0, "eta must be >= 1")],
                         ids=["alpha_above_eta", "eta_zero"])
def test_eta_and_alpha_checked_before_factorizing(noisy_corpus, unfactorized, axes, eta,
                                                  message):
    with pytest.raises(ValueError, match=message):
        evaluate(noisy_corpus, eta=eta, k_max=K_MAX, **axes)


@pytest.mark.parametrize("kwargs, message", [
    ({"rates": (0,)}, "bits must lie in 1..16, got 0"),
    ({"rates": (17,)}, "bits must lie in 1..16, got 17"),
    ({"rates": (5.0,)}, "bits must lie in 1..16, got 5.0"),
    ({**SWEEP_ALPHA, "rates": (0,)}, "bits must lie in 1..16"),
    ({"rates": (5, 0, None)}, "bits must lie in 1..16, got 0"),
    ({**SWEEP_RANK, "rates": (-1,)}, "bits must lie in 1..16, got -1"),
    ({"top": 0}, "top must be >= 1"),
    ({**SWEEP_ALPHA, "top": -3}, "top must be >= 1"),
    ({**SWEEP_BITS, "top": 0}, "top must be >= 1"),
    ({**SWEEP_RANK, "top": 0}, "top must be >= 1"),
    ({"rates": (5, 5, None)}, r"rates must be non-empty without repeats, got \[5, 5, None\]"),
    ({"rates": ()}, "rates must be non-empty without repeats"),
    ({"alphas": (0, 2, 2)}, "alphas must be non-empty without repeats"),
    ({"ranks": (2, 2, None)}, "ranks must be non-empty without repeats"),
    ({"ranks": (None, None)}, "ranks must be non-empty without repeats"),
    ({"pipelines": ("combined", "nmf_angle", "combined")},
     "pipelines must be non-empty without repeats"),
    ({"pipelines": ()}, "pipelines must be non-empty without repeats"),
    ({"ranks": (2.5, None)}, "fixed ranks must be positive integers, got 2.5"),
    ({"ranks": (True, None)}, "fixed ranks must be positive integers, got True"),
    ({"ranks": (0, None)}, "fixed ranks must be positive integers, got 0"),
    ({"ranks": ("2",)}, "fixed ranks must be positive integers, got '2'"),
], ids=["evaluate_bits_0", "evaluate_bits_17", "evaluate_bits_float", "sweep_alpha_bits",
        "sweep_bits_grid", "sweep_rank_bits", "evaluate_top", "sweep_alpha_top",
        "sweep_bits_top", "sweep_rank_top", "repeated_rate", "no_rate", "repeated_alpha",
        "repeated_rank", "repeated_estimated_rank", "repeated_pipeline", "no_pipeline",
        "rank_float", "rank_bool", "rank_zero", "rank_text"])
def test_rates_and_top_checked_before_factorizing(noisy_corpus, unfactorized, kwargs, message):
    with pytest.raises(ValueError, match=message):
        evaluate(noisy_corpus, eta=ETA, k_max=K_MAX, **kwargs)


def test_sweep_bits_rejects_a_repeated_rate(noisy_corpus, unfactorized):
    with pytest.raises(ValueError, match="rates must be non-empty without repeats"):
        sweep_bits(noisy_corpus, bit_grid=(5, 5), eta=4, alpha=2, top=2, k_max=K_MAX,
                   corpus_label="toy")


class TestEvaluate:
    def test_noiseless_corpus_is_perfect_everywhere(self, noiseless_corpus):
        report = evaluate(noiseless_corpus, eta=ETA, top=3, k_max=K_MAX)
        for pipeline in ("pca_corr", "pca_angle", "nmf_corr", "nmf_angle", "combined"):
            assert report.accuracy(pipeline, 1) == 1.0

    def test_noisy_corpus_ordering(self, noisy_corpus):
        report = evaluate(noisy_corpus, eta=ETA, top=3, k_max=K_MAX)
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
        report = evaluate(noisy_corpus, eta=ETA, top=ETA, k_max=K_MAX)
        report.validate()
        for pipeline in ("pca_corr", "combined"):
            accs = [report.accuracy(pipeline, n) for n in range(1, ETA + 1)]
            assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_deterministic(self, noisy_corpus):
        a = evaluate(noisy_corpus, eta=ETA, top=3, k_max=K_MAX)
        b = evaluate(noisy_corpus, eta=ETA, top=3, k_max=K_MAX)
        assert a.records == b.records

    def test_jsonl_shape(self, noisy_corpus):
        report = evaluate(noisy_corpus, eta=ETA, top=2, k_max=K_MAX,
                          corpus_label="toy")
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
        report = evaluate(noisy_corpus, alphas=(0, 2, ETA), eta=ETA, top=3, k_max=K_MAX,
                          **SWEEP_ALPHA)
        for n in (1, 2, 3):
            assert report.accuracy("combined", n, alpha=ETA) == \
                report.accuracy("nmf_angle", n)

    def test_full_grid_emitted(self, tmp_path):
        # the default grid, 0..eta, is the CLI's
        out = tmp_path / "alpha.jsonl"
        spec = "objects=8,views=3,T=16,N=120,r=3,sigma=0.03,seed=17"
        assert cli.main(["sweep-alpha", "--corpus", f"synthetic:{spec}", "--eta", "4",
                         "--top", "2", "--k-max", str(K_MAX), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        alphas = {r["alpha"] for r in records if r["pipeline"] == "combined"}
        assert alphas == set(range(5))

    def test_alpha_out_of_range(self, noisy_corpus):
        with pytest.raises(ValueError, match="alphas"):
            evaluate(noisy_corpus, alphas=(0, 9), eta=4, k_max=K_MAX, **SWEEP_ALPHA)

    def test_records_equal_evaluate_at_each_alpha(self, noisy_corpus):
        alphas = (0, 2, ETA)
        report = evaluate(noisy_corpus, alphas=alphas, eta=ETA, top=3, k_max=K_MAX,
                          **SWEEP_ALPHA)
        expected = []
        for alpha in alphas:
            expected.extend(evaluate(noisy_corpus, alphas=(alpha,), eta=ETA, top=3,
                                     k_max=K_MAX, pipelines=("combined",)).records)
        expected.extend(evaluate(noisy_corpus, eta=ETA, top=3, k_max=K_MAX,
                                 pipelines=("nmf_angle",)).records)
        assert report.records == expected


class TestSweepBits:
    def test_rate_sweep_shape_and_degradation(self, noisy_corpus):
        report = sweep_bits(noisy_corpus, bit_grid=(1, 5, 8), eta=ETA, alpha=2, top=3,
                            k_max=K_MAX, corpus_label="toy")
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
        rates = (2, 5, None)
        report = evaluate(noisy_corpus, rates=rates, eta=ETA, top=3, k_max=K_MAX)
        expected = []
        for bits in rates:
            expected.extend(evaluate(noisy_corpus, rates=(bits,), eta=ETA, top=3,
                                     k_max=K_MAX).records)
        assert report.records == expected


class TestSweepRank:
    def test_records_equal_evaluate_at_each_rank(self, noisy_corpus):
        ranks = (1, 3, None)
        report = evaluate(noisy_corpus, ranks=ranks, eta=ETA, top=2, k_max=K_MAX)
        expected = []
        for k in ranks:
            expected.extend(evaluate(noisy_corpus, ranks=(k,), eta=ETA, top=2,
                                     k_max=K_MAX).records)
        assert report.records == expected

    def test_one_svd_per_image_for_every_rank(self, noisy_corpus, svd_calls):
        evaluate(noisy_corpus, ranks=(1, 2, 4, None), eta=ETA, top=2, k_max=K_MAX)
        assert sorted(svd_calls) == sorted(m.image_id for m in noisy_corpus)

    def test_estimated_row_reported_with_every_fixed_rank(self, noisy_corpus):
        report = evaluate(noisy_corpus, ranks=(1, 3, None), eta=ETA, top=2, k_max=K_MAX)
        modes = {r.rank_mode for r in report.records}
        assert modes == {"fixed:1", "fixed:3", "estimated"}

    def test_estimated_matches_best_fixed_rank(self, noisy_corpus):
        report = evaluate(noisy_corpus, ranks=(1, 3, None), eta=ETA, top=2, k_max=K_MAX)
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
        report = evaluate(corpus, ranks=(1, None), eta=10, top=2, k_max=K_MAX,
                          pipelines=("nmf_angle", "combined"))
        for pipeline in ("nmf_angle", "combined"):
            fixed1 = report.accuracy(pipeline, 1, rank_mode="fixed:1")
            estimated = report.accuracy(pipeline, 1, rank_mode="estimated")
            assert fixed1 < estimated


@pytest.mark.parametrize("axes", [
    {},
    {**SWEEP_ALPHA, "alphas": (0, 2)},
    {"rates": (5, None)},
    {"ranks": (2, None)},
], ids=["evaluate", "sweep_alpha", "sweep_bits", "sweep_rank"])
def test_runtime_split_into_index_build_and_queries(noisy_corpus, axes):
    runtime = evaluate(noisy_corpus, eta=ETA, top=2, k_max=K_MAX, **axes).runtime
    assert set(runtime) == {"index_build", "queries"}
    assert all(seconds > 0 for seconds in runtime.values())


@pytest.fixture(scope="module")
def factorizations():
    """Float records by (image ids, k_max, ranks), shared by the tests below."""
    return {}


@pytest.mark.parametrize("axes", [
    {},
    {**SWEEP_ALPHA, "alphas": range(21)},
    {"rates": (1, 2, 3, 5, 8, None)},
    SWEEP_RANK,
    {"pipelines": ("combined",)},
    {"pipelines": ("pca_angle",)},
    {"pipelines": ("nmf_corr", "combined")},
], ids=["evaluate", "sweep_alpha", "sweep_bits", "sweep_rank", "combined", "pca_angle",
        "nmf_corr_and_combined"])
def test_sweeps_equal_the_per_query_loop(eval_corpus, factorizations, monkeypatch, axes):
    """Every report byte equals that of ranking each query on its own, on
    the README's corpus; each image is factorized once for both runs."""
    factorize = evaluation._factorized_by_rank

    def factorized_once(images, k_max, ranks):
        key = (tuple(m.image_id for m in images), k_max, tuple(ranks))
        if key not in factorizations:
            factorizations[key] = factorize(images, k_max, ranks)
        return factorizations[key]

    monkeypatch.setattr(evaluation, "_factorized_by_rank", factorized_once)
    expected = per_query_sweep(eval_corpus, k_max=16, **axes).to_jsonl()
    assert evaluate(eval_corpus, k_max=16, **axes).to_jsonl() == expected


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

    def test_duplicate_record_rejected(self):
        report = EvalReport(corpus_label="x", eta=4, records=[
            EvalRecord("combined", "estimated", 5, 2, 1, 0.9),
            EvalRecord("combined", "estimated", 5, 1, 1, 0.8),
            EvalRecord("combined", "estimated", 5, 2, 1, 0.9),
        ])
        with pytest.raises(ValueError, match="two records for config"):
            report.validate()

    def test_unknown_pipeline_rejected(self, noisy_corpus):
        with pytest.raises(ValueError, match="unknown pipeline"):
            evaluate(noisy_corpus, pipelines=("pca_corr", "sift"), k_max=K_MAX)
