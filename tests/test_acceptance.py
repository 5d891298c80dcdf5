"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report). Toy-scale corpora here are T=32, so model-order scans
use an explicit k_max=16 (2x headroom over the planted rank 4) instead of
the T=128-oriented default; see the module-order docs for why small-T white
noise makes the criterion dip again near k = min(T, N).
"""

import math
import os
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from factormatch import codec
from factormatch.descriptors import DescriptorMatrix, SynthCorpusSpec, generate_corpus
from factormatch.evaluation import evaluate
from factormatch.factorization import FactorLoadings, compute_svd, nmf_loadings
from factormatch.fusion import FusionParams, fuse
from factormatch.matcher import (
    ObjectIndex,
    RankedEntry,
    RankedList,
    rank_database,
)
from factormatch.model_order import estimate_order
from factormatch.service import answer_query, client_blobs, read_frame, write_frame

from conftest import (blob_header_bytes, index_of, lattice_values, payload_bytes,
                      quantizer_step, random_unit_columns, serve, subspace_angle)

K_MAX_TOY = 16  # scan ceiling for the T=32 synthetic corpora


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} - {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_metric_equivalence_against_projection_formula():
    """|fast principal angle - explicit projection-matrix formula| <= 1e-8
    over 1000 random loading pairs, in under 10 s."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ka = int(rng.integers(1, 9))
        kb = int(rng.integers(1, 9))
        # spans in general position: overlapping spans force an exact zero
        # angle where arccos conditioning degenerates for both formulas
        T = int(rng.integers(ka + kb + 1, 33))
        A = random_unit_columns(rng, T, ka)
        B = random_unit_columns(rng, T, kb)
        fast = subspace_angle(
            FactorLoadings(image_id="a", kind="pca", columns=A),
            FactorLoadings(image_id="b", kind="pca", columns=B),
        )
        P_a = A @ np.linalg.inv(A.T @ A) @ A.T
        P_b = B @ np.linalg.inv(B.T @ B) @ B.T
        reference = math.acos(min(1.0, np.linalg.svd(P_a @ P_b, compute_uv=False)[0]))
        worst = max(worst, abs(fast - reference))
    elapsed = time.perf_counter() - t0
    report(
        "metric equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst |angle diff| = {worst:.3g} over 1000 pairs in {elapsed:.2f}s",
    )


def test_model_order_recovery_rate():
    """Planted rank r in 2..8 at sigma=0.02 recovered in >= 90% of 50 seeds
    per rank, in under 60 s."""
    t0 = time.perf_counter()
    rates = {}
    for r in range(2, 9):
        hits = 0
        for seed in range(50):
            spec = SynthCorpusSpec(
                num_objects=1, views_per_object=1, T=32, descriptors_per_view=400,
                planted_rank=r, view_noise_sigma=0.02, seed=10_000 * r + seed,
            )
            m = generate_corpus(spec)[0]
            hits += estimate_order(m, k_max=K_MAX_TOY, svd=compute_svd(m)).k_star == r
        rates[r] = hits / 50
    elapsed = time.perf_counter() - t0
    report(
        "model-order recovery",
        all(rate >= 0.9 for rate in rates.values()) and elapsed < 60.0,
        f"recovery per rank {rates} in {elapsed:.1f}s",
    )


def test_nmf_objective_monotonicity():
    """Objective trace non-increasing at every iteration over 100 seeded runs."""
    violations = 0
    for run in range(100):
        rng = np.random.default_rng(run)
        T = int(rng.integers(4, 25))
        N = int(rng.integers(12, 81))
        k = 2 + run % 9  # cycles through 2..10
        k = min(k, N)
        m = DescriptorMatrix(
            image_id=f"run{run}", object_id="x",
            values=rng.uniform(size=(T, N)) + 1e-3,
        )
        _, _, trace = nmf_loadings(m, k, seed=run)
        if np.any(np.diff(trace) > 0):
            violations += 1
    report("nmf monotonicity", violations == 0,
           f"{violations} violating runs out of 100")


def test_fusion_identities():
    """fuse(v, v, alpha) = v and fuse(., ., eta) = primary on 10^4 random
    pairs, plus the worked example."""
    rng = np.random.default_rng(99)

    def ranked(ids, eta):
        return RankedList(
            entries=tuple(RankedEntry(o, f"{o}_v1", float(i)) for i, o in enumerate(ids)),
            eta=eta,
        )

    failures = 0
    for _ in range(10_000):
        eta = int(rng.integers(1, 21))
        pool = [f"o{i}" for i in range(eta + 3)]
        pri = list(rng.choice(pool, size=int(rng.integers(1, eta + 1)), replace=False))
        sec = list(rng.choice(pool, size=int(rng.integers(1, eta + 1)), replace=False))
        alpha = int(rng.integers(0, eta + 1))
        v_pri, v_sec = ranked(pri, eta), ranked(sec, eta)
        if fuse(v_pri, v_pri, FusionParams(alpha=alpha, eta=eta)).object_ids() != pri:
            failures += 1
        if fuse(v_pri, v_sec, FusionParams(alpha=eta, eta=eta)).object_ids() != pri:
            failures += 1
    trace = fuse(ranked(list("ABCD"), 4), ranked(list("BCDA"), 4),
                 FusionParams(alpha=1, eta=4)).object_ids()
    report(
        "fusion identities",
        failures == 0 and trace == list("BACD"),
        f"{failures} identity failures in 10^4 pairs; worked example -> {trace}",
    )


def test_quantizer_round_trip_and_payload():
    """Round-trip error <= step/2 on 10^6 samples; a 128x24 pair at 5 bits
    costs 3840 payload bytes plus fixed headers."""
    rng = np.random.default_rng(5)
    worst_excess = -np.inf
    for kind, lo in (("pca", -1.0), ("nmf", 0.0)):
        samples = rng.uniform(lo, 1.0, size=(1000, 500))
        f = FactorLoadings(image_id="samples", kind=kind, columns=samples)
        for bits in (1, 5, 12):
            q = codec.quantize(f, bits)
            err = np.abs(lattice_values(q) - samples).max()
            worst_excess = max(worst_excess, err - quantizer_step(q) / 2)
    pair = []
    for kind in ("pca", "nmf"):
        cols = random_unit_columns(rng, 128, 24)
        if kind == "nmf":
            cols = np.abs(cols)
            cols /= np.linalg.norm(cols, axis=0)
        pair.append(codec.quantize(
            FactorLoadings(image_id="img", kind=kind, columns=cols), 5))
    body = sum(payload_bytes(q) for q in pair)
    total = sum(len(codec.encode(q)) for q in pair)
    headers = 2 * blob_header_bytes("img")
    report(
        "quantization",
        worst_excess <= 1e-12 and body == 3840 and total == 3840 + headers,
        f"error excess over step/2 = {worst_excess:.2g}; "
        f"pair payload {body} B + {headers} B headers",
    )


def test_end_to_end_retrieval_accuracy(eval_corpus):
    """Combined top-1 >= each single-metric top-1 and >= 0.9 on the seeded
    corpus; the noiseless control is exactly 1.0. Under 5 minutes."""
    t0 = time.perf_counter()
    rep = evaluate(eval_corpus, eta=20, alphas=(2,), rates=(5,), top=3, k_max=K_MAX_TOY)
    pca = rep.accuracy("pca_corr", 1)
    nmf = rep.accuracy("nmf_angle", 1)
    combined = rep.accuracy("combined", 1)

    control_spec = SynthCorpusSpec(
        num_objects=50, views_per_object=5, T=32, descriptors_per_view=400,
        planted_rank=4, view_noise_sigma=0.0, seed=1,
    )
    control = evaluate(generate_corpus(control_spec), eta=20, alphas=(2,), rates=(5,),
                       top=1, k_max=K_MAX_TOY)
    control_acc = {p: control.accuracy(p, 1)
                   for p in ("pca_corr", "nmf_angle", "combined")}
    elapsed = time.perf_counter() - t0
    report(
        "end-to-end retrieval",
        combined >= max(pca, nmf) and combined >= 0.9
        and all(acc == 1.0 for acc in control_acc.values()) and elapsed < 300,
        f"top-1: combined={combined:.4f} pca_corr={pca:.4f} nmf_angle={nmf:.4f}; "
        f"noiseless {control_acc}; {elapsed:.0f}s",
    )


def test_quantization_saturation(eval_corpus):
    """Accuracy at 5 bits within one point of 8 bits on the seeded corpus."""
    acc5 = evaluate(eval_corpus, eta=20, alphas=(2,), rates=(5,), top=1,
                    k_max=K_MAX_TOY, pipelines=("combined",)).accuracy("combined", 1)
    acc8 = evaluate(eval_corpus, eta=20, alphas=(2,), rates=(8,), top=1,
                    k_max=K_MAX_TOY, pipelines=("combined",)).accuracy("combined", 1)
    report(
        "quantization saturation",
        abs(acc5 - acc8) <= 0.01,
        f"|acc(b=5) - acc(b=8)| = |{acc5:.4f} - {acc8:.4f}| = {abs(acc5 - acc8):.4f}",
    )


def test_service_transparency_under_concurrency():
    """Remote responses byte-identical to the local pipeline for 100 random
    queries spread over 16 concurrent connections."""
    spec = SynthCorpusSpec(
        num_objects=10, views_per_object=3, T=16, descriptors_per_view=80,
        planted_rank=3, view_noise_sigma=0.03, seed=77,
    )
    index = index_of(generate_corpus(spec), k_max=8, bits=5)

    query_specs = [
        SynthCorpusSpec(num_objects=1, views_per_object=1, T=16,
                        descriptors_per_view=80, planted_rank=3,
                        view_noise_sigma=0.05, seed=5000 + i)
        for i in range(100)
    ]
    queries = [generate_corpus(qs)[0] for qs in query_specs]
    payloads = []
    expected = []
    for i, m in enumerate(queries):
        q_pca, q_nmf = client_blobs(m, bits=5, k_max=8)
        payload = (b"QRY1" + struct.pack("<BHH", 1, 5, 2)
                   + struct.pack("<I", len(codec.encode(q_pca))) + codec.encode(q_pca)
                   + struct.pack("<I", len(codec.encode(q_nmf))) + codec.encode(q_nmf))
        payloads.append(payload)
        expected.append(answer_query(index, payload))

    mismatches = []

    def worker(job):
        start, step = job
        bad = []
        with socket.create_connection(server.address, timeout=30) as sock:
            stream = sock.makefile("rwb")
            for i in range(start, len(payloads), step):
                write_frame(stream, payloads[i])
                response = read_frame(stream)
                if response != expected[i]:
                    bad.append(i)
            stream.close()
        return bad

    with serve(index) as server:
        with ThreadPoolExecutor(max_workers=16) as pool:
            for bad in pool.map(worker, [(s, 16) for s in range(16)]):
                mismatches.extend(bad)
    report(
        "service transparency",
        not mismatches,
        f"{100 - len(mismatches)}/100 responses byte-identical over 16 connections",
    )


def test_rank_database_scaling():
    """rank_database wall time grows at most 1.3x linearly in K for
    K in {100, 200, 400, 800} at T=128, k=25."""
    rng = np.random.default_rng(31)
    T, k = 128, 25

    def image(i):
        pca = FactorLoadings(image_id=f"img{i:05d}", kind="pca",
                             columns=random_unit_columns(rng, T, k))
        nmf_cols = np.abs(random_unit_columns(rng, T, k))
        nmf_cols /= np.linalg.norm(nmf_cols, axis=0)
        nmf = FactorLoadings(image_id=f"img{i:05d}", kind="nmf", columns=nmf_cols)
        return f"obj{i:05d}", pca, nmf

    images = [image(i) for i in range(800)]
    query = FactorLoadings(image_id="q", kind="pca",
                           columns=random_unit_columns(rng, T, k))
    scrub = np.zeros(8_000_000)  # 64 MB, larger than L2
    times = {}
    for K in (100, 200, 400, 800):
        index = ObjectIndex(images[:K])
        rank_database(query, index, "correlation", eta=20)  # warm-up
        best = math.inf
        for _ in range(5):
            # evict the index between runs: small indexes would otherwise sit
            # in L2 and make the per-image baseline unfairly fast
            scrub += 1.0
            best = min(best, _timed(
                lambda: rank_database(query, index, "correlation", eta=20)))
        times[K] = best
    ratios = {K: times[K] / (times[100] * K / 100) for K in (200, 400, 800)}
    report(
        "scaling smoke test",
        all(r <= 1.3 for r in ratios.values()),
        f"per-K times {({K: f'{v * 1e3:.1f}ms' for K, v in times.items()})}; "
        f"normalized growth {({K: f'{r:.2f}x' for K, r in ratios.items()})}",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


ZUBUD_ENV = "ZUBUD_DESCRIPTOR_DIR"


@pytest.mark.skipif(ZUBUD_ENV not in os.environ,
                    reason=f"set {ZUBUD_ENV} to a directory of ZuBuD descriptor "
                           "files to run the offline reproduction check")
def test_zubud_reproduction_offline():
    """Offline: combined top-1/2/3 within 3 points of 89.05/91.54/92.54 and
    mean estimated order within 3 of 24.598 on an external ZuBuD dump."""
    from factormatch.descriptors import load_corpus

    corpus = load_corpus(os.environ[ZUBUD_ENV])
    orders = [estimate_order(m, k_max=64, svd=compute_svd(m)).k_star for m in corpus]
    rep = evaluate(corpus, eta=20, alphas=(2,), rates=(5,), top=3, k_max=64,
                   pipelines=("combined",))
    acc = [rep.accuracy("combined", n) for n in (1, 2, 3)]
    targets = (0.8905, 0.9154, 0.9254)
    mean_order = float(np.mean(orders))
    report(
        "zubud reproduction",
        all(abs(a - t) <= 0.03 for a, t in zip(acc, targets))
        and abs(mean_order - 24.598) <= 3.0,
        f"combined top-1/2/3 = {[f'{a:.4f}' for a in acc]} vs {targets}; "
        f"mean order {mean_order:.3f}",
    )
