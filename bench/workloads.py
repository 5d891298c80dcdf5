"""The benchmark's three workloads, run against factormatch's public API.

Each workload makes its inputs from the seed, sets up (several times, so
set-up time is a median), measures as many whole rounds of the same
operations as fit in the requested seconds (with a floor on rounds), and
checks every output against ``reference`` (which shares no code with the
package) or against a property the method must have. Timed regions hold
only program calls; checks run between them.

Every workload reports the same end-to-end metrics: ``setup_s``,
``op_ms_p50`` (the median time of its own operation: a query round trip,
an image ingested, a bit sweep), and, from an untimed pass over a fixed set
of its images at 5 bits, ``upload_bytes_per_image`` and
``index_kb_per_image``.
"""

from __future__ import annotations

import os
import re
import select
import socket
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import factormatch as fm
import reference
from reference import Mismatch

ETA, ALPHA, BITS = 20, 2, 5
K_STAR = 24  # planted rank of both k24 corpora; sigma=0.002 keeps k* there
SETUP_REPEATS = 5  # set-ups per run at least,
SETUP_SECONDS = 4.0  # and on until this much set-up time is measured

# serve-k24: 250 objects x 5 views; views 2-5 (K=1000 images) form the index,
# view 1 of the first 40 objects are the held-out queries.
SERVE_SPEC = "objects=250,views=5,T=128,N=200,r=24,sigma=0.002,seed={seed}"
SERVE_QUERIES = 40
SERVER_START_TIMEOUT = 60.0

# ingest-k24: paper-scale images, as many as one run ingests at today's speed.
INGEST_SPEC = "objects=48,views=4,T=128,N=800,r=24,sigma=0.002,seed={seed}"
INGEST_BATCH = 16  # images per round: one index file written and read back
INGEST_MIN_ROUNDS = 7  # and the images of these rounds give the size metrics

# sweep-bits-t32: the README's evaluation corpus with the seed varied.
SWEEP_SPEC = "objects=50,views=5,T=32,N=400,r=4,sigma=0.05,seed={seed}"
SWEEP_GRID = (5, 8)
SWEEP_K_MAX = 16
SWEEP_TOP = 20


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail_check(self, what: str) -> None:
        self.correct = False
        if len(self.problems) < 10:
            self.problems.append(what)

    def expect(self, what: str, check, *args):
        """Run a reference check; a mismatch marks the run incorrect."""
        try:
            return check(*args)
        except Mismatch as exc:
            self.fail_check(f"{what}: {exc}")
            return None


def _timed_setup(setup, out: Outcome, discard=lambda result: None):
    """Run ``setup`` at least SETUP_REPEATS times and until SETUP_SECONDS of it
    are timed; report the median; keep the last result and ``discard`` the
    others, untimed."""
    times = []
    while True:
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_REPEATS and sum(times) >= SETUP_SECONDS:
            break
        discard(result)
    out.metrics["setup_s"] = (statistics.median(times), "s")
    return result


def _another_round(durations: list[float], seconds: float, min_rounds: int = 1) -> bool:
    """Whole rounds only: go on while one more of average length fits in ``seconds``."""
    n = len(durations)
    return n < min_rounds or sum(durations) * (n + 1) / n <= seconds


def _spec(template: str, seed: int) -> fm.SynthCorpusSpec:
    return fm.SynthCorpusSpec.from_string(template.format(seed=seed))


def _untraced(tracer):
    """Input preparation and metric passes record no spans in a traced run."""
    return tracer.off() if tracer else nullcontext()


def _client_upload(m, k_max=None):
    """Client extraction of one image: quantized loadings and their blobs."""
    q_pca, q_nmf = fm.service.client_blobs(m, BITS, k_max=k_max)
    return m.image_id, m.object_id, q_pca, q_nmf, fm.codec.encode(q_pca), fm.codec.encode(q_nmf)


def _check_upload(upload, out: Outcome, k_star=K_STAR) -> None:
    image_id, _, q_pca, q_nmf, pca_blob, nmf_blob = upload
    if k_star is not None and (q_pca.k, q_nmf.k) != (k_star, k_star):
        out.fail_check(f"{image_id}: k* = {(q_pca.k, q_nmf.k)}, expected {k_star}")
    out.expect(image_id, reference.check_blob, pca_blob, image_id, 0, BITS, q_pca.levels)
    out.expect(image_id, reference.check_blob, nmf_blob, image_id, 1, BITS, q_nmf.levels)


def _records(uploads) -> list:
    return [fm.service.IndexRecord(obj, q_pca, q_nmf) for _, obj, q_pca, q_nmf, _, _ in uploads]


def _upload_bytes_per_image(uploads, out: Outcome) -> float:
    """Mean framed QRY1 upload of each image's two blobs; every frame must
    have the size the documented layout gives."""
    sizes = []
    for image_id, _, _, _, pca_blob, nmf_blob in uploads:
        frame = 4 + len(fm.service.encode_query(ETA, ALPHA, pca_blob, nmf_blob))
        layout = reference.query_frame_bytes(
            [reference.decode_blob(pca_blob), reference.decode_blob(nmf_blob)])
        if frame != layout:
            out.fail_check(f"{image_id}: {frame} upload bytes, layout says {layout}")
        sizes.append(frame)
    return float(np.mean(sizes))


def _load_index(index_path: Path, records, out: Outcome, measure: bool):
    """``read_index``, checked against the reference decoding of the file.
    With ``measure``, also the memory the loaded index holds: the net
    ``tracemalloc`` growth across the call, in kB (10^3 bytes) per image."""
    if measure:
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
    index = fm.service.read_index(index_path)
    kb_per_image = None
    if measure:
        kb_per_image = (tracemalloc.get_traced_memory()[0] - before) / 1e3 / len(records)
        tracemalloc.stop()
    entries = reference.decode_index(index_path.read_bytes())
    _check_index(index, entries, records, out)
    return index, entries, kb_per_image


def _size_metrics(uploads, index_path: Path, out: Outcome, tracer) -> None:
    """Untimed pass: the upload and the loaded index of ``uploads``."""
    with _untraced(tracer):
        records = _records(uploads)
        fm.service.write_index(index_path, records)
        _, _, kb_per_image = _load_index(index_path, records, out, measure=True)
    out.metrics["upload_bytes_per_image"] = (_upload_bytes_per_image(uploads, out), "bytes")
    out.metrics["index_kb_per_image"] = (kb_per_image, "kB")


# --- serve-k24 ----------------------------------------------------------


def _start_server(index_path: Path):
    """Spawn ``factormatch serve`` on a free loopback port; return once it accepts."""
    env = dict(os.environ, PYTHONPATH=str(Path(fm.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "factormatch.cli", "serve",
         "--index", str(index_path), "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        match = re.search(r" on (\S+):(\d+)$", line.strip())
        if match is None:
            raise RuntimeError(f"server did not report its address: {line!r}")
        endpoint = (match.group(1), int(match.group(2)))
        socket.create_connection(endpoint, timeout=SERVER_START_TIMEOUT).close()
    except BaseException:
        _stop_server(proc)
        raise
    return proc, endpoint


def _stop_server(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _query(endpoint, payload, results: list, qi: int) -> None:
    t0 = time.perf_counter()
    try:
        status, entries, _ = fm.service.send_query(endpoint, *payload, ETA, ALPHA)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        status, entries = None, repr(exc)
    results.append((qi, time.perf_counter() - t0, status, entries))


def _closed_loop(endpoint, payloads, seconds: float) -> list:
    """One client that sends its next query only when the last one returned;
    a round is every query once, and rounds repeat while another fits in
    ``seconds``."""
    results, rounds = [], []
    while _another_round(rounds, seconds):
        t0 = time.perf_counter()
        for qi, payload in enumerate(payloads):
            _query(endpoint, payload, results, qi)
        rounds.append(time.perf_counter() - t0)
    return results


def _check_index(index, entries: list[reference.IndexEntry], records, out: Outcome) -> None:
    """``read_index`` must hold exactly the levels written, as reference loadings."""
    if index.num_images != len(records) or len(entries) != len(records):
        out.fail_check(f"index holds {index.num_images} images, wrote {len(records)}")
        return
    for entry, rec in zip(entries, records):
        if (entry.object_id != rec.object_id
                or not np.array_equal(entry.pca.levels, rec.pca.levels)
                or not np.array_equal(entry.nmf.levels, rec.nmf.levels)):
            out.fail_check(f"index file entry {entry.pca.image_id} differs from its record")
            continue
        held = index.images.get(entry.pca.image_id)
        if (held is None or held.object_id != entry.object_id
                or np.abs(held.pca.columns - entry.pca.loadings()).max() > reference.LOADINGS_TOL
                or np.abs(held.nmf.columns - entry.nmf.loadings()).max() > reference.LOADINGS_TOL):
            out.fail_check(f"read_index loadings of {entry.pca.image_id} differ from the levels written")


def _corruption_caught(check) -> bool:
    try:
        check()
    except Mismatch:
        return True
    return False


def _self_test(upload, expected: reference.Expected, out: Outcome) -> None:
    """The checks must reject a flipped blob bit and a reordered response."""
    image_id, _, q_pca, _, pca_blob, _ = upload
    flipped = bytearray(pca_blob)
    flipped[-1] ^= 0x01
    if not _corruption_caught(lambda: reference.check_blob(
            bytes(flipped), image_id, 0, BITS, q_pca.levels)):
        out.fail_check("self-test: a corrupted blob passed the check")
    good = [(obj, score, rank) for rank, (obj, score) in enumerate(expected.entries, 1)]
    swapped = [(good[1][0], good[1][1], 1), (good[0][0], good[0][1], 2)] + good[2:]
    if not _corruption_caught(lambda: expected.check(0, swapped)):
        out.fail_check("self-test: a reordered response passed the check")


def serve_k24(args, work: Path, tracer) -> Outcome:
    out = Outcome()
    corpus = fm.generate_corpus(_spec(SERVE_SPEC, args.seed))
    database = [m for m in corpus if fm.descriptors.view_index(m.image_id) != 1]
    queries = [m for m in corpus if fm.descriptors.view_index(m.image_id) == 1][:SERVE_QUERIES]
    del corpus
    # Client extraction is ingest-k24's subject; here it only prepares inputs,
    # so a traced run records no spans for it.
    with _untraced(tracer):
        uploads = [_client_upload(m) for m in database + queries]
    del database, queries
    for upload in uploads:
        _check_upload(upload, out)
        if tracer:
            tracer.count("model_order.k_star", upload[2].k)
    db_uploads, query_uploads = uploads[:-SERVE_QUERIES], uploads[-SERVE_QUERIES:]
    records = _records(db_uploads)
    index_path = work / "serve.idx"
    server = None

    def setup():
        fm.service.write_index(index_path, records)
        with tracer.span("cli.serve_ready") if tracer else nullcontext():
            return _start_server(index_path)

    try:
        server, endpoint = _timed_setup(setup, out, lambda started: _stop_server(started[0]))
        # the served index, loaded in-process in an untimed pass
        index, entries, kb_per_image = _load_index(index_path, records, out,
                                                   measure=not tracer)
        ref_index = reference.ReferenceIndex(entries)

        payloads, expected = [], []
        for _, _, _, _, pca_blob, nmf_blob in query_uploads:
            payloads.append((pca_blob, nmf_blob))
            blobs = [reference.decode_blob(pca_blob), reference.decode_blob(nmf_blob)]
            expected.append(ref_index.combined(blobs[0].loadings(), blobs[1].loadings(),
                                               ETA, ALPHA))

        warm: list = []
        _query(endpoint, payloads[0], warm, 0)  # warm-up, untimed
        if tracer:
            results = _traced_serve_pass(endpoint, payloads, index, expected, args.seconds,
                                         tracer, out)
        else:
            results = _closed_loop(endpoint, payloads, args.seconds)
    finally:
        if server is not None:
            _stop_server(server)

    for qi, _, status, entries in warm + results:
        if status is None:
            out.failed += 1
        else:
            out.expect(f"query {qi}", expected[qi].check, status, entries)
    out.attempted = len(warm) + len(results)
    _self_test(query_uploads[0], expected[0], out)
    if not tracer:
        latency_ms = [1000 * lat for _, lat, status, _ in results if status is not None]
        out.metrics.update({
            "op_ms_p50": (statistics.median(latency_ms), "ms"),
            "upload_bytes_per_image": (_upload_bytes_per_image(query_uploads, out), "bytes"),
            "index_kb_per_image": (kb_per_image, "kB"),
        })
    return out


def _traced_serve_pass(endpoint, payloads, index, expected, seconds, tracer, out):
    """Rounds of: each query alone on the wire, then answered in-process twice,
    once untraced (paired with the round trip; the median difference is the
    wire and protocol overhead) and once traced (the per-layer spans)."""
    results, overhead, untraced = [], [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        for qi, payload in enumerate(payloads):
            _query(endpoint, payload, results, qi)
            body = fm.service.encode_query(ETA, ALPHA, *payload)
            with tracer.off():
                t0 = time.perf_counter()
                fm.service.answer_query(index, body)
                untraced.append(time.perf_counter() - t0)
            overhead.append(results[-1][1] - untraced[-1])
            status, entries, _ = fm.service.decode_response(fm.service.answer_query(index, body))
            out.expect(f"in-process query {qi}", expected[qi].check, status, entries)
    tracer.count("service.wire_overhead_ms", 1000 * statistics.median(overhead))
    # for the tracing overhead: the same call with and without its spans
    out.metrics["answer_query_untraced_ms"] = (1000 * statistics.mean(untraced), "ms")
    return results


# --- ingest-k24 ---------------------------------------------------------


def _check_fresh(m, q_pca, q_nmf, out: Outcome) -> None:
    """Fresh loadings: unit columns, PCA orthonormal, NMF non-negative; the
    uploaded levels are within half a step of them."""
    pca, nmf, k = fm.service.factorize_image(m)
    for f, q in ((pca, q_pca), (nmf, q_nmf)):
        x = f.columns
        if np.abs(np.linalg.norm(x, axis=0) - 1).max() > 1e-9:
            out.fail_check(f"{m.image_id}: {f.kind} columns are not unit-norm")
        step = (q.hi - q.lo) / ((1 << q.bits) - 1)
        err = np.abs(x - (q.lo + q.levels * step)).max()
        if err > step / 2 + 1e-12:
            out.fail_check(f"{m.image_id}: {f.kind} quantization error {err} > step/2")
    if np.abs(pca.columns.T @ pca.columns - np.eye(k)).max() > 1e-8:
        out.fail_check(f"{m.image_id}: PCA loadings are not orthonormal")
    if (nmf.columns < 0).any():
        out.fail_check(f"{m.image_id}: NMF loadings have negative entries")


def ingest_k24(args, work: Path, tracer) -> Outcome:
    out = Outcome()
    corpus_dir = work / "ingest"

    corpus = _timed_setup(lambda: fm.generate_corpus(_spec(INGEST_SPEC, args.seed)), out)
    # Writing the files is left out of set-up: the same save_corpus took
    # 0.10-0.36 s from one call to the next, with the disk, not the program.
    fm.save_corpus(corpus, corpus_dir)
    del corpus
    paths = sorted(corpus_dir.glob("*.dmt"))
    index_path = work / "ingest.idx"
    round_busy, sized = [], []
    while _another_round(round_busy, args.seconds, INGEST_MIN_ROUNDS):
        first = len(round_busy) * INGEST_BATCH
        batch = [paths[(first + i) % len(paths)] for i in range(INGEST_BATCH)]
        busy = 0.0
        records, uploads = [], []
        for path in batch:
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                m = fm.descriptors.load_descriptors(path.read_bytes(), "binary")
                q_pca, q_nmf = fm.service.client_blobs(m, BITS)
                blobs = fm.codec.encode(q_pca), fm.codec.encode(q_nmf)
                busy += time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out.failed += 1
                out.fail_check(f"{path.name}: {exc!r}")
                continue
            records.append(fm.service.IndexRecord(m.object_id, q_pca, q_nmf))
            uploads.append((m, q_pca, q_nmf, blobs))
        t0 = time.perf_counter()
        fm.service.write_index(index_path, records)
        index = fm.service.read_index(index_path)
        busy += time.perf_counter() - t0
        round_busy.append(busy)

        for m, q_pca, q_nmf, blobs in uploads:
            _check_upload((m.image_id, m.object_id, q_pca, q_nmf, *blobs), out)
            if len(round_busy) <= INGEST_MIN_ROUNDS:
                sized.append((m.image_id, m.object_id, q_pca, q_nmf, *blobs))
        entries = out.expect("index file", reference.decode_index, index_path.read_bytes())
        if entries is not None:
            _check_index(index, entries, records, out)
        m, q_pca, q_nmf, _ = uploads[0]
        with _untraced(tracer):
            _check_fresh(m, q_pca, q_nmf, out)

    # time per image ingested: read, extract and encode it, plus its share
    # of its round's write_index and read_index
    out.metrics["op_ms_p50"] = (1000 * statistics.median(round_busy) / INGEST_BATCH, "ms")
    _size_metrics(sized, work / "ingest-sized.idx", out, tracer)
    return out


# --- sweep-bits-t32 -----------------------------------------------------


def _check_sweep(report, out: Outcome) -> None:
    try:
        report.validate()
    except ValueError as exc:
        out.fail_check(f"EvalReport.validate: {exc}")
    keys = {(r.pipeline, r.bits, r.top_n) for r in report.records}
    missing = [(p, b, n) for b in (*SWEEP_GRID, None) for p in fm.evaluation.PIPELINES
               for n in range(1, min(SWEEP_TOP, ETA) + 1) if (p, b, n) not in keys]
    if missing or len(keys) != len(report.records):
        out.fail_check(f"sweep records: {len(missing)} missing, "
                       f"{len(report.records) - len(keys)} duplicated")
        return
    for bits in (*SWEEP_GRID, None):
        combined = report.accuracy("combined", 1, bits=bits)
        for p in fm.evaluation.PIPELINES:
            if report.accuracy(p, 1, bits=bits) > combined:
                out.fail_check(f"bits={bits}: {p} top-1 beats combined top-1 {combined}")
    gap = abs(report.accuracy("combined", 1, bits=5) - report.accuracy("combined", 1, bits=8))
    if gap > 0.01:
        out.fail_check(f"combined top-1 moves by {gap} between 5 and 8 bits")


def sweep_bits_t32(args, work: Path, tracer) -> Outcome:
    out = Outcome()
    # the in-memory corpus of `factormatch sweep-bits --corpus synthetic:<spec>`;
    # writing it to files would put the disk's swings into set-up (see ingest-k24)
    corpus = _timed_setup(lambda: fm.generate_corpus(_spec(SWEEP_SPEC, args.seed)), out)
    # the rate side of the sweep: every image extracted at 5 bits, untimed
    with _untraced(tracer):
        uploads = [_client_upload(m, k_max=SWEEP_K_MAX) for m in corpus]
    for upload in uploads:
        _check_upload(upload, out, k_star=None)
    _size_metrics(uploads, work / "sweep.idx", out, tracer)
    del uploads
    times = []
    while _another_round(times, args.seconds):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            report = fm.evaluation.sweep_bits(
                corpus, bit_grid=SWEEP_GRID, eta=ETA, alpha=ALPHA, top=SWEEP_TOP,
                k_max=SWEEP_K_MAX, corpus_label=SWEEP_SPEC.format(seed=args.seed))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            out.failed += 1
            out.fail_check(f"sweep_bits: {exc!r}")
            break
        times.append(time.perf_counter() - t0)
        _check_sweep(report, out)
    if times:
        out.metrics["op_ms_p50"] = (1000 * statistics.median(times), "ms")
    return out


WORKLOADS = {
    "serve-k24": serve_k24,
    "ingest-k24": ingest_k24,
    "sweep-bits-t32": sweep_bits_t32,
}
