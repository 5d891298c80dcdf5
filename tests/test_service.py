import dataclasses
import io
import math
import re
import socket
import struct
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch import codec, service
from factormatch.binary import Reader, blob, text
from factormatch.descriptors import SynthCorpusSpec, generate_corpus
from factormatch.factorization import nmf_loadings
from factormatch.matcher import ObjectIndex, rank_database, retrieve_combined
from factormatch.service import (
    MAX_ETA,
    MAX_FRAME,
    STATUS_INVALID_PARAMS,
    STATUS_MALFORMED,
    STATUS_OK,
    STATUS_QUERY_FAILED,
    IndexRecord,
    ProtocolError,
    ServerReportedError,
    answer_query,
    client_blobs,
    decode_query,
    decode_response,
    encode_query,
    encode_response,
    factorize_image,
    factorized,
    quantized,
    query_remote,
    read_frame,
    read_index,
    send_query,
    write_frame,
    write_index,
)

from conftest import (
    index_of,
    payload_bytes,
    records_of,
    reference_index_blobs,
    serve,
    validate_loadings,
)

K_MAX = 8  # toy corpora here are T=16 with planted rank <= 3


@pytest.fixture(scope="module")
def corpus():
    spec = SynthCorpusSpec(6, 3, T=16, descriptors_per_view=100,
                           planted_rank=3, view_noise_sigma=0.02, seed=11)
    return generate_corpus(spec)


def blobs_of_rank(T, k, seed=0):
    """PCA and NMF blobs of a random T x k query at 5 bits; no client sends
    k > T, since pca_loadings requires k <= min(T, N)."""
    rng = np.random.default_rng(seed)
    return tuple(codec.encode(codec.QuantizedLoadings(
        "q", kind, 5, rng.integers(0, 32, size=(T, k)))) for kind in ("pca", "nmf"))


def other_T_corpus():
    """Two images of descriptor dimension T=8, against the T=16 corpus."""
    return generate_corpus(SynthCorpusSpec(
        2, 1, T=8, descriptors_per_view=30, planted_rank=2,
        view_noise_sigma=0.01, seed=9))


@pytest.fixture(scope="module")
def index(corpus):
    return index_of(corpus, k_max=K_MAX, bits=5)


@pytest.fixture(scope="module")
def server(index):
    with serve(index) as handle:
        yield handle


class TestBuildIndex:
    def test_single_image_corpus(self):
        spec = SynthCorpusSpec(1, 1, T=8, descriptors_per_view=30,
                               planted_rank=2, view_noise_sigma=0.01, seed=2)
        index = index_of(generate_corpus(spec), k_max=4, bits=5)
        assert index.num_images == 1
        (rec,) = index.images.values()
        assert rec.pca.k == rec.nmf.k

    def test_synthetic_corpus_bookkeeping(self, corpus, index):
        assert index.num_images == len(corpus) == 18
        assert index.num_objects == 6

    def test_250_view_corpus_bookkeeping(self, eval_corpus):
        index = index_of(eval_corpus, k_max=16, bits=5)
        assert index.num_images == 250
        assert index.num_objects == 50
        for rec in index.images.values():
            assert rec.pca.k == rec.nmf.k

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least one image"):
            index_of([], bits=5)

    def test_duplicate_image_id_rejected(self, corpus):
        with pytest.raises(ValueError, match=f"duplicate image id '{corpus[0].image_id}'"):
            index_of([corpus[0], corpus[1], corpus[0]], k_max=K_MAX)

    @pytest.mark.parametrize("field", ["object_id", "image_id"])
    def test_id_too_long_to_send_rejected(self, corpus, field):
        # 40,000 two-byte characters: the limit counts UTF-8 bytes
        long_id = dataclasses.replace(corpus[0], **{field: "\u00e9" * 40_000})
        with pytest.raises(ValueError, match=f"{field[:-3]} id of 80000 bytes exceeds"):
            index_of([long_id, *corpus[1:3]], k_max=K_MAX)
        longest = dataclasses.replace(corpus[0], **{field: "x" * 0xFFFF})
        assert index_of([longest, *corpus[1:3]], k_max=K_MAX).num_images == 3

    def test_unquantized_mode(self, corpus):
        index = index_of(corpus[:3], k_max=K_MAX, bits=None)
        for rec in index.images.values():
            validate_loadings(rec.pca)  # full-precision loadings stay orthonormal

    def test_paper_scale_payload(self):
        # T=128 descriptors with 24 planted factors: the stored pair should
        # cost 3.84 kB plus fixed headers at 5 bits
        spec = SynthCorpusSpec(2, 1, T=128, descriptors_per_view=800,
                               planted_rank=24, view_noise_sigma=0.005, seed=5)
        records = records_of(generate_corpus(spec), k_max=64, bits=5)
        ks = [rec.pca.k for rec in records]
        assert all(k == 24 for k in ks)
        bodies = [payload_bytes(rec.pca) + payload_bytes(rec.nmf) for rec in records]
        assert all(body == 3840 for body in bodies)


class TestFactorizeImage:
    def test_one_svd_per_image(self, corpus, svd_calls):
        for m in corpus[:3]:
            factorize_image(m, K_MAX)
        assert svd_calls == [m.image_id for m in corpus[:3]]

    def test_one_svd_at_fixed_rank(self, corpus, svd_calls):
        pca, nmf, k = factorize_image(corpus[0], fixed_k=2)
        assert svd_calls == [corpus[0].image_id]
        assert pca.k == nmf.k == k == 2

    def test_fixed_rank_capped_at_matrix_rank(self, corpus):
        m = corpus[0]
        _, _, k = factorize_image(m, fixed_k=10 * m.T)
        assert k == min(m.T, m.N)

    def test_nmf_seeded_with_the_crc32_of_the_image_id(self, corpus):
        for m in corpus[:3]:
            _, nmf, k = factorize_image(m)
            seed = zlib.crc32(m.image_id.encode("utf-8"))
            assert np.array_equal(nmf.columns, nmf_loadings(m, k, seed=seed)[0].columns)
            assert not np.array_equal(nmf.columns, nmf_loadings(m, k, seed=seed ^ 1)[0].columns)


class TestRecordPath:
    @pytest.mark.parametrize("bits", [2, 5, 12])
    def test_index_records_are_the_client_uploads(self, corpus, bits):
        records = quantized(factorized(corpus, K_MAX), bits)
        for m, rec in zip(corpus, records, strict=True):
            q_pca, q_nmf = client_blobs(m, bits, K_MAX)
            assert rec.object_id == m.object_id
            assert codec.encode(rec.pca) == codec.encode(q_pca)
            assert codec.encode(rec.nmf) == codec.encode(q_nmf)


class TestIndexFile:
    def test_round_trip(self, corpus, index, tmp_path):
        records = records_of(corpus, k_max=K_MAX, bits=5)
        path = tmp_path / "corpus.idx"
        write_index(path, records)
        loaded = read_index(path)
        assert loaded.num_images == index.num_images
        for image_id, rec in index.images.items():
            other = loaded.images[image_id]
            assert other.object_id == rec.object_id
            assert np.array_equal(other.pca.columns, rec.pca.columns)
            assert np.array_equal(other.nmf.columns, rec.nmf.columns)

    def test_round_trip_of_mixed_bit_widths(self, corpus, tmp_path):
        records = [IndexRecord(m.object_id, *client_blobs(m, bits, k_max=K_MAX))
                   for m, bits in zip(corpus, [2, 5, 8, 12] * len(corpus))]
        path = tmp_path / "mixed_bits.idx"
        write_index(path, records)
        loaded = read_index(path)
        floats = ObjectIndex((rec.object_id, codec.dequantize(rec.pca),
                              codec.dequantize(rec.nmf)) for rec in records)
        # up to 12 bits: wider than 8
        assert loaded._lattices["pca"].vectors.dtype == np.int16
        assert loaded._lattices["nmf"].vectors.dtype == np.uint16
        for image_id, rec in floats.images.items():
            other = loaded.images[image_id]
            assert other.object_id == rec.object_id
            assert np.array_equal(other.pca.columns, rec.pca.columns)
            assert np.array_equal(other.nmf.columns, rec.nmf.columns)
        payloads = _payloads(corpus)
        assert ([answer_query(loaded, p) for p in payloads]
                == [answer_query(floats, p) for p in payloads])

    def test_memory_of_a_loaded_index(self, tmp_path):
        """An index holds each image's PCA and NMF loadings as 5-bit lattice
        vectors in int8 and uint8, with a float64 norm per column: about 3.1
        + 3.1 + 0.4 kB per image at T=128, k=24."""
        T, k, n = 128, 24, 40
        rng = np.random.default_rng(40)
        records = [IndexRecord(f"o{i}", *(
            codec.QuantizedLoadings(f"o{i}_v1", kind, 5, rng.integers(1, 32, size=(T, k)))
            for kind in ("pca", "nmf"))) for i in range(n)]
        path = tmp_path / "paper_scale.idx"
        write_index(path, records)
        del records
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = read_index(path)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert index.num_images == n
        assert grown / n < 8_000

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not an index")
        with pytest.raises(ProtocolError, match="magic"):
            read_index(path)

    @pytest.fixture
    def four_records(self, corpus):
        return records_of(corpus[:4], k_max=K_MAX, bits=5)

    def test_every_truncation_rejected(self, four_records, tmp_path):
        path = tmp_path / "four.idx"
        write_index(path, four_records)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises((ProtocolError, codec.CodecError)):
                read_index(path)

    def test_trailing_bytes_rejected(self, four_records, tmp_path):
        path = tmp_path / "four.idx"
        write_index(path, four_records)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ProtocolError, match="4 trailing bytes"):
            read_index(path)

    def test_non_utf8_object_id_rejected(self, tmp_path):
        path = tmp_path / "bad_id.idx"
        path.write_bytes(b"IDX1" + struct.pack("<IH", 1, 1) + b"\xff")
        with pytest.raises(ProtocolError, match="UTF-8"):
            read_index(path)

    def test_duplicate_record_rejected(self, four_records, tmp_path):
        path = tmp_path / "dup.idx"
        write_index(path, [*four_records[:2], four_records[0]])
        duplicate = four_records[0].pca.image_id
        with pytest.raises(ProtocolError, match=f"duplicate image id '{duplicate}'"):
            read_index(path)

    def test_blobs_of_two_images_rejected(self, four_records, tmp_path):
        path = tmp_path / "two.idx"
        first, second = four_records[:2]
        write_index(path, [first, second._replace(nmf=first.nmf)])
        with pytest.raises(ProtocolError, match=(
                f"image '{second.pca.image_id}': NMF loadings are of image "
                f"'{first.pca.image_id}'")):
            read_index(path)

    def test_object_id_too_long_to_store_rejected(self, four_records, tmp_path):
        path = tmp_path / "long.idx"
        record = four_records[0]._replace(object_id="o" * 70_000)
        with pytest.raises(ValueError, match="70000 bytes"):
            write_index(path, [record])
        assert not path.exists()

    def test_mixed_descriptor_dims_rejected(self, four_records, tmp_path):
        path = tmp_path / "mixed.idx"
        other = records_of(other_T_corpus()[:1], k_max=4)
        write_index(path, [*four_records[1:3], *other])
        with pytest.raises(ProtocolError, match="descriptor dims"):
            read_index(path)


def random_record(rng, object_id, image_id, T, k, pca_bits, nmf_bits):
    return IndexRecord(object_id, *(
        codec.QuantizedLoadings(image_id, kind, bits, rng.integers(0, 1 << bits, size=(T, k)))
        for kind, bits in (("pca", pca_bits), ("nmf", nmf_bits))))


def blob_by_blob(data: bytes) -> ObjectIndex:
    """``read_index`` as a reference: each blob decoded and dequantized on
    its own, records checked in file order, then the index built."""
    r = Reader(data, b"IDX1", "index file", ProtocolError)
    (count,) = r.unpack("I", "image count")
    records = [(r.text("object id"), codec.decode(r.blob("pca blob")),
                codec.decode(r.blob("nmf blob"))) for _ in range(count)]
    r.end(f"{count} index records")
    try:
        return ObjectIndex((obj, codec.dequantize(pca), nmf) for obj, pca, nmf in records)
    except ValueError as exc:
        raise ProtocolError(f"invalid index file: {exc}") from None


class TestIndexFileOfManyShapes:
    """``read_index`` unpacks the blobs of each shape together; the index it
    builds holds the loadings that decoding blob by blob gives: the NMF
    lattice of the same levels, and PCA columns and angles bit for bit those
    of each blob's own dequantization."""

    @pytest.mark.parametrize("T, ks", [(7, (1, 2, 3, 5, 7)), (128, (1, 2, 4, 24, 7))])
    def test_mixed_ranks_and_widths(self, T, ks, tmp_path):
        rng = np.random.default_rng(T)
        records = [random_record(rng, f"o{i // 3}", f"o{i // 3}_v{i % 3}", T, ks[i % len(ks)],
                                 1 + i % 16, 1 + (5 * i) % 16) for i in range(48)]
        path = tmp_path / "shapes.idx"
        write_index(path, records)
        loaded, reference = read_index(path), blob_by_blob(path.read_bytes())
        got, want = loaded._lattices["nmf"], reference._lattices["nmf"]
        assert got.vectors.dtype == np.uint16  # up to 16 bits
        assert loaded._lattices["pca"].vectors.dtype == np.int32
        for field in ("vectors", "norms", "bits"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        for image_id, rec in reference.images.items():
            assert np.array_equal(loaded.images[image_id].pca.columns, rec.pca.columns)
        blobs = [blobs_of_rank(T, k, seed) for seed, k in enumerate(ks)]
        for pca_blob, _ in blobs:  # lattice cosines against float64 dot products
            query = codec.decode(pca_blob)
            ours = rank_database(query, loaded, "correlation", eta=20)
            theirs = rank_database(codec.dequantize(query), reference, "correlation", eta=20)
            assert ([(e.object_id, e.image_id) for e in ours.entries]
                    == [(e.object_id, e.image_id) for e in theirs.entries])
            for a, b in zip(ours.entries, theirs.entries):
                assert abs(a.score - b.score) <= 1e-13
        payloads = [encode_query(5, 2, *pair) for pair in blobs]
        assert ([answer_query(loaded, p) for p in payloads]
                == [answer_query(reference, p) for p in payloads])
        for kind in ("pca", "nmf"):
            query = codec.dequantize(codec.decode(blobs_of_rank(T, 1)[kind == "nmf"]))
            assert (rank_database(query, loaded, "angle", eta=5)
                    == rank_database(query, reference, "angle", eta=5))

    @staticmethod
    def thousand_records(duplicate_at=None):
        rng = np.random.default_rng(70)
        return [random_record(rng, f"o{i}", f"o{3 if i == duplicate_at else i}_v1",
                              7, 3, 5, 5) for i in range(1000)]

    @staticmethod
    def file_of(records, bad_pca_blob=None):
        """The IDX1 bytes of ``records``, built field by field, with record
        700's PCA blob replaced by ``bad_pca_blob`` of its blob."""
        parts = [b"IDX1", struct.pack("<I", len(records))]
        for i, rec in enumerate(records):
            pca_blob = codec.encode(rec.pca)
            if i == 700 and bad_pca_blob:
                pca_blob = bad_pca_blob(pca_blob)
            parts += [text(rec.object_id), blob(pca_blob), blob(codec.encode(rec.nmf))]
        return b"".join(parts)

    # 7 x 3 levels of 5 bits: 105 bits, so the last body byte has 7 padding bits
    BAD_BLOBS = {
        "padding": (lambda b: b[:-1] + bytes([b[-1] | 0x80]),
                    "nonzero padding bits after the levels"),
        "kind": (lambda b: b[:4] + bytes([7]) + b[5:], "unknown kind code 7"),
        "range": (lambda b: b[:10] + struct.pack("<f", 0.5) + b[14:],
                  "pca quantizer range must be (-1.0, 1.0), got [0.5, 1.0]"),
        "short body": (lambda b: b[:-1], "blob truncated in levels at byte 27"),
        "trailing": (lambda b: b + b"\0", "1 trailing bytes after the levels"),
    }

    @pytest.mark.parametrize("case", [*BAD_BLOBS, "duplicate id"])
    def test_a_bad_record_700_fails_as_blob_by_blob(self, case, tmp_path):
        if case == "duplicate id":
            data = self.file_of(self.thousand_records(duplicate_at=700))
            message = "invalid index file: duplicate image id 'o3_v1'"
        else:
            bad_blob, message = self.BAD_BLOBS[case]
            data = self.file_of(self.thousand_records(), bad_blob)
        path = tmp_path / "bad.idx"
        # the same failure, also with a later fault: the last byte cut off,
        # which a record check reports before any check of the whole index
        for variant in (data, data[:-1]):
            with pytest.raises((ProtocolError, codec.CodecError)) as want:
                blob_by_blob(variant)
            path.write_bytes(variant)
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                read_index(path)
            if variant is data:
                assert str(want.value) == message

    def test_the_field_by_field_file_is_write_index_s(self, tmp_path):
        records = self.thousand_records()[:20]
        write_index(tmp_path / "twenty.idx", records)
        assert (tmp_path / "twenty.idx").read_bytes() == self.file_of(records)

    def test_bounded_temporaries(self, tmp_path):
        """At 1000 random 5-bit images at T=128, k=24, neither
        ``write_index`` nor ``read_index`` allocates at its peak more than
        the loaded index holds plus a fixed 8 MiB: both work in chunks."""
        rng = np.random.default_rng(71)
        records = [random_record(rng, f"o{i}", f"o{i}_v1", 128, 24, 5, 5) for i in range(1000)]
        path = tmp_path / "paper_scale.idx"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_index(path, records)
            write_peak = tracemalloc.get_traced_memory()[1] - before
            del records
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            index = read_index(path)
            size, read_peak = (memory - before for memory in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert index.num_images == 1000
        assert size > sum(lattice.vectors.nbytes + lattice.norms.nbytes
                          for lattice in index._lattices.values())
        assert write_peak < size + (8 << 20)
        assert read_peak < size + (8 << 20)


class TestIndexFileFuzz:
    """Any corruption of an index file loads or raises a typed error."""

    @pytest.fixture(scope="class")
    def index_bytes(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "two.idx"
        write_index(path, records_of(corpus[:2], k_max=K_MAX, bits=5))
        return path.read_bytes()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_file(self, index_bytes, tmp_path_factory, data):
        blob = bytearray(index_bytes)
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        path = tmp_path_factory.getbasetemp() / "mutated.idx"
        path.write_bytes(bytes(blob))
        try:
            read_index(path)
        except (ProtocolError, codec.CodecError):
            pass


class TestWireFormat:
    def test_query_round_trip(self):
        payload = encode_query(20, 2, b"PCA-BLOB", b"NMF-BLOB")
        assert decode_query(payload) == (1, 20, 2, b"PCA-BLOB", b"NMF-BLOB")

    def test_query_truncation_detected(self):
        payload = encode_query(20, 2, b"PCA-BLOB", b"NMF-BLOB")
        for cut in (3, 8, 12, len(payload) - 1):
            with pytest.raises(ProtocolError):
                decode_query(payload[:cut])

    def test_query_trailing_garbage_detected(self):
        payload = encode_query(20, 2, b"A", b"B") + b"!"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_query(payload)

    def test_response_round_trip(self):
        payload = encode_response(STATUS_OK, [("obj1", 0.25), ("obj2", 1.5)], "")
        status, entries, err = decode_response(payload)
        assert status == STATUS_OK
        assert err == ""
        assert [(o, r) for o, _, r in entries] == [("obj1", 1), ("obj2", 2)]
        assert entries[0][1] == pytest.approx(0.25)

    def test_response_error_text(self):
        status, entries, err = decode_response(
            encode_response(STATUS_MALFORMED, error_text="malformed frame")
        )
        assert status == STATUS_MALFORMED
        assert entries == []
        assert err == "malformed frame"

    def test_response_non_utf8_object_id_rejected(self):
        payload = (b"RSP1" + struct.pack("<BHH", STATUS_OK, 1, 1) + b"\xff"
                   + struct.pack("<fHH", 0.5, 1, 0))
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_response(payload)

    def test_response_error_text_overrun_rejected(self):
        payload = b"RSP1" + struct.pack("<BHH", STATUS_QUERY_FAILED, 0, 10) + b"abc"
        with pytest.raises(ProtocolError, match="error text"):
            decode_response(payload)

    def test_response_trailing_bytes_rejected(self):
        payload = encode_response(STATUS_OK, [("obj1", 0.25)]) + b"junk"
        with pytest.raises(ProtocolError, match="4 trailing bytes"):
            decode_response(payload)

    def test_error_text_too_long_to_send_rejected(self):
        with pytest.raises(ValueError, match="70000 bytes"):
            encode_response(STATUS_QUERY_FAILED, error_text="e" * 70_000)

    def test_frame_round_trip_and_resync(self):
        buf = io.BytesIO()
        write_frame(buf, b"first")
        write_frame(buf, b"second")
        buf.seek(0)
        assert read_frame(buf) == b"first"
        assert read_frame(buf) == b"second"
        assert read_frame(buf) is None

    def test_stream_ending_inside_a_payload(self):
        buf = io.BytesIO(struct.pack("<I", 10) + b"abc")
        with pytest.raises(ProtocolError, match="stream ended inside a frame payload"):
            read_frame(buf)

    def test_frame_size_limit(self):
        buf = io.BytesIO(struct.pack("<I", 1 << 30) + b"x")
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(buf)


FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)
VALID_QUERY = encode_query(20, 2, b"PCA-BLOB", b"NMF-BLOB")


def _decode_query_or_protocol_error(payload: bytes) -> None:
    try:
        version, eta, alpha, pca_blob, nmf_blob = decode_query(payload)
    except ProtocolError:
        return
    assert encode_query(eta, alpha, pca_blob, nmf_blob)[5:] == payload[5:]


class TestDecodeQueryFuzz:
    """Any payload splits into a query or raises ProtocolError, nothing else."""

    @FUZZ
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_after_the_magic(self, data):
        _decode_query_or_protocol_error(b"QRY1" + data)

    @FUZZ
    @given(st.lists(st.tuples(st.integers(0, len(VALID_QUERY) - 1), st.integers(0, 255)),
                    max_size=4),
           st.integers(0, len(VALID_QUERY)), st.binary(max_size=8))
    def test_mutated_valid_query(self, edits, cut, tail):
        data = bytearray(VALID_QUERY)
        for pos, value in edits:
            data[pos] = value
        _decode_query_or_protocol_error(bytes(data[:cut]) + tail)


VALID_RESPONSE = encode_response(STATUS_OK, [("obj1", 0.25), ("obj2", 1.5)], "note")


def _decode_response_or_protocol_error(payload: bytes) -> None:
    try:
        status, entries, error_text = decode_response(payload)
    except ProtocolError:
        return
    ranks = [rank for _, _, rank in entries]
    if ranks == list(range(1, len(entries) + 1)) and not any(
            math.isnan(score) for _, score, _ in entries):
        assert encode_response(status, [(o, s) for o, s, _ in entries], error_text) == payload


class TestDecodeResponseFuzz:
    """Any payload splits into a response or raises ProtocolError, nothing else."""

    @FUZZ
    @given(st.integers(0, 255), st.integers(0, 2), st.binary(max_size=64))
    def test_arbitrary_bytes_after_the_header(self, status, count, data):
        _decode_response_or_protocol_error(b"RSP1" + struct.pack("<BH", status, count) + data)

    @FUZZ
    @given(st.lists(st.tuples(st.integers(0, len(VALID_RESPONSE) - 1), st.integers(0, 255)),
                    max_size=4),
           st.integers(0, len(VALID_RESPONSE)), st.binary(max_size=8))
    def test_mutated_valid_response(self, edits, cut, tail):
        data = bytearray(VALID_RESPONSE)
        for pos, value in edits:
            data[pos] = value
        _decode_response_or_protocol_error(bytes(data[:cut]) + tail)


class TestAnswerQuery:
    def _blobs(self, corpus):
        q_pca, q_nmf = client_blobs(corpus[0], bits=5, k_max=K_MAX)
        return codec.encode(q_pca), codec.encode(q_nmf)

    def test_well_formed_query(self, corpus, index):
        pca_blob, nmf_blob = self._blobs(corpus)
        status, entries, err = decode_response(
            answer_query(index, encode_query(4, 1, pca_blob, nmf_blob))
        )
        assert status == STATUS_OK
        assert err == ""
        assert [r for _, _, r in entries] == list(range(1, len(entries) + 1))
        assert entries[0][0] == corpus[0].object_id  # held-out view still matches

    def test_truncated_blob_is_malformed(self, corpus, index):
        pca_blob, nmf_blob = self._blobs(corpus)
        status, _, err = decode_response(
            answer_query(index, encode_query(4, 1, pca_blob[:-3], nmf_blob))
        )
        assert status == STATUS_MALFORMED
        assert "malformed" in err

    def test_non_utf8_image_id_is_malformed(self, corpus, index):
        pca_blob, nmf_blob = self._blobs(corpus)
        image_id = corpus[0].image_id.encode()
        bad_pca = pca_blob.replace(image_id, b"\xff" + image_id[1:], 1)
        status, _, err = decode_response(
            answer_query(index, encode_query(4, 1, bad_pca, nmf_blob))
        )
        assert status == STATUS_MALFORMED
        assert "UTF-8" in err

    def test_eta_zero_invalid(self, corpus, index):
        pca_blob, nmf_blob = self._blobs(corpus)
        status, _, err = decode_response(
            answer_query(index, encode_query(0, 0, pca_blob, nmf_blob))
        )
        assert status == STATUS_INVALID_PARAMS
        assert "eta" in err

    @pytest.mark.parametrize("eta, status", [(MAX_ETA, STATUS_OK),
                                             (MAX_ETA + 1, STATUS_INVALID_PARAMS),
                                             (0xFFFF, STATUS_INVALID_PARAMS)])
    def test_eta_capped_at_max_eta(self, corpus, index, monkeypatch, eta, status):
        """A u16 eta above ``MAX_ETA`` is refused before any scoring, so no
        client can ask for up to eta^2 fusion passes."""
        scored = []

        def counted(*args, eta, alpha):
            scored.append(eta)
            return retrieve_combined(*args, eta=eta, alpha=alpha)

        monkeypatch.setattr(service, "retrieve_combined", counted)
        got, entries, err = decode_response(
            answer_query(index, encode_query(eta, 1, *self._blobs(corpus))))
        assert got == status
        if status == STATUS_OK:
            assert entries and scored == [MAX_ETA]
        else:
            assert (entries, scored) == ([], [])
            assert f"eta must lie in 1..{MAX_ETA}" in err

    def test_alpha_beyond_eta_invalid(self, corpus, index):
        pca_blob, nmf_blob = self._blobs(corpus)
        status, _, _ = decode_response(
            answer_query(index, encode_query(2, 3, pca_blob, nmf_blob))
        )
        assert status == STATUS_INVALID_PARAMS

    def test_mismatched_dims_invalid(self, corpus, index):
        pca_blob, _ = self._blobs(corpus)
        other = generate_corpus(SynthCorpusSpec(
            1, 1, T=8, descriptors_per_view=30, planted_rank=2,
            view_noise_sigma=0.01, seed=9))[0]
        _, q_nmf = client_blobs(other, bits=5, k_max=4)
        status, _, err = decode_response(
            answer_query(index, encode_query(4, 1, pca_blob, codec.encode(q_nmf)))
        )
        assert status == STATUS_INVALID_PARAMS
        assert "dims differ" in err

    def test_swapped_blobs_invalid(self, corpus, index):
        pca_blob, nmf_blob = self._blobs(corpus)
        status, entries, err = decode_response(
            answer_query(index, encode_query(4, 1, nmf_blob, pca_blob))
        )
        assert status == STATUS_INVALID_PARAMS
        assert entries == []
        assert "pca then nmf" in err

    def test_mismatched_ranks_invalid(self, corpus, index):
        pca_blob, _ = self._blobs(corpus)
        _, nmf, k = factorize_image(corpus[0], fixed_k=2)
        assert k == 2 != codec.decode(pca_blob).k
        status, _, err = decode_response(answer_query(
            index, encode_query(4, 1, pca_blob, codec.encode(codec.quantize(nmf, 5))))
        )
        assert status == STATUS_INVALID_PARAMS
        assert "one rank" in err

    def test_query_of_another_T_invalid(self, index):
        q_pca, q_nmf = client_blobs(other_T_corpus()[0], bits=5, k_max=4)
        status, entries, err = decode_response(answer_query(
            index, encode_query(4, 1, codec.encode(q_pca), codec.encode(q_nmf))))
        assert status == STATUS_INVALID_PARAMS
        assert entries == []
        assert "descriptor dim 8 differs from the index's 16" in err

    @pytest.mark.parametrize("extra, status", [(0, STATUS_OK), (1, STATUS_INVALID_PARAMS)])
    def test_query_rank_at_most_T(self, index, extra, status):
        k = index.T + extra
        got, entries, err = decode_response(
            answer_query(index, encode_query(4, 1, *blobs_of_rank(index.T, k))))
        assert got == status
        if status == STATUS_OK:
            assert entries
        else:
            assert entries == []
            assert f"query rank {k} exceeds the descriptor dim {index.T}" in err

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_mutated_query_gets_a_status(self, corpus, index, data):
        """A corrupted query is answered with a status, never an exception."""
        payload = bytearray(encode_query(4, 1, *self._blobs(corpus)))
        for _ in range(data.draw(st.integers(1, 4))):
            payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(st.integers(0, 255))
        status, _, _ = decode_response(answer_query(index, bytes(payload)))
        assert status in (STATUS_OK, STATUS_MALFORMED, STATUS_INVALID_PARAMS, STATUS_QUERY_FAILED)


def _payloads(corpus):
    """One query per corpus image; eta 6 reranks every view of the 6 objects."""
    return [encode_query(eta, 2, *(codec.encode(b) for b in client_blobs(m, bits=5, k_max=K_MAX)))
            for m, eta in zip(corpus, [3, 6] * len(corpus))]


def _run_threads(targets, timeout=60.0):
    """Start every target at once, with a short switch interval so that
    their queries interleave; join each with a timeout."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=t) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)


class TestConcurrentFills:
    """Threads share one index with no lock: it does not change once built,
    so threads that query it at once answer as one thread does."""

    def test_threads_on_one_cold_index_answer_as_one_thread(self, corpus):
        payloads = _payloads(corpus)
        serial_index = index_of(corpus, k_max=K_MAX, bits=5)
        serial = [answer_query(serial_index, p) for p in payloads]
        cold = index_of(corpus, k_max=K_MAX, bits=5)
        start = threading.Barrier(6)
        answers: dict[int, list[bytes]] = {}

        def client(t):
            order = payloads[t:] + payloads[:t]
            start.wait(timeout=30)
            answers[t] = [answer_query(cold, p) for p in order]

        _run_threads([lambda t=t: client(t) for t in range(6)])
        for t in range(6):
            assert answers[t] == serial[t:] + serial[:t]

    def test_threads_building_the_nmf_stack_agree(self, corpus):
        """Threads that rank by NMF correlation at once, on an index no query
        has touched, rank as one thread does."""
        queries = [factorize_image(m, K_MAX)[1] for m in corpus]
        serial_index = index_of(corpus, k_max=K_MAX, bits=5)
        serial = [rank_database(q, serial_index, "correlation", eta=6) for q in queries]
        cold = index_of(corpus, k_max=K_MAX, bits=5)
        start = threading.Barrier(6)
        answers: dict[int, list] = {}

        def client(t):
            start.wait(timeout=30)
            answers[t] = [rank_database(q, cold, "correlation", eta=6) for q in queries]

        _run_threads([lambda t=t: client(t) for t in range(6)])
        assert [answers[t] for t in range(6)] == [serial] * 6


class TestLiveServer:
    def test_a_stalled_client_is_dropped_quietly(self, corpus, server, monkeypatch, capfd):
        """A client that sends three header bytes and stalls is disconnected
        once the handler's socket timeout passes, and another client is
        answered meanwhile; nothing reaches stderr."""
        assert service._Handler.timeout == service.DEFAULT_TIMEOUT
        monkeypatch.setattr(service._Handler, "timeout", 0.2)
        blobs = [codec.encode(b) for b in client_blobs(corpus[0], bits=5, k_max=K_MAX)]
        with socket.create_connection(server.address, timeout=10) as stalled:
            stalled.sendall(b"\x10\x00\x00")
            sent = time.monotonic()
            status, entries, _ = send_query(server.address, *blobs, eta=3, alpha=1)
            assert status == STATUS_OK
            assert entries[0][0] == corpus[0].object_id
            assert stalled.recv(1) == b""  # closed by the server
            assert time.monotonic() - sent < 2.0
        assert capfd.readouterr().err == ""

    def test_self_match_round_trip(self, corpus, server):
        ranked = query_remote(server.address, corpus[0], eta=4, alpha=1,
                              bits=5, k_max=K_MAX)
        assert ranked.entries[0].object_id == corpus[0].object_id

    def test_loopback_equals_local_pipeline(self, corpus, index, server):
        for m in corpus[:4]:
            q_pca, q_nmf = client_blobs(m, bits=5, k_max=K_MAX)
            local = retrieve_combined(
                codec.dequantize(q_pca), codec.dequantize(q_nmf),
                index, eta=5, alpha=2,
            )
            remote = query_remote(server.address, m, eta=5, alpha=2,
                                  bits=5, k_max=K_MAX)
            assert remote.object_ids() == local.object_ids()
            for ours, theirs in zip(local.entries, remote.entries):
                # wire scores are float32
                assert theirs.score == pytest.approx(ours.score, abs=1e-6)

    def test_connection_survives_bad_query(self, corpus, server):
        pca_blob, nmf_blob = (codec.encode(b) for b in
                              client_blobs(corpus[0], bits=5, k_max=K_MAX))
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            # bad magic payload first
            write_frame(stream, b"JUNKJUNKJUNK")
            status, _, err = decode_response(read_frame(stream))
            assert status == STATUS_MALFORMED
            # same connection then serves a real query
            write_frame(stream, encode_query(3, 1, pca_blob, nmf_blob))
            status, entries, _ = decode_response(read_frame(stream))
            assert status == STATUS_OK
            assert entries
            stream.close()

    def test_connection_survives_swapped_blobs(self, corpus, server):
        pca_blob, nmf_blob = (codec.encode(b) for b in
                              client_blobs(corpus[0], bits=5, k_max=K_MAX))
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            write_frame(stream, encode_query(3, 1, nmf_blob, pca_blob))
            status, entries, _ = decode_response(read_frame(stream))
            assert status == STATUS_INVALID_PARAMS
            assert entries == []
            write_frame(stream, encode_query(3, 1, pca_blob, nmf_blob))
            status, entries, _ = decode_response(read_frame(stream))
            assert status == STATUS_OK
            assert entries[0][0] == corpus[0].object_id
            stream.close()

    def test_connection_survives_query_of_another_T(self, corpus, server):
        blobs = [(codec.encode(p), codec.encode(n)) for p, n in (
            client_blobs(other_T_corpus()[0], bits=5, k_max=4),
            client_blobs(corpus[0], bits=5, k_max=K_MAX))]
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            write_frame(stream, encode_query(3, 1, *blobs[0]))
            status, entries, err = decode_response(read_frame(stream))
            assert (status, entries) == (STATUS_INVALID_PARAMS, [])
            assert "differs from the index's" in err
            write_frame(stream, encode_query(3, 1, *blobs[1]))
            status, entries, _ = decode_response(read_frame(stream))
            assert status == STATUS_OK
            assert entries[0][0] == corpus[0].object_id
            stream.close()

    def test_connection_survives_query_rank_above_T(self, corpus, index, server):
        pca_blob, nmf_blob = (codec.encode(b) for b in
                              client_blobs(corpus[0], bits=5, k_max=K_MAX))
        with (socket.create_connection(server.address, timeout=10) as sock,
              sock.makefile("rwb") as stream):
            write_frame(stream, encode_query(3, 1, *blobs_of_rank(index.T, index.T + 1)))
            status, entries, err = decode_response(read_frame(stream))
            assert (status, entries) == (STATUS_INVALID_PARAMS, [])
            assert "exceeds the descriptor dim" in err
            write_frame(stream, encode_query(3, 1, pca_blob, nmf_blob))
            status, entries, _ = decode_response(read_frame(stream))
            assert status == STATUS_OK
            assert entries[0][0] == corpus[0].object_id

    def test_connection_survives_eta_above_max_eta(self, corpus, server):
        pca_blob, nmf_blob = (codec.encode(b) for b in
                              client_blobs(corpus[0], bits=5, k_max=K_MAX))
        with (socket.create_connection(server.address, timeout=10) as sock,
              sock.makefile("rwb") as stream):
            write_frame(stream, encode_query(MAX_ETA + 1, 1, pca_blob, nmf_blob))
            status, entries, err = decode_response(read_frame(stream))
            assert (status, entries) == (STATUS_INVALID_PARAMS, [])
            assert f"eta must lie in 1..{MAX_ETA}" in err
            write_frame(stream, encode_query(MAX_ETA, 1, pca_blob, nmf_blob))
            status, entries, _ = decode_response(read_frame(stream))
            assert status == STATUS_OK
            assert entries[0][0] == corpus[0].object_id

    def test_two_connections_on_a_fresh_server(self, corpus):
        payloads = _payloads(corpus)
        serial = [answer_query(index_of(corpus, k_max=K_MAX, bits=5), p) for p in payloads]
        answers: dict[int, list[bytes]] = {}

        def client(address, t):
            order = payloads[t::2] + payloads[1 - t::2]
            with (socket.create_connection(address, timeout=30) as sock,
                  sock.makefile("rwb") as stream):
                got = []
                for p in order:
                    write_frame(stream, p)
                    got.append(read_frame(stream))
            answers[t] = got

        with serve(index_of(corpus, k_max=K_MAX, bits=5)) as fresh:
            _run_threads([lambda t=t: client(fresh.address, t) for t in range(2)])
        for t in range(2):
            assert answers[t] == serial[t::2] + serial[1 - t::2]

    def test_server_status_raises_client_side(self, corpus, server):
        with pytest.raises(ServerReportedError, match="status 2"):
            query_remote(server.address, corpus[0], eta=0, alpha=0, bits=5, k_max=K_MAX)

    def test_oversized_frame_closes_the_connection(self, corpus, server):
        """A declared frame over the limit is answered with status 1 naming
        the limit, then the connection ends; the server keeps serving."""
        with (socket.create_connection(server.address, timeout=10) as sock,
              sock.makefile("rwb") as stream):
            stream.write(struct.pack("<I", MAX_FRAME + 1))
            stream.flush()
            status, entries, err = decode_response(read_frame(stream))
            assert (status, entries) == (STATUS_MALFORMED, [])
            assert f"exceeds limit {MAX_FRAME}" in err
            assert read_frame(stream) is None
        ranked = query_remote(server.address, corpus[0], eta=4, alpha=1, bits=5, k_max=K_MAX)
        assert ranked.entries[0].object_id == corpus[0].object_id

    def test_stream_ending_inside_a_frame_header(self, server):
        with (socket.create_connection(server.address, timeout=10) as sock,
              sock.makefile("rb") as stream):
            sock.sendall(b"\x05\x00")
            sock.shutdown(socket.SHUT_WR)
            status, _, err = decode_response(read_frame(stream))
            assert status == STATUS_MALFORMED
            assert "stream ended inside a frame header" in err
            assert read_frame(stream) is None

    def test_server_closing_without_a_response(self, corpus):
        """A listener that reads the query and closes: the client raises
        ProtocolError, not a bare socket error."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def accept_and_close():
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as stream:
                    read_frame(stream)

            thread = threading.Thread(target=accept_and_close, daemon=True)
            thread.start()
            blobs = (codec.encode(b) for b in client_blobs(corpus[0], bits=5, k_max=K_MAX))
            with pytest.raises(ProtocolError, match="closed the connection without responding"):
                send_query(listener.getsockname()[:2], *blobs, eta=4, alpha=1, timeout=10)
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_uploaded_bytes_at_paper_scale(self):
        # frame = 4-byte length + query header + two blobs; the blob bodies
        # dominate at 1920 bytes each for 128x24 at 5 bits
        spec = SynthCorpusSpec(1, 1, T=128, descriptors_per_view=800,
                               planted_rank=24, view_noise_sigma=0.005, seed=6)
        m = generate_corpus(spec)[0]
        q_pca, q_nmf = client_blobs(m, bits=5, k_max=64)
        payload = encode_query(20, 2, codec.encode(q_pca), codec.encode(q_nmf))
        overhead = len(payload) + 4 - 2 * 1920
        assert payload_bytes(q_pca) == payload_bytes(q_nmf) == 1920
        assert 0 < overhead < 120

