import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch.descriptors import (
    DescriptorFormatError,
    DescriptorMatrix,
    SynthCorpusSpec,
    generate_corpus,
    load_corpus,
    load_descriptor_file,
    load_descriptors,
    save_corpus,
    save_descriptors,
    view_index,
)

from conftest import spec_label


def make_matrix(values, image_id="img", object_id="obj"):
    return DescriptorMatrix(image_id=image_id, object_id=object_id, values=np.array(values))


def csv_bytes(m: DescriptorMatrix) -> bytes:
    """The csv form of a matrix, one row per descriptor dimension."""
    lines = [",".join(repr(float(x)) if x != int(x) else str(int(x)) for x in row)
             for row in m.values]
    return ("\n".join(lines) + "\n").encode("utf-8")


def saved(m: DescriptorMatrix, fmt: str) -> bytes:
    return save_descriptors(m) if fmt == "binary" else csv_bytes(m)


class TestValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_matrix([[1.0, -0.5], [0.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_all_zero_column_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            make_matrix([[1.0, 0.0], [1.0, 0.0]])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="T must be"):
            make_matrix([[1.0, 2.0]])


class TestBinaryFormat:
    def test_identity_payload_round_trip(self):
        m = make_matrix([[1.0, 0.0], [0.0, 1.0]], image_id="", object_id="")
        data = save_descriptors(m)
        # magic + (u32 T, u32 N) header + 4 float32 values, no trailer
        assert len(data) == 4 + 8 + 16
        assert data[:4] == b"DMT1"
        loaded = load_descriptors(data, "binary")
        assert np.array_equal(loaded.values, np.eye(2, dtype=np.float32))

    def test_trailer_carries_ids(self):
        m = make_matrix([[1.0, 0.0], [0.0, 1.0]], image_id="zurich_v1", object_id="zurich")
        loaded = load_descriptors(save_descriptors(m), "binary")
        assert loaded.image_id == "zurich_v1"
        assert loaded.object_id == "zurich"

    def test_dimension_mismatch_detected(self):
        # header claims 128 rows but the payload is one row short
        values = np.random.default_rng(0).random((128, 5)).astype(np.float32)
        data = save_descriptors(make_matrix(values))
        truncated = data[: 12 + 4 * 127 * 5]
        with pytest.raises(DescriptorFormatError, match="truncated in values"):
            load_descriptors(truncated, "binary")

    def test_largest_declared_shape_rejected_without_allocating(self):
        # 2^32-1 x 2^32-1 float32 values would be 2^66 bytes
        data = b"DMT1" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + b"\0" * 16
        tracemalloc.start()
        try:
            with pytest.raises(DescriptorFormatError, match="truncated in values at byte 12"):
                load_descriptors(data, "binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_magic(self):
        with pytest.raises(DescriptorFormatError, match="magic"):
            load_descriptors(b"XXXX" + b"\0" * 24, "binary")

    def test_round_trip_random_128x500(self):
        rng = np.random.default_rng(7)
        values = rng.random((128, 500)).astype(np.float32) + 1e-3
        m = make_matrix(values, image_id="big_v1", object_id="big")
        loaded = load_descriptors(save_descriptors(m), "binary")
        assert loaded == m

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_round_trip_property(self, seed, fmt):
        rng = np.random.default_rng(seed)
        T, N = int(rng.integers(2, 40)), int(rng.integers(1, 60))
        values = rng.random((T, N)).astype(np.float32) + 1e-4
        m = make_matrix(values, image_id=f"s{seed}_v1", object_id=f"s{seed}")
        loaded = load_descriptors(saved(m, fmt), fmt,
                                  image_id=m.image_id, object_id=m.object_id)
        assert loaded == m

    @pytest.mark.parametrize("image_id, object_id, message", [
        ("a;b", "o", "image id 'a;b' contains ';'"),
        ("i", "a;b", "object id 'a;b' contains ';' or a newline"),
        ("i", "a\nb", "object id 'a\\nb' contains ';' or a newline"),
    ])
    def test_ids_the_trailer_cannot_carry_rejected(self, image_id, object_id, message):
        m = make_matrix([[1.0], [1.0]], image_id=image_id, object_id=object_id)
        with pytest.raises(ValueError, match=re.escape(message)):
            save_descriptors(m)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(image_id=st.text(max_size=12), object_id=st.text(max_size=12))
    def test_any_text_ids_round_trip_or_are_rejected(self, image_id, object_id):
        m = make_matrix([[1.0, 0.5], [0.25, 1.0]], image_id=image_id, object_id=object_id)
        try:
            data = save_descriptors(m)
        except ValueError:
            return
        assert load_descriptors(data, "binary") == m


class TestCsvFormat:
    def test_identity_lines(self):
        m = make_matrix([[1.0, 0.0], [0.0, 1.0]])
        assert load_descriptors(b"1,0\n0,1\n", "csv", m.image_id, m.object_id) == m

    def test_ragged_rows_rejected(self):
        with pytest.raises(DescriptorFormatError, match="expected 2 values"):
            load_descriptors(b"1,0\n0,1,1\n", "csv")

    def test_non_numeric_rejected(self):
        with pytest.raises(DescriptorFormatError):
            load_descriptors(b"1,spam\n0,1\n", "csv")


FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)
VALID_DMT = save_descriptors(make_matrix([[1.0, 0.0, 2.5], [0.5, 1.0, 0.0]]))
VALID_CSV = csv_bytes(make_matrix([[1.0, 0.0, 2.5], [0.5, 1.0, 0.0]]))


def _load_or_format_error(data: bytes, fmt: str) -> None:
    """A payload loads into a matrix that round-trips, or raises
    DescriptorFormatError; any other exception fails the test."""
    try:
        m = load_descriptors(data, fmt, image_id="fallback", object_id="fallback")
    except DescriptorFormatError:
        return
    assert isinstance(m, DescriptorMatrix)
    assert load_descriptors(saved(m, fmt), fmt, m.image_id, m.object_id) == m


def _mutated(valid: bytes, edits, cut, tail) -> bytes:
    data = bytearray(valid)
    for pos, value in edits:
        data[pos % len(data)] = value
    return bytes(data[:cut]) + tail


EDITS = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=4)


class TestLoadDescriptorsFuzz:
    """Any bytes load into a valid matrix or raise DescriptorFormatError."""

    @FUZZ
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_after_the_magic(self, data):
        _load_or_format_error(b"DMT1" + data, "binary")

    @FUZZ
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_declared_shape_with_arbitrary_values_and_trailer(self, T, N, data):
        body = data.draw(st.binary(min_size=4 * T * N, max_size=4 * T * N))
        trailer = data.draw(st.one_of(
            st.binary(max_size=24),
            st.builds(lambda img, obj: b"\nID:" + img + b";OBJ:" + obj + b"\n",
                      st.binary(max_size=8), st.binary(max_size=8))))
        _load_or_format_error(b"DMT1" + struct.pack("<II", T, N) + body + trailer, "binary")

    @FUZZ
    @given(EDITS, st.integers(0, len(VALID_DMT)), st.binary(max_size=8))
    def test_mutated_valid_binary(self, edits, cut, tail):
        _load_or_format_error(_mutated(VALID_DMT, edits, cut, tail), "binary")

    @FUZZ
    @given(st.text(alphabet="0123456789.,-+e_naif \n\r", max_size=48))
    def test_csv_of_number_like_text(self, text):
        _load_or_format_error(text.encode("utf-8"), "csv")

    @FUZZ
    @given(st.binary(max_size=48))
    def test_csv_of_arbitrary_bytes(self, data):
        _load_or_format_error(data, "csv")

    @FUZZ
    @given(EDITS, st.integers(0, len(VALID_CSV)), st.binary(max_size=8))
    def test_mutated_valid_csv(self, edits, cut, tail):
        _load_or_format_error(_mutated(VALID_CSV, edits, cut, tail), "csv")


class TestSynthCorpus:
    def test_noiseless_views_have_planted_rank(self):
        spec = SynthCorpusSpec(1, 2, T=8, descriptors_per_view=20,
                               planted_rank=2, view_noise_sigma=0.0, seed=7)
        for m in generate_corpus(spec):
            s = np.linalg.svd(m.values.astype(np.float64), compute_uv=False)
            # numerical-rank cutoff sized for float32 storage
            tol = s[0] * max(m.T, m.N) * np.finfo(np.float32).eps
            rank = int(np.sum(s > tol))
            assert rank == 2

    def test_counts_and_non_negativity(self, eval_corpus):
        assert len(eval_corpus) == 250
        assert len({m.object_id for m in eval_corpus}) == 50
        for m in eval_corpus[:25]:
            assert (m.values >= 0).all()

    def test_deterministic(self):
        spec = SynthCorpusSpec(3, 2, T=12, descriptors_per_view=30,
                               planted_rank=2, view_noise_sigma=0.05, seed=99)
        first = generate_corpus(spec)
        second = generate_corpus(spec)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a == b
            assert save_descriptors(a) == save_descriptors(b)

    def test_views_share_object_subspace(self):
        spec = SynthCorpusSpec(2, 2, T=10, descriptors_per_view=40,
                               planted_rank=3, view_noise_sigma=0.0, seed=5)
        corpus = generate_corpus(spec)
        v1, v2 = corpus[0].values, corpus[1].values
        # noiseless views of one object span the same column space
        u1 = np.linalg.svd(v1, full_matrices=False)[0][:, :3]
        u2 = np.linalg.svd(v2, full_matrices=False)[0][:, :3]
        overlap = np.linalg.svd(u1.T @ u2, compute_uv=False)
        assert np.allclose(overlap, 1.0, atol=1e-8)

    def test_rank_must_fit(self):
        with pytest.raises(ValueError, match="planted_rank"):
            SynthCorpusSpec(1, 1, T=4, descriptors_per_view=10,
                            planted_rank=4, view_noise_sigma=0.0, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="view_noise_sigma must be finite and non-negative"):
            SynthCorpusSpec(1, 1, T=4, descriptors_per_view=10,
                            planted_rank=2, view_noise_sigma=sigma, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SynthCorpusSpec.from_string("objects=1,views=1,T=4,N=10,r=2,sigma=0,seed=-1")

    def test_repeated_spec_key_rejected(self):
        with pytest.raises(ValueError, match="corpus spec key 'sigma' given twice"):
            SynthCorpusSpec.from_string(
                "objects=1,views=1,T=4,N=10,r=2,sigma=0.5,seed=0,sigma=0")

    def test_spec_string_round_trip(self):
        text = "objects=50,views=5,T=32,N=400,r=4,sigma=0.05,seed=1"
        spec = SynthCorpusSpec.from_string(text)
        assert spec.num_objects == 50
        assert spec.descriptors_per_view == 400
        assert spec.view_noise_sigma == 0.05
        assert spec_label(spec) == f"synthetic:{text}"


def test_corpus_directory_round_trip(tmp_path):
    spec = SynthCorpusSpec(2, 2, T=8, descriptors_per_view=15,
                           planted_rank=2, view_noise_sigma=0.01, seed=3)
    corpus = generate_corpus(spec)
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert sorted(m.image_id for m in loaded) == sorted(m.image_id for m in corpus)
    by_id = {m.image_id: m for m in corpus}
    for m in loaded:
        assert m == by_id[m.image_id]
    assert view_index("obj0001_v2") == 2


@pytest.mark.parametrize("stem, object_id", [
    ("obj0003_v2", "obj0003"), ("a_v1_v7", "a_v1"), ("plain", "plain")])
def test_a_file_without_a_trailer_takes_its_ids_from_its_stem(stem, object_id, tmp_path):
    m = make_matrix([[1.0, 0.5], [0.25, 1.0]], image_id="", object_id="")
    # csv by the .csv suffix, binary by any other
    for suffix, data in ((".csv", csv_bytes(m)), (".dmt", save_descriptors(m)),
                         (".bin", save_descriptors(m))):
        path = tmp_path / f"{stem}{suffix}"
        path.write_bytes(data)
        assert load_descriptor_file(path) == make_matrix(m.values, stem, object_id)


def test_a_trailer_wins_over_the_file_name(tmp_path):
    m = make_matrix([[1.0, 0.5], [0.25, 1.0]], image_id="zurich_v1", object_id="zurich")
    path = tmp_path / "other_v3.dmt"
    path.write_bytes(save_descriptors(m))
    assert load_descriptor_file(path) == m


def test_corpus_reads_dmt_and_csv_files_only(tmp_path):
    m = make_matrix([[1.0, 0.5], [0.25, 1.0]], image_id="", object_id="")
    (tmp_path / "b_v1.csv").write_bytes(csv_bytes(m))
    (tmp_path / "a_v2.dmt").write_bytes(save_descriptors(m))
    (tmp_path / "c_v1.bin").write_bytes(save_descriptors(m))
    assert load_corpus(tmp_path) == [make_matrix(m.values, "a_v2", "a"),
                                     make_matrix(m.values, "b_v1", "b")]


def test_corpus_with_an_id_the_trailer_cannot_carry_writes_no_file(tmp_path):
    spec = SynthCorpusSpec(2, 2, T=8, descriptors_per_view=15,
                           planted_rank=2, view_noise_sigma=0.01, seed=3)
    corpus = generate_corpus(spec)
    last = corpus[-1]
    corpus[-1] = DescriptorMatrix(last.image_id, "obj;1", last.values)
    with pytest.raises(ValueError, match="contains ';'"):
        save_corpus(corpus, tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("image_id", ["", ".", "..", "a/b", "/abs", "nul\0id"])
def test_corpus_with_an_id_that_is_no_file_name_writes_no_file(image_id, tmp_path):
    spec = SynthCorpusSpec(2, 2, T=8, descriptors_per_view=15,
                           planted_rank=2, view_noise_sigma=0.01, seed=3)
    corpus = generate_corpus(spec)
    last = corpus[-1]
    corpus[-1] = DescriptorMatrix(image_id, last.object_id, last.values)
    with pytest.raises(ValueError, match="is not a file name"):
        save_corpus(corpus, tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()
