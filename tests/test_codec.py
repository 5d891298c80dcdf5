import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch.codec import (
    CodecError,
    QuantizedLoadings,
    blob_size,
    decode,
    dequantize,
    dequantize_levels,
    encode,
    kind_range,
    quantize,
)
from factormatch.factorization import FactorLoadings
from factormatch.service import IndexRecord, write_index

from conftest import (
    blob_header_bytes,
    lattice_values,
    payload_bytes,
    random_unit_columns,
    reference_index_blobs,
    reference_levels,
)


def pca_loadings_of(columns, image_id="img"):
    return FactorLoadings(image_id=image_id, kind="pca", columns=columns)


def nmf_loadings_of(columns, image_id="img"):
    return FactorLoadings(image_id=image_id, kind="nmf", columns=columns)


def random_pca(rng, T=16, k=4, image_id="img"):
    return pca_loadings_of(random_unit_columns(rng, T, k), image_id)


class TestQuantize:
    def test_endpoints_map_to_extreme_levels(self):
        cols = np.array([[-1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        cols /= np.linalg.norm(cols, axis=0)
        q = quantize(pca_loadings_of(cols), 5)
        assert q.levels[0, 0] == 0        # x = lo
        assert q.levels[0, 1] == 31       # x = hi

    def test_zero_entry_at_five_bits(self):
        # x = 0 sits exactly between levels 15 and 16; half-away-from-zero
        # picks 16, which dequantizes to -1 + 16 * (2/31) = 1/31
        cols = np.array([[0.0], [1.0], [0.0]])
        q = quantize(pca_loadings_of(cols), 5)
        assert q.levels[0, 0] == 16
        assert lattice_values(q)[0, 0] == pytest.approx(1 / 31, abs=1e-15)

    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(12)
        for kind, lo in (("pca", -1.0), ("nmf", 0.0)):
            for bits in (1, 3, 5, 8, 12):
                cols = rng.uniform(lo, 1.0, size=(32, 6))
                cols /= np.maximum(np.linalg.norm(cols, axis=0, ord=np.inf), 1.0)
                cols = np.clip(cols, lo, 1.0)
                f = FactorLoadings(image_id="r", kind=kind, columns=cols)
                q = quantize(f, bits)
                err = np.abs(lattice_values(q) - f.columns)
                assert err.max() <= q.step / 2 + 1e-15

    def test_out_of_range_entry_rejected(self):
        cols = np.array([[1.5], [0.0]])
        with pytest.raises(ValueError, match="outside"):
            quantize(pca_loadings_of(cols), 5)

    def test_nmf_negative_entry_rejected(self):
        cols = np.array([[-0.1], [1.0]])
        with pytest.raises(ValueError, match="outside"):
            quantize(nmf_loadings_of(cols), 5)

    def test_bits_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="bits"):
            quantize(random_pca(rng), 0)
        with pytest.raises(ValueError, match="bits"):
            quantize(random_pca(rng), 17)


class TestDequantize:
    def test_quantize_is_exact_inverse_on_lattice(self):
        rng = np.random.default_rng(13)
        for bits in (1, 2, 5, 8):
            q = quantize(random_pca(rng, 24, 5), bits)
            lattice = FactorLoadings(image_id=q.image_id, kind=q.kind,
                                     columns=lattice_values(q))
            again = quantize(lattice, bits)
            assert again == q

    def test_renormalized_columns_are_unit(self):
        rng = np.random.default_rng(14)
        f = dequantize(quantize(random_pca(rng, 32, 6), 5))
        assert np.allclose(np.linalg.norm(f.columns, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["pca", "nmf"])
    @pytest.mark.parametrize("bits", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("k", [1, 2, 4, 24])
    @pytest.mark.parametrize("T", [7, 32, 128])
    def test_a_stack_dequantizes_bit_for_bit_like_each_matrix(self, T, k, bits, kind):
        """One ``(n, T, k)`` stack gives each matrix the float64 bits that
        dequantizing it alone gives; the reference is the one-matrix
        formula, written out. ``k = 1`` is the case where a reduction over
        the whole stack would sum each column's norm in another order."""
        rng = np.random.default_rng(T * 1000 + k * 20 + bits)
        stack = rng.integers(0, 1 << bits, size=(9, T, k)).astype(np.uint32)
        stack[3] = 0  # all-zero columns stay zero
        stack[5, :, 0] = 0
        lo, hi = kind_range(kind)
        got = dequantize_levels(stack, kind, bits)
        for levels, matrix in zip(stack, got):
            x = lo + levels.astype(np.float64) * ((hi - lo) / ((1 << bits) - 1))
            norms = np.linalg.norm(x, axis=0)
            want = x / np.where(norms > 0, norms, 1.0)
            assert np.array_equal(matrix, want)
            q = QuantizedLoadings("s", kind, T, k, bits, lo, hi, levels)
            assert np.array_equal(matrix, dequantize(q).columns)

    def test_all_zero_nmf_block_stays_zero(self):
        q = QuantizedLoadings(image_id="z", kind="nmf", T=4, k=2, bits=3,
                              lo=0.0, hi=1.0, levels=np.zeros((4, 2), dtype=np.uint32))
        f = dequantize(q)
        assert np.array_equal(f.columns, np.zeros((4, 2)))

    def test_quantization_preserves_subspace_at_8_bits(self):
        from factormatch.matcher import subspace_angle

        rng = np.random.default_rng(15)
        for _ in range(20):
            f = random_pca(rng, 32, 5)
            assert subspace_angle(f, dequantize(quantize(f, 8))) < 0.02


class TestBlobFormat:
    def test_paper_payload_size(self):
        # 128 x 24 at 5 bits: ceil(128*24*5/8) = 1920 bytes per matrix,
        # 3840 for the H/L pair
        rng = np.random.default_rng(16)
        q_pca = quantize(random_pca(rng, 128, 24, image_id="img"), 5)
        cols = np.abs(random_unit_columns(rng, 128, 24))
        cols /= np.linalg.norm(cols, axis=0)
        q_nmf = quantize(nmf_loadings_of(cols, image_id="img"), 5)
        assert payload_bytes(q_pca) == 1920
        body_pair = payload_bytes(q_pca) + payload_bytes(q_nmf)
        assert body_pair == 3840
        blob_pair = len(encode(q_pca)) + len(encode(q_nmf))
        assert blob_pair == 3840 + 2 * blob_header_bytes("img")

    def test_payload_size_formula_and_monotonicity(self):
        rng = np.random.default_rng(17)
        sizes = {}
        for T, k, b in [(8, 2, 3), (16, 2, 3), (8, 4, 3), (8, 2, 7)]:
            q = quantize(random_pca(rng, T, k), b)
            assert payload_bytes(q) == (T * k * b + 7) // 8
            assert len(encode(q)) == blob_header_bytes("img") + payload_bytes(q) == blob_size(q)
            sizes[(T, k, b)] = payload_bytes(q)
        assert sizes[(16, 2, 3)] > sizes[(8, 2, 3)]
        assert sizes[(8, 4, 3)] > sizes[(8, 2, 3)]
        assert sizes[(8, 2, 7)] > sizes[(8, 2, 3)]

    def test_decode_encode_round_trip(self):
        rng = np.random.default_rng(18)
        for bits in (1, 5, 11, 16):
            q = quantize(random_pca(rng, 20, 3, image_id=f"id-{bits}"), bits)
            assert decode(encode(q)) == q

    def test_encode_decode_bytes_round_trip(self):
        rng = np.random.default_rng(19)
        blob = encode(quantize(random_pca(rng, 9, 2), 5))
        assert encode(decode(blob)) == blob

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            decode(b"NOPE" + bytes(20))

    def test_truncation(self):
        rng = np.random.default_rng(20)
        blob = encode(quantize(random_pca(rng, 12, 3), 5))
        with pytest.raises(CodecError, match="truncated"):
            decode(blob[:-1])

    def test_trailing_bytes(self):
        rng = np.random.default_rng(20)
        blob = encode(quantize(random_pca(rng, 8, 2), 5))
        with pytest.raises(CodecError, match="8 trailing bytes"):
            decode(blob + b"junkjunk")

    def test_range_other_than_kind_is_codec_error(self):
        rng = np.random.default_rng(20)
        blob = bytearray(encode(quantize(random_pca(rng, 8, 2), 5)))
        blob[10:14] = np.float32(0.5).tobytes()  # lo
        with pytest.raises(CodecError, match="range"):
            decode(bytes(blob))

    def test_non_utf8_image_id(self):
        rng = np.random.default_rng(20)
        blob = bytearray(encode(quantize(random_pca(rng, 12, 3, image_id="img"), 5)))
        blob[blob.index(b"img")] = 0xFF
        with pytest.raises(CodecError, match="UTF-8"):
            decode(bytes(blob))

    @pytest.mark.parametrize("T, k", [(0, 3), (12, 0)])
    def test_empty_shape_is_codec_error(self, T, k):
        blob = b"QFL1" + struct.pack("<BBHHffH", 0, 5, T, k, -1.0, 1.0, 0)
        with pytest.raises(CodecError, match=f"invalid shape {T}x{k}"):
            decode(blob)

    def test_largest_declared_shape_rejected_without_allocating(self):
        # T = k = 65535 at 16 bits declares about 8.6 GB of levels
        blob = b"QFL1" + struct.pack("<BBHHffH", 0, 16, 0xFFFF, 0xFFFF, -1.0, 1.0, 0) + bytes(64)
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="truncated in levels"):
                decode(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_image_id_too_long_to_encode(self):
        q = quantize(random_pca(np.random.default_rng(21), 4, 1, image_id="x" * 70_000), 5)
        with pytest.raises(ValueError, match="70000 bytes"):
            encode(q)

    def test_empty_k_rejected_at_construction(self):
        with pytest.raises(ValueError, match="k >= 1"):
            FactorLoadings(image_id="x", kind="pca", columns=np.zeros((4, 0)))
        with pytest.raises(ValueError, match="empty"):
            QuantizedLoadings(image_id="x", kind="pca", T=4, k=0, bits=5,
                              lo=-1.0, hi=1.0, levels=np.zeros((4, 0), dtype=np.uint32))

    def test_level_overflow_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            QuantizedLoadings(image_id="x", kind="nmf", T=2, k=1, bits=2,
                              lo=0.0, hi=1.0, levels=np.array([[4], [0]], dtype=np.uint32))

    def test_range_must_match_kind(self):
        with pytest.raises(ValueError, match="range"):
            QuantizedLoadings(image_id="x", kind="nmf", T=2, k=1, bits=2,
                              lo=-1.0, hi=1.0, levels=np.zeros((2, 1), dtype=np.uint32))


def random_levels(rng, T, k, bits, kind, image_id="img"):
    return QuantizedLoadings(image_id, kind, T, k, bits, *kind_range(kind),
                             rng.integers(0, 1 << bits, size=(T, k)))


def assert_matches_the_oracle(blob: bytes, q: QuantizedLoadings) -> None:
    header, levels = reference_levels(blob)
    assert header == ({"pca": 0, "nmf": 1}[q.kind], q.bits, q.T, q.k, q.lo, q.hi, q.image_id)
    assert np.array_equal(levels, q.levels)


class TestBitLayout:
    """``encode``, ``decode`` and the blobs of a ``write_index`` file put
    every level where the bit-by-bit oracle in conftest reads it."""

    # T*k and T*k*bits not multiples of 8, k = 1, and the paper's shape
    SHAPES = [(1, 1), (7, 1), (3, 5), (13, 3), (128, 24)]

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_every_width(self, bits, tmp_path):
        rng = np.random.default_rng(bits)
        qs = [random_levels(rng, T, k, bits, kind, f"i{T}x{k}")
              for T, k in self.SHAPES for kind in ("pca", "nmf")]
        for q in qs:
            blob = encode(q)
            assert_matches_the_oracle(blob, q)
            assert decode(blob) == q
        records = [IndexRecord("o", pca, nmf) for pca, nmf in zip(qs[::2], qs[1::2])]
        write_index(tmp_path / "widths.idx", records)
        blobs = reference_index_blobs((tmp_path / "widths.idx").read_bytes())
        for (object_id, pca_blob, nmf_blob), rec in zip(blobs, records, strict=True):
            assert object_id == rec.object_id
            assert_matches_the_oracle(pca_blob, rec.pca)
            assert_matches_the_oracle(nmf_blob, rec.nmf)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(shapes=st.lists(st.tuples(st.integers(1, 16), st.integers(1, 24),
                                     st.integers(1, 6)), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_random_shapes_and_widths(self, tmp_path_factory, shapes, seed):
        rng = np.random.default_rng(seed)
        records = [IndexRecord(f"o{i}", *(random_levels(rng, T, k, bits, kind, f"o{i}_v1")
                                          for kind in ("pca", "nmf")))
                   for i, (bits, T, k) in enumerate(shapes)]
        path = tmp_path_factory.mktemp("layout") / "random.idx"
        write_index(path, records)
        for (_, pca_blob, nmf_blob), rec in zip(reference_index_blobs(path.read_bytes()),
                                                records, strict=True):
            for blob, q in ((pca_blob, rec.pca), (nmf_blob, rec.nmf)):
                assert_matches_the_oracle(blob, q)
                assert blob == encode(q)
                assert decode(blob) == q


FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)
VALID_BLOB = encode(quantize(nmf_loadings_of(np.full((6, 2), 1 / np.sqrt(6)), "fuzz"), 5))


def _decode_or_codec_error(data: bytes) -> None:
    try:
        q = decode(data)
    except CodecError:
        return
    assert encode(q) == data  # a blob that decodes is exactly one blob


class TestDecodeFuzz:
    """Any bytes decode to loadings or raise CodecError, nothing else."""

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        _decode_or_codec_error(data)

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_after_the_magic(self, data):
        _decode_or_codec_error(b"QFL1" + data)

    @FUZZ
    @given(st.lists(st.tuples(st.integers(0, len(VALID_BLOB) - 1), st.integers(0, 255)),
                    max_size=4),
           st.integers(0, len(VALID_BLOB)), st.binary(max_size=8))
    def test_mutated_valid_blob(self, edits, cut, tail):
        data = bytearray(VALID_BLOB)
        for pos, value in edits:
            data[pos] = value
        _decode_or_codec_error(bytes(data[:cut]) + tail)
