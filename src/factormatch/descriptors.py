"""Per-image descriptor matrices: validation, file formats, synthetic corpora.

A descriptor matrix stacks the keypoint descriptors of one image as columns
of a ``T x N`` array (``T`` = descriptor length, e.g. 128 for SIFT; ``N`` =
number of keypoints). Everything downstream consumes this type, so the
invariants are enforced at construction: finite, non-negative entries and no
all-zero column (zero columns would break the unit-norm constraints used by
the factorizations).
"""

from __future__ import annotations

import io
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binary import Reader

BINARY_MAGIC = b"DMT1"
_TRAILER_RE = re.compile(rb"\nID:(?P<img>[^;]*);OBJ:(?P<obj>[^;\n]*)\n\Z")


class DescriptorFormatError(ValueError):
    """Raised when a descriptor file does not conform to the on-disk format."""


def _validate_values(values: np.ndarray) -> np.ndarray:
    values = np.array(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"descriptor matrix must be 2-D, got shape {values.shape}")
    T, N = values.shape
    if T < 2:
        raise ValueError(f"descriptor length T must be >= 2, got {T}")
    if N < 1:
        raise ValueError(f"descriptor count N must be >= 1, got {N}")
    if not np.isfinite(values).all():
        raise ValueError("descriptor matrix contains non-finite entries")
    if (values < 0).any():
        raise ValueError("descriptor matrix contains negative entries")
    zero_cols = np.where(~values.any(axis=0))[0]
    if zero_cols.size:
        raise ValueError(f"all-zero descriptor column(s) at index {zero_cols[:8].tolist()}")
    return values


@dataclass(frozen=True)
class DescriptorMatrix:
    """Stacked keypoint descriptors of one image (columns = descriptors)."""

    image_id: str
    object_id: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validate_values(self.values))
        self.values.setflags(write=False)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DescriptorMatrix):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.object_id == other.object_id
            and bool(np.array_equal(self.values, other.values))
        )


def save_descriptors(m: DescriptorMatrix) -> bytes:
    """Serialize a descriptor matrix to the binary on-disk format: magic
    ``DMT1``, u32 T, u32 N (little-endian), ``T*N`` float32 values
    column-major, then an optional UTF-8 trailer
    ``\\nID:<image_id>;OBJ:<object_id>\\n`` (written whenever either id is
    non-empty); ids the trailer cannot carry raise ``ValueError``.
    """
    _check_trailer_ids(m)
    out = io.BytesIO()
    out.write(BINARY_MAGIC)
    out.write(struct.pack("<II", m.T, m.N))
    out.write(np.asfortranarray(m.values).tobytes(order="F"))
    if m.image_id or m.object_id:
        out.write(f"\nID:{m.image_id};OBJ:{m.object_id}\n".encode("utf-8"))
    return out.getvalue()


def _check_trailer_ids(m: DescriptorMatrix) -> None:
    """Raise ``ValueError`` for ids the binary trailer cannot carry."""
    if ";" in m.image_id:
        raise ValueError(f"image id {m.image_id!r} contains ';'")
    if ";" in m.object_id or "\n" in m.object_id:
        raise ValueError(f"object id {m.object_id!r} contains ';' or a newline")


def load_descriptors(
    data: bytes,
    fmt: str = "binary",
    image_id: str = "",
    object_id: str = "",
) -> DescriptorMatrix:
    """Parse a descriptor file: the binary format, exact inverse of
    :func:`save_descriptors`, or csv, one row per descriptor dimension,
    comma-separated.

    ``image_id``/``object_id`` are fallbacks for payloads without a trailer
    (e.g. csv files, where ids live in the filename). Any payload that is not
    a valid descriptor matrix raises :class:`DescriptorFormatError`.
    """
    loaders = {"binary": _load_binary, "csv": _load_csv}
    if fmt not in loaders:
        raise ValueError(f"unknown descriptor format {fmt!r}")
    try:
        return loaders[fmt](data, image_id, object_id)
    except DescriptorFormatError:
        raise
    except ValueError as exc:  # text that is not UTF-8, values the matrix rejects
        raise DescriptorFormatError(str(exc)) from None


def _load_binary(data: bytes, image_id: str, object_id: str) -> DescriptorMatrix:
    r = Reader(data, BINARY_MAGIC, "descriptor file", DescriptorFormatError)
    T, N = r.unpack("II", "header")
    if T < 2 or N < 1:
        raise DescriptorFormatError(f"invalid dimensions T={T}, N={N}")
    raw = r.take(4 * T * N, "values")
    trailer = r.rest()
    if trailer:
        match = _TRAILER_RE.match(trailer)
        if match is None:
            raise DescriptorFormatError(
                f"dimension mismatch or malformed trailer: {len(trailer)} unexpected "
                "bytes after the declared payload"
            )
        image_id = match.group("img").decode("utf-8")
        object_id = match.group("obj").decode("utf-8")
    values = np.frombuffer(raw, dtype="<f4").reshape((T, N), order="F")
    return DescriptorMatrix(image_id=image_id, object_id=object_id, values=values)


def _load_csv(data: bytes, image_id: str, object_id: str) -> DescriptorMatrix:
    text = data.decode("utf-8")
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DescriptorFormatError(f"csv line {ln}: {exc}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DescriptorFormatError(
                f"csv line {ln}: expected {width} values, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise DescriptorFormatError("empty csv descriptor file")
    with np.errstate(over="ignore"):  # beyond float32 becomes inf, rejected as non-finite
        values = np.array(rows, dtype=np.float32)
    return DescriptorMatrix(image_id=image_id, object_id=object_id, values=values)


# Dirichlet concentration of the mixing weights; < 1 pushes descriptors
# toward individual centroids so the planted rank is well expressed.
_MIXTURE_CONCENTRATION = 0.3
_COMMON_DIRECTION_WEIGHT = 0.5
_VIEW_EMPHASIS = 0.7


@dataclass(frozen=True)
class SynthCorpusSpec:
    """Parameters of a deterministic synthetic descriptor corpus.

    Each object gets ``planted_rank`` non-negative unit-norm centroid vectors;
    every view of the object mixes those centroids with per-descriptor convex
    weights, then adds Gaussian noise truncated at zero. Same spec, same
    bytes.

    Two shape constants imitate real keypoint-descriptor statistics. Centroids
    blend a corpus-wide common direction with the per-object part
    (``_COMMON_DIRECTION_WEIGHT``), the way all descriptor clouds share
    global gradient statistics. Each view re-weights how strongly it
    expresses each centroid (``_VIEW_EMPHASIS``), the way a viewpoint change
    shifts which features dominate; emphasis is floored so every centroid
    stays expressed and the planted rank survives in every view.
    """

    num_objects: int
    views_per_object: int
    T: int
    descriptors_per_view: int
    planted_rank: int
    view_noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("num_objects", "views_per_object", "T",
                     "descriptors_per_view", "planted_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0 <= self.view_noise_sigma < math.inf:  # NaN fails it too
            raise ValueError("view_noise_sigma must be finite and non-negative, "
                             f"got {self.view_noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.planted_rank >= min(self.T, self.descriptors_per_view):
            raise ValueError(
                f"planted_rank {self.planted_rank} must be < min(T, N) = "
                f"{min(self.T, self.descriptors_per_view)}"
            )

    @classmethod
    def from_string(cls, text: str) -> "SynthCorpusSpec":
        """Parse ``objects=50,views=5,T=32,N=400,r=4,sigma=0.05,seed=1``."""
        keys = {
            "objects": "num_objects",
            "views": "views_per_object",
            "T": "T",
            "N": "descriptors_per_view",
            "r": "planted_rank",
            "sigma": "view_noise_sigma",
            "seed": "seed",
        }
        kwargs = {}
        for part in text.split(","):
            if not part.strip():
                continue
            try:
                key, value = part.split("=", 1)
            except ValueError:
                raise ValueError(f"bad corpus spec fragment {part!r}") from None
            key = key.strip()
            if key not in keys:
                raise ValueError(f"unknown corpus spec key {key!r}")
            field_name = keys[key]
            if field_name in kwargs:
                raise ValueError(f"corpus spec key {key!r} given twice")
            number = float if field_name == "view_noise_sigma" else int
            try:
                kwargs[field_name] = number(value)
            except ValueError:
                raise ValueError(f"corpus spec key {key!r}: {value!r} is not a number") from None
        missing = set(keys.values()) - set(kwargs)
        if missing:
            raise ValueError(f"corpus spec missing {sorted(missing)}")
        return cls(**kwargs)


def generate_corpus(spec: SynthCorpusSpec) -> list[DescriptorMatrix]:
    """Generate the synthetic corpus described by ``spec``.

    Views of one object share its centroids; different objects draw
    independent centroids. With ``view_noise_sigma == 0`` every view has
    numerical rank exactly ``planted_rank``.
    """
    rng = np.random.default_rng(spec.seed)
    r = spec.planted_rank
    T, N = spec.T, spec.descriptors_per_view
    mu, tau = _COMMON_DIRECTION_WEIGHT, _VIEW_EMPHASIS
    common = rng.uniform(size=(T, 1))
    common /= np.linalg.norm(common)
    corpus: list[DescriptorMatrix] = []
    for o in range(spec.num_objects):
        object_id = f"obj{o:04d}"
        centroids = mu * common + (1 - mu) * rng.uniform(size=(T, r))
        centroids /= np.linalg.norm(centroids, axis=0)
        for v in range(1, spec.views_per_object + 1):
            emphasis = (1 - tau) / r + tau * rng.dirichlet(np.ones(r))
            weights = rng.dirichlet(_MIXTURE_CONCENTRATION * r * emphasis, size=N).T
            values = centroids @ weights
            if spec.view_noise_sigma > 0:
                noise = spec.view_noise_sigma * rng.standard_normal((T, N))
                values = np.maximum(values + noise, 0.0)
                # Truncation can only zero a column if the noise swamped it;
                # restore the noiseless column to keep the no-zero-column
                # invariant unconditional.
                dead = ~values.any(axis=0)
                if dead.any():
                    values[:, dead] = (centroids @ weights)[:, dead]
            corpus.append(DescriptorMatrix(
                image_id=f"{object_id}_v{v}",
                object_id=object_id,
                values=values.astype(np.float32),
            ))
    return corpus


def view_index(image_id: str) -> int:
    """1-based view number encoded in a synthetic image id (``..._v<i>``)."""
    _, _, tail = image_id.rpartition("_v")
    try:
        return int(tail)
    except ValueError:
        raise ValueError(f"image id {image_id!r} carries no view suffix") from None


def save_corpus(corpus: list[DescriptorMatrix], directory: str | Path) -> None:
    """Write one ``<image_id>.dmt`` binary descriptor file per image; every
    id is checked as a trailer field and as a file name before any is written."""
    for m in corpus:
        _check_trailer_ids(m)
        if m.image_id in ("", ".", "..") or "/" in m.image_id or "\0" in m.image_id:
            raise ValueError(f"image id {m.image_id!r} is not a file name")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for m in corpus:
        (directory / f"{m.image_id}.dmt").write_bytes(save_descriptors(m))


def load_descriptor_file(path: str | Path) -> DescriptorMatrix:
    """Load one descriptor file: csv for a ``.csv`` suffix, binary
    otherwise. Ids embedded in a binary trailer win; otherwise they derive
    from the file name: the stem is the image id, and the object id is the
    stem up to its last ``_v`` (``<object>_v<i>.<ext>``), or the whole stem."""
    path = Path(path)
    stem = path.stem
    return load_descriptors(path.read_bytes(), "csv" if path.suffix == ".csv" else "binary",
                            image_id=stem, object_id=stem.rsplit("_v", 1)[0])


def load_corpus(directory: str | Path) -> list[DescriptorMatrix]:
    """Load every ``.dmt``/``.csv`` descriptor file in a directory, sorted by
    name, with :func:`load_descriptor_file`."""
    directory = Path(directory)
    corpus = [load_descriptor_file(path) for path in sorted(directory.iterdir())
              if path.suffix in (".dmt", ".csv")]
    if not corpus:
        raise DescriptorFormatError(f"no descriptor files found in {directory}")
    return corpus
