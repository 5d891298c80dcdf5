"""Metamorphic relations of the server's answers (ROADMAP item 11): changes
to an index that must leave every ``answer_query`` response byte the same.

The index holds exact ties between objects: the views of some objects are
copies of another object's images under their own ids, and one object holds
a copy of another's view, so each relation also pins the tie rules of the
matcher's top-eta step, best-first by (key, image id) with each object at
its best view.
"""

import dataclasses
import functools

import numpy as np
import pytest

from factormatch import codec
from factormatch.descriptors import SynthCorpusSpec, generate_corpus, view_index
from factormatch.matcher import IndexRecord, ObjectIndex
from factormatch.service import (STATUS_OK, answer_query, decode_response, encode_query,
                                 read_index, write_index)

from conftest import records_of

OBJECTS = 30
TWINS = 5  # the last TWINS objects' views are copies of the first TWINS objects' views
TWINNED = {f"obj{i:04d}" for i in range(TWINS)}
K_MAX = 8
ETA, ALPHA = 20, 2  # the paper's operating point


def renamed(record: IndexRecord, image_id: str, object_id: str | None = None) -> IndexRecord:
    """``record``'s loadings under another image id (and object id)."""
    return IndexRecord(object_id or record.object_id,
                       dataclasses.replace(record.pca, image_id=image_id),
                       dataclasses.replace(record.nmf, image_id=image_id))


@functools.cache
def case() -> tuple[list[IndexRecord], list[bytes]]:
    """The indexed 5-bit records of views 2-4 of 30 objects at T=32, with
    the twins' views and one view of object 10 copied from other objects,
    and the query payload of view 1 of every object."""
    spec = SynthCorpusSpec(OBJECTS, 4, T=32, descriptors_per_view=100, planted_rank=4,
                           view_noise_sigma=0.05, seed=5)
    uploads = records_of(generate_corpus(spec), K_MAX)
    queries = [r for r in uploads if view_index(r.pca.image_id) == 1]
    records = [r for r in uploads if view_index(r.pca.image_id) != 1]
    by_object: dict[str, list[IndexRecord]] = {}
    for r in records:
        by_object.setdefault(r.object_id, []).append(r)
    objects = list(by_object)
    for source, twin in zip(objects[:TWINS], objects[-TWINS:]):
        by_object[twin] = [renamed(r, r.pca.image_id.replace(source, twin), twin)
                           for r in by_object[source]]
    by_object[objects[10]].append(
        renamed(by_object[objects[11]][0], f"{objects[10]}_v5", objects[10]))
    records = [r for views in by_object.values() for r in views]
    payloads = [encode_query(ETA, ALPHA, codec.encode(q.pca), codec.encode(q.nmf))
                for q in queries]
    return records, payloads


def responses(index: ObjectIndex) -> list[bytes]:
    return [answer_query(index, payload) for payload in case()[1]]


@functools.cache
def expected() -> tuple[bytes, ...]:
    return tuple(responses(ObjectIndex(case()[0])))


def test_case_holds_ties_between_objects():
    """Every response is an ok answer, and some rank two objects at one
    score: the copies tie exactly."""
    records, _ = case()
    assert len({r.object_id for r in records}) == OBJECTS
    objects_of: dict[bytes, set[str]] = {}
    for r in records:
        objects_of.setdefault(r.pca.levels.tobytes() + r.nmf.levels.tobytes(), set()).add(
            r.object_id)
    assert sum(len(objects) > 1 for objects in objects_of.values()) == 3 * TWINS + 1
    tied = 0
    for response in expected():
        status, entries, _ = decode_response(response)
        assert status == STATUS_OK
        scores = [score for _, score, _ in entries]
        tied += len(scores) - len(set(scores))
    assert tied > 0


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_idx_record_order(tmp_path, order):
    """(a) The same records written to the ``.idx`` file in another order."""
    records, _ = case()
    permutation = (np.random.default_rng(7).permutation(len(records)) if order == "shuffled"
                   else np.arange(len(records))[::-1])
    written = []
    for name, kept in (("given", records), (order, [records[i] for i in permutation])):
        write_index(tmp_path / f"{name}.idx", kept)
        written.append(responses(read_index(tmp_path / f"{name}.idx")))
    assert written[0] == written[1] == list(expected())


def test_extra_view_with_the_same_loadings():
    """(d) One more view of an object, under a new image id, with the
    loadings of one of that object's views: each view of the objects that
    have twins in turn. The copy's id sorts after every other id; one that
    sorted before its twin's copy would win their tie, a real change."""
    records, _ = case()
    for r in records:
        if r.object_id in TWINNED:
            extra = renamed(r, f"~{r.pca.image_id}")
            assert responses(ObjectIndex([*records, extra])) == list(expected()), r.pca.image_id


def test_order_preserving_renaming_of_image_ids():
    """(e) Every image id replaced by one of the same rank in sorted order."""
    records, _ = case()
    rank = {image_id: i for i, image_id in enumerate(sorted(r.pca.image_id for r in records))}
    assert responses(ObjectIndex(renamed(r, f"img{rank[r.pca.image_id]:03d}")
                                 for r in records)) == list(expected())
