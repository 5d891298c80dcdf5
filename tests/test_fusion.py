import ast
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch import fusion, matcher
from factormatch.fusion import FusionParams, fuse
from factormatch.matcher import RankedEntry, RankedList

from conftest import lookup_fuse


def ranked(object_ids, eta):
    entries = tuple(
        RankedEntry(obj, f"{obj}_v1", float(len(object_ids) - i))
        for i, obj in enumerate(object_ids)
    )
    return RankedList(entries=entries, eta=eta)


def reference_fuse(pri_ids, sec_ids, alpha, eta):
    """Independent re-implementation of the reorder rule, kept deliberately
    literal: explicit rank lookup per pair, explicit pass loop."""
    order = list(pri_ids)
    n = len(order)

    def sec_rank(obj):
        for pos, other in enumerate(sec_ids, start=1):
            if other == obj:
                return pos
        return eta + 1

    for _ in range(eta * eta):
        changed = False
        i = 1
        while i < eta / 2:
            for j in range(1, eta - i + 1):
                if i + j > n:
                    continue
                a = sec_rank(order[i - 1])
                b = sec_rank(order[i + j - 1])
                if a > b + alpha + j:
                    order[i - 1], order[i + j - 1] = order[i + j - 1], order[i - 1]
                    changed = True
            i += 1
        if not changed:
            return order
    return order


def eta_bounded_fuse(v_pri, v_sec, params):
    """The pass loop as it was when bounded by eta rather than the list
    length, kept verbatim as the reference for the bounded loop."""
    eta = params.eta
    alpha = params.alpha
    sec_rank = {obj: pos for pos, obj in enumerate(v_sec.object_ids(), start=1)}
    absent = eta + 1
    working = list(v_pri.entries)
    n = len(working)

    for _ in range(eta * eta):
        swapped = False
        i = 1
        while i < eta / 2:
            j = 1
            while j <= eta - i:
                if i + j <= n:
                    a = sec_rank.get(working[i - 1].object_id, absent)
                    b = sec_rank.get(working[i + j - 1].object_id, absent)
                    if a > b + alpha + j:
                        working[i - 1], working[i + j - 1] = (
                            working[i + j - 1],
                            working[i - 1],
                        )
                        swapped = True
                j += 1
            i += 1
        if not swapped:
            break

    return RankedList(entries=tuple(working), eta=eta)


def random_lists(rng, eta):
    pool = [f"obj{c}" for c in range(eta + 4)]
    n_pri = int(rng.integers(1, eta + 1))
    n_sec = int(rng.integers(1, eta + 1))
    pri = list(rng.choice(pool, size=n_pri, replace=False))
    sec = list(rng.choice(pool, size=n_sec, replace=False))
    return pri, sec


class TestIdentities:
    def test_fuse_with_itself_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eta = int(rng.integers(1, 21))
            pri, _ = random_lists(rng, eta)
            v = ranked(pri, eta)
            for alpha in (0, eta // 2, eta):
                assert fuse(v, v, FusionParams(alpha=alpha, eta=eta)).entries == v.entries

    def test_alpha_eta_ignores_secondary(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            eta = int(rng.integers(1, 21))
            pri, sec = random_lists(rng, eta)
            out = fuse(ranked(pri, eta), ranked(sec, eta),
                       FusionParams(alpha=eta, eta=eta))
            assert out.object_ids() == pri

    def test_hand_trace(self):
        # pri [A,B,C,D], sec [B,C,D,A], eta=4, alpha=1: the (A,B) pair has
        # secondary ranks a=4, b=1 and j=1, so 4 > 1+1+1 swaps once
        out = fuse(ranked(list("ABCD"), 4), ranked(list("BCDA"), 4),
                   FusionParams(alpha=1, eta=4))
        assert out.object_ids() == list("BACD")


class TestAgainstReference:
    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            eta = int(rng.integers(1, 13))
            pri, sec = random_lists(rng, eta)
            alpha = int(rng.integers(0, eta + 1))
            ours = fuse(ranked(pri, eta), ranked(sec, eta),
                        FusionParams(alpha=alpha, eta=eta)).object_ids()
            assert ours == reference_fuse(pri, sec, alpha, eta)


class TestLengthBoundedLoop:
    def test_matches_eta_bounded_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            eta = int(rng.integers(1, 41))
            pool = [f"obj{c}" for c in range(eta + 4)]
            # short lists too, where the eta bound and the length bound differ
            pri = list(rng.choice(pool, size=int(rng.integers(0, eta + 1)), replace=False))
            sec = list(rng.choice(pool, size=int(rng.integers(0, eta + 1)), replace=False))
            params = FusionParams(alpha=int(rng.integers(0, eta + 1)), eta=eta)
            v_pri, v_sec = ranked(pri, eta), ranked(sec, eta)
            assert fuse(v_pri, v_sec, params).entries == \
                eta_bounded_fuse(v_pri, v_sec, params).entries

    def test_largest_eta_costs_no_more_than_the_list(self):
        # eta is a u16 the client sends; ten entries must not cost 65535^2 steps
        pri = [f"o{i}" for i in range(10)]
        start = time.perf_counter()
        out = fuse(ranked(pri, 65535), ranked(pri[::-1], 65535),
                   FusionParams(alpha=0, eta=65535))
        assert time.perf_counter() - start < 0.5
        assert sorted(out.object_ids()) == sorted(pri)


@st.composite
def fusion_cases(draw):
    """Primary and secondary lists of up to eta of eta + 4 objects, and an alpha."""
    eta = draw(st.integers(1, 40))
    pool = [f"obj{c}" for c in range(eta + 4)]
    pri, sec = (draw(st.lists(st.sampled_from(pool), max_size=eta, unique=True))
                for _ in range(2))
    return ranked(pri, eta), ranked(sec, eta), FusionParams(draw(st.integers(0, eta)), eta)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=fusion_cases())
def test_matches_the_dict_lookup_form(case):
    """The passes over a list of secondary ranks give the lists of the form
    that looks each rank up per pair."""
    assert fuse(*case) == lookup_fuse(*case)


class TestProperties:
    def test_output_is_permutation_with_scores_carried(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            eta = int(rng.integers(1, 16))
            pri, sec = random_lists(rng, eta)
            v_pri = ranked(pri, eta)
            out = fuse(v_pri, ranked(sec, eta),
                       FusionParams(alpha=int(rng.integers(0, eta + 1)), eta=eta))
            assert sorted(out.entries) == sorted(v_pri.entries)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pri, sec = random_lists(rng, 10)
        params = FusionParams(alpha=2, eta=10)
        first = fuse(ranked(pri, 10), ranked(sec, 10), params)
        second = fuse(ranked(pri, 10), ranked(sec, 10), params)
        assert first.entries == second.entries

    def test_terminates_on_adversarial_orders(self):
        for eta in (2, 3, 8, 20):
            pri = [f"o{i}" for i in range(eta)]
            sec = pri[::-1]
            for alpha in range(eta + 1):
                out = fuse(ranked(pri, eta), ranked(sec, eta),
                           FusionParams(alpha=alpha, eta=eta))
                assert sorted(out.object_ids()) == sorted(pri)


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            FusionParams(alpha=5, eta=4)
        with pytest.raises(ValueError, match="alpha"):
            FusionParams(alpha=-1, eta=4)

    def test_oversized_list_rejected(self):
        v = ranked(list("ABC"), 3)
        with pytest.raises(ValueError, match="exceeds eta"):
            fuse(v, v, FusionParams(alpha=1, eta=2))


def test_fusion_imports_nothing_from_matcher():
    # matcher imports fusion, so the ranked-list types live in fusion
    tree = ast.parse(Path(fusion.__file__).read_text())
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert not [m for m in modules if "matcher" in m]
    assert (matcher.RankedList, matcher.RankedEntry) == (fusion.RankedList, fusion.RankedEntry)
