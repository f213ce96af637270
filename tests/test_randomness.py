"""Keyed-hash tape: determinism, range correctness, uniformity, and
known answers from a plain reference copy of the fold-and-mix chain."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from array import array
from hashlib import blake2b
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from localmech import randomness
from localmech.randomness import (
    RandomTape,
    attempt_table,
    derive_uniform,
    pair_keys,
    pair_mix,
    pair_tables,
    sample_table,
    sample_without_replacement,
    uniform_first,
    uniform_rows,
    uniform_table,
)


def test_same_seed_same_stream():
    a = RandomTape(42)
    b = RandomTape(42)
    for i in range(200):
        assert a.u64("x", i) == b.u64("x", i)


def test_different_seeds_disagree():
    a = RandomTape(1)
    b = RandomTape(2)
    hits = sum(a.u64("k", i) == b.u64("k", i) for i in range(200))
    assert hits == 0


def test_key_order_matters():
    t = RandomTape(0)
    assert t.u64("a", 1) != t.u64(1, "a")
    assert t.u64("ab") != t.u64("a", "b")


def test_derive_uniform_range_and_determinism():
    t = RandomTape(11)
    vals = [derive_uniform(t, ("v", i), 7) for i in range(500)]
    assert all(0 <= v < 7 for v in vals)
    assert vals == [derive_uniform(t, ("v", i), 7) for i in range(500)]


def test_derive_uniform_rejects_bad_range():
    t = RandomTape(0)
    with pytest.raises(ValueError):
        derive_uniform(t, ("x",), 0)
    with pytest.raises(ValueError):
        derive_uniform(t, ("x",), -3)


def test_chi_square_buckets():
    # 10^4 draws into 10 buckets: every bucket within 5 sigma of its mean.
    t = RandomTape(7)
    counts = [0] * 10
    for i in range(10_000):
        counts[derive_uniform(t, ("x", i), 10)] += 1
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    for c in counts:
        assert abs(c - 1000) <= 5 * sigma, counts


def test_sample_without_replacement_properties():
    t = RandomTape(5)
    for i in range(50):
        got = sample_without_replacement(t, ("s", i), 20, 8)
        assert len(got) == 8
        assert len(set(got)) == 8
        assert all(0 <= x < 20 for x in got)
    # full draw is a permutation
    perm = sample_without_replacement(t, ("p",), 12, 12)
    assert sorted(perm) == list(range(12))


def test_sample_without_replacement_errors():
    t = RandomTape(0)
    with pytest.raises(ValueError):
        sample_without_replacement(t, ("q",), 5, 6)
    with pytest.raises(ValueError):
        sample_without_replacement(t, ("q",), 0, 1)


# ---------------------------------------------------------------------------
# known answers: the tape against a plain copy of its fold-and-mix chain
# ---------------------------------------------------------------------------

_M = (1 << 64) - 1
_G = 0x9E3779B97F4A7C15


def _ref_mix(x):
    x &= _M
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M
    return x ^ (x >> 31)


def _ref_fold(p):
    if type(p) is str:
        return int.from_bytes(blake2b(p.encode(), digest_size=8).digest(), "big")
    return int(p) & _M


def _ref_u64(seed, *key):
    h = _ref_mix(seed + _G)
    for p in key:
        h = _ref_mix(h ^ _ref_mix(_ref_fold(p) + _G))
    return h


def _ref_uniform(seed, key, n):
    limit = (1 << 64) - ((1 << 64) % n)
    attempt = 0
    while (v := _ref_u64(seed, *key, attempt)) >= limit:
        attempt += 1
    return v % n


def _ref_sample(seed, key, n, count):
    out, idx = [], 0
    while len(out) < count:
        v = _ref_uniform(seed, (*key, idx), n)
        idx += 1
        if v not in out:
            out.append(v)
    return out


_PARTS = [0, 1, 7, 255, 256, 1000, 2**63, 2**64 + 3, -1, True, "lottery", "x", ""]
_SEEDS = [0, 1, 42, -1, -(2**70), 2**64, 2**64 + 9, 2**80 + 1]


def _random_key(rng: random.Random) -> tuple:
    """A key with or without a leading tag, then up to three parts: special
    values, wide ints either side of 2^64, or ints either side of 255."""
    tags = ["menu", "slot-choice", "woman-priority", "tau"]
    key = [rng.choice(tags)] if rng.random() < 0.7 else []
    for _ in range(rng.randrange(4)):
        r = rng.random()
        if r < 0.5:
            key.append(rng.choice(_PARTS))
        else:
            key.append(rng.randrange(-(2**65), 2**65) if r < 0.6 else rng.randrange(600))
    return tuple(key)


def test_tape_equals_reference_chain_on_random_keys():
    rng = random.Random(2024)
    for _ in range(20_000):
        seed = rng.choice(_SEEDS) if rng.random() < 0.5 else rng.randrange(-(2**66), 2**66)
        key = _random_key(rng)
        t = RandomTape(seed)
        assert t.u64(*key) == _ref_u64(seed, *key), (seed, key)
        n = rng.choice([1, 2, 3, 10, 300, 2**32 + 1, 2**63 + 5, 2**64 - 1, 2**64])
        assert derive_uniform(t, key, n) == _ref_uniform(seed, key, n), (seed, key, n)
        count = rng.randrange(min(n, 5) + 1)
        assert sample_without_replacement(t, key, n, count) == _ref_sample(seed, key, n, count)


def test_draw_paths_past_the_small_int_table_and_through_rejection():
    # draw indices run past 255 when every value of the range is drawn
    t = RandomTape(2)
    perm = sample_without_replacement(t, ("perm",), 300, 300)
    assert perm == _ref_sample(2, ("perm",), 300, 300)
    assert sorted(perm) == list(range(300))
    # n = 2^63 + 5 rejects about half of all first attempts
    t = RandomTape(3)
    n = 2**63 + 5
    limit = (1 << 64) - ((1 << 64) % n)
    rejected = [i for i in range(64) if _ref_u64(3, "big", i, 0) >= limit]
    assert rejected
    for i in range(64):
        assert derive_uniform(t, ("big", i), n) == _ref_uniform(3, ("big", i), n)
    assert sample_without_replacement(t, ("big",), n, 40) == _ref_sample(3, ("big",), n, 40)


def _per_key_sample(t, key, n, count):
    """`sample_without_replacement` drawn per key: draw idx under (*key,
    idx), a repeat dropped, until the row holds `count` values."""
    out, seen, idx = [], set(), 0
    while len(out) < count:
        v = derive_uniform(t, (*key, idx), n)
        idx += 1
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


@pytest.mark.parametrize(
    "n, counts",
    [
        (1, [0, 1]),
        (2, [0, 1, 2]),
        (256, [0, 1, 2, 100, 255, 256]),
        (4096, [1, 100, 2048, 4096]),
        # its first 4,100 draws fill one lane block and spill into a second
        (5000, [4100]),
    ],
)
def test_sample_without_replacement_equals_the_per_key_draws(n, counts):
    # the first `count` draws come off the lanes, the redraws per key
    t = RandomTape(13)
    for count in counts:
        for key in (("pick", n, count), ["pick", count]):
            got = sample_without_replacement(t, key, n, count)
            assert got == _per_key_sample(t, key, n, count), (n, count)
            assert type(got) is list and len(set(got)) == count


def _ref_uniform_wide(seed, key, n):
    """A range past 2^64: attempt a reads the words (a,), (a, 1), (a, 2), ...
    as 64-bit digits, low first, as many as n - 1 needs."""
    words = -(-(n - 1).bit_length() // 64)
    span = 1 << (64 * words)
    limit = span - span % n
    attempt = 0
    while True:
        v = _ref_u64(seed, *key, attempt)
        for i in range(1, words):
            v += _ref_u64(seed, *key, attempt, i) << (64 * i)
        if v < limit:
            return v % n
        attempt += 1


def test_ranges_past_two_to_the_64_draw_several_words():
    # a range past 2^64 once had a rejection limit of 0, so its draw never returned
    t = RandomTape(5)
    for n in (2**64 + 1, 2**65 - 1, 2**127 + 1, 65537**4, 3 * 2**200 + 1):
        for i in range(40):
            got = derive_uniform(t, ("wide", i), n)
            assert 0 <= got < n
            assert got == _ref_uniform_wide(5, ("wide", i), n), (n, i)
    # n = 2^127 + 1 rejects about half of all first attempts
    n = 2**127 + 1
    first = [_ref_u64(5, "wide", i, 0) + (_ref_u64(5, "wide", i, 0, 1) << 64) for i in range(40)]
    assert any(v >= (1 << 128) - (1 << 128) % n for v in first)
    got = sample_without_replacement(t, ("wide",), 2**64 + 1, 30)
    want = [_ref_uniform_wide(5, ("wide", idx), 2**64 + 1) for idx in range(30)]
    assert got == want  # 30 draws from 2^64 + 1 values: no duplicates to redraw
    assert derive_uniform(RandomTape(0), ("x",), 2**64 + 1) == 0x28A5FEAFED84E401
    # a range of exactly 2^64 still draws one word
    assert derive_uniform(t, ("wide", 0), 2**64) == _ref_u64(5, "wide", 0, 0)


def test_known_answers():
    # recorded from the unstemmed chain; any change to the tape's bits fails here
    assert RandomTape(0).u64() == 0xE220A8397B1DCDAF
    assert RandomTape(42).u64("woman-priority", 3, 1000) == 0xADBE54955D7FA4C3
    assert RandomTape(-1).u64("x", 2**63, -1, True) == 0x761D26E79EBE8E2F
    assert RandomTape(2**64 + 5).u64(7, "tag", 255, 256) == 0x48440BE2A5B0C1C3
    assert derive_uniform(RandomTape(1), ("value", 9), 10**6) == 0x4C4C8
    assert derive_uniform(RandomTape(3), ("big", 2), 2**63 + 5) == 0x35B3F579D1F124E5
    got = sample_without_replacement(RandomTape(2), ("house-list", 4), 1000, 4)
    assert got == [0x2C1, 0x72, 0xB4, 0x33C]
    assert sample_without_replacement(RandomTape(2), ("perm",), 300, 300)[-3:] == [182, 132, 111]


# ---------------------------------------------------------------------------
# table draws: one pass over (tag, i), the same bits as the per-key draws
# ---------------------------------------------------------------------------

# 1 and 2^64 take every first attempt; 2^64 - 1 rejects some; 2^64 + 1,
# 2^65, 2^68 and 2^80 + 7 draw two words an attempt
_TABLE_RANGES = [
    1, 2, 7, 300, 2**63 + 5, 2**64 - 1, 2**64, 2**64 + 1, 2**65, (2**17) ** 4, 2**80 + 7
]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(-(2**65), 2**65),
    # a lone part or a key prefix: the tables draw under the state after it
    tag=st.sampled_from(["menu", "lottery", "", 7, 2**64 + 3, (), ("tau", 3), (9, "x", -1)]),
    count=st.sampled_from([0, 1, 3, 257, 300]),
    n=st.sampled_from(_TABLE_RANGES),
    data=st.data(),
)
def test_table_draws_equal_the_per_key_draws(seed, tag, count, n, data):
    # k runs from 0 to n, k = n included, capped at 3 for the long tables
    k = data.draw(st.integers(0, min(n, 3 if count > 3 else 8)), label="k")
    t = RandomTape(seed)
    _assert_tables_equal_per_key_draws(t, tag, count, n, k)
    # ragged rows of ids, empty ones and ids past the leaf table among them
    rows = data.draw(st.lists(st.lists(st.integers(0, 600), max_size=5), max_size=40), label="rows")
    _assert_key_rows_equal_per_key_draws(t, tag, rows)


def _prefix(tag):
    return tag if type(tag) is tuple else (tag,)


def _assert_key_rows_equal_per_key_draws(t, tag, rows, m=None):
    # the stems run over the row ids, the leaves over the rows
    m = max((x + 1 for row in rows for x in row), default=0) if m is None else m
    tables = pair_tables(t, tag, m, len(rows))
    want = [[t.u64(*_prefix(tag), x, i) for x in row] for i, row in enumerate(rows)]
    # every pair (x, i) of the rows, row by row and in reverse
    xs = [x for row in rows for x in row]
    ids = [i for i, row in enumerate(rows) for _ in row]
    flat = [key for row in want for key in row]
    assert pair_mix(tables, xs, ids) == flat
    assert pair_mix(tables, xs[::-1], ids[::-1]) == flat[::-1]
    # each id's column, in reverse: the rows that list it, as a suitor record
    cols: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for x in row:
            cols.setdefault(x, []).insert(0, i)
    for x, ids in cols.items():
        assert pair_keys(tables, x, ids) == [want[i][rows[i].index(x)] for i in ids]


def _assert_tables_equal_per_key_draws(t, tag, count, n, k):
    key = _prefix(tag)
    got = t.u64_table(tag, count)
    assert type(got) is list
    assert got == [t.u64(*key, i) for i in range(count)]
    stems, leaves = pair_tables(t, tag, count, count)
    assert stems.tolist() == got
    if count:
        want = t.u64_table((*key, count - 1), count)
        assert pair_keys((stems, leaves), count - 1, range(count)) == want
    want = [derive_uniform(t, (*key, i), n) for i in range(count)]
    assert list(uniform_table(t, tag, count, n)) == want
    # a draw's first attempt gives its value unless the draw needs more
    words = attempt_table(t, tag, count)
    assert words.tolist() == [t.u64(*key, i, 0) for i in range(count)]
    assert all(uniform_first(w, n) in (None, v) for w, v in zip(words, want))
    want = [tuple(derive_uniform(t, (*key, i, s), n) for s in range(k)) for i in range(count)]
    assert uniform_rows(t, tag, count, n, k) == want
    want = [tuple(sample_without_replacement(t, (*key, i), n, k)) for i in range(count)]
    assert sample_table(t, tag, count, n, k) == want


_BLOCK = randomness._BLOCK


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize(
    "seed, n, k",
    [
        pytest.param(-7, 1000, 2, id="plain"),
        # about half of all first attempts are rejected
        pytest.param(2**64 + 9, 2**63 + 5, 2, id="rejecting"),
        pytest.param(3, 2**64 - 1, 0, id="k0"),
        # about a third of the sample rows repeat a value and are redrawn
        pytest.param(4, 16, 4, id="repeating"),
        # one column pair: about a third of the sample rows repeat their value
        pytest.param(6, 3, 2, id="repeating-pair"),
        # k close to n: nearly every sample row repeats a value and is redrawn
        pytest.param(5, 10, 8, id="near-full"),
        pytest.param(-(2**70), 2**64 + 1, 1, id="wide"),
        # the housing lottery's range at n = 2^17: two words, none rejected
        pytest.param(17, (2**17) ** 4, 2, id="wide-two-words"),
        # about half of all first attempts are rejected: `_draw` on wide lanes
        pytest.param(8, 2**127 + 1, 2, id="wide-rejecting"),
        pytest.param(-1, 3 * 2**128 + 1, 1, id="wide-three-words"),
    ],
)
def test_table_draws_equal_the_per_key_draws_across_blocks(count, seed, n, k):
    # the lane blocks hold 4,096 entries: counts either side of one and two
    _assert_tables_equal_per_key_draws(RandomTape(seed), "menu", count, n, k)


@pytest.mark.parametrize("count", [_BLOCK // 3, _BLOCK // 2 + 3, _BLOCK + 7])
def test_key_rows_equal_the_per_key_draws_across_blocks(count):
    # 0-4 ids a row, 2 on average: the entries span one, two and three
    # blocks, and the row ids run past the leaf table
    rows = [[(7 * i + 300 * x) % 1000 for x in range(i % 5)] for i in range(count)]
    _assert_key_rows_equal_per_key_draws(RandomTape(-3), ("woman-priority",), rows)


@pytest.mark.parametrize("count", [1, _BLOCK // 3, _BLOCK + 7])
def test_key_rows_equal_the_per_key_draws_across_stem_blocks(count):
    # two blocks of stems, with fewer or more leaves: 1-5 ids a row run
    # from the last stem down across both
    rows = [[(_BLOCK + 4 - 7 * i - 1500 * x) % (_BLOCK + 5) for x in range(i % 5 + 1)]
            for i in range(count)]
    _assert_key_rows_equal_per_key_draws(RandomTape(-3), ("woman-priority",), rows, _BLOCK + 5)


def test_uniform_first_takes_the_first_attempt_below_the_bound():
    # 2^64 % 3 == 1: the top word is the one rejected first attempt for n = 3
    assert uniform_first(2**64 - 1, 3) is None
    assert uniform_first(2**64 - 2, 3) == (2**64 - 2) % 3
    # a power-of-two range divides 2^64 and never rejects
    for e in range(65):
        for word in (0, 1, 2**63, 2**64 - 1):
            assert uniform_first(word, 2**e) == word % 2**e
    # a range past 2^64 draws several words, so its first word never settles it
    assert uniform_first(0, 2**64 + 1) is None


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_attempt_table_is_the_per_key_first_attempt_across_blocks(count):
    seed, n = 11, 2**63 + 5  # about half of all first attempts are rejected
    words = attempt_table(RandomTape(seed), ("slot-tie",), count)
    assert type(words) is array and words.typecode == "Q"
    assert words.tolist() == [_ref_u64(seed, "slot-tie", i, 0) for i in range(count)]
    limit = (1 << 64) - (1 << 64) % n
    firsts = [uniform_first(w, n) for w in words]
    assert firsts == [w % n if w < limit else None for w in words]
    for i, v in enumerate(firsts[:300]):
        if v is not None:
            assert v == _ref_uniform(seed, ("slot-tie", i), n)


def test_table_draws_keep_no_state_per_count():
    def footprint():
        sizes = {}
        for name, value in vars(randomness).items():
            cached = value.cache_info().currsize if hasattr(value, "cache_info") else None
            sizes[name] = (sys.getsizeof(value), cached)
        return sizes

    before = footprint()
    t = RandomTape(9)
    for count in (1, 2, 3, 100, 255, 256, 257, 1000, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 17):
        t.u64_table("x", count)
        uniform_table(t, "v", count, 1000 + count)
        uniform_rows(t, "m", count, 7, 2)
        sample_table(t, "s", count, 50 + count, 3)
        tables = pair_tables(t, "r", count + 1, count)
        pair_mix(tables, [count, 0] * count, [i for i in range(count) for _ in "xy"])
        pair_keys(tables, count, range(count))
        attempt_table(t, "a", count)
    t.u64("x", 3, "y")
    derive_uniform(t, ("v", 5), 2**64 + 1)
    sample_without_replacement(t, ("s", 2), 300, 300)
    assert footprint() == before
    # nor per key: the tape's slots hold what a fresh tape's hold
    slots = RandomTape.__slots__
    assert [getattr(t, a) for a in slots] == [getattr(RandomTape(9), a) for a in slots]


def test_the_first_leaf_block_holds_leaf_j_in_lane_j():
    lanes = randomness._unpack(randomness._LEAVES, _BLOCK)
    assert lanes.tolist() == [_ref_mix(i + _G) for i in range(_BLOCK)]


@pytest.mark.parametrize("count", [1, 255, _BLOCK])
def test_a_one_block_table_mixes_no_leaf(monkeypatch, count):
    # a table of at most one block cuts its leaves from the block mixed at
    # import: one mix for its states, then one per draw column and one per
    # column of first attempts
    want = [tuple(_ref_sample(3, ("s", i), 1000, 3)) for i in range(min(count, 300))]
    calls = []
    mix_lanes = randomness._mix_lanes
    monkeypatch.setattr(randomness, "_mix_lanes", lambda x: calls.append(x) or mix_lanes(x))
    t = RandomTape(3)
    assert t.u64_table("x", count) == [_ref_u64(3, "x", i) for i in range(count)]
    assert len(calls) == 1
    calls.clear()
    assert sample_table(t, "s", count, 1000, 3)[:300] == want
    assert len(calls) == 1 + 2 * 3


def test_a_wide_table_draws_on_the_lanes(monkeypatch):
    # 2^68 divides 2^128, so no attempt is rejected: neither scalar loop
    # runs, and each block mixes one more column, for the second word
    count, n = _BLOCK + 1, (2**17) ** 4
    t = RandomTape(5)
    want = {i: derive_uniform(t, ("lottery", i), n) for i in (0, 1, _BLOCK - 1, _BLOCK)}
    for name in ("_rows", "_draw"):
        monkeypatch.setattr(randomness, name, lambda *a, name=name: pytest.fail(name))
    calls = []
    mix_lanes = randomness._mix_lanes
    monkeypatch.setattr(randomness, "_mix_lanes", lambda x: calls.append(x) or mix_lanes(x))
    uniform_table(t, "lottery", count, 2**64)
    narrow = len(calls)
    calls.clear()
    got = uniform_table(t, "lottery", count, n)
    assert {i: got[i] for i in want} == want
    assert len(calls) == narrow + 2


def test_table_rows_past_the_small_int_table():
    # a full draw of 300 values runs its draw indices past 255 within a row
    t = RandomTape(2)
    rows = sample_table(t, "perm", 2, 300, 300)
    assert rows == [tuple(_ref_sample(2, ("perm", i), 300, 300)) for i in range(2)]
    assert uniform_table(t, "perm", 300, 300)[-3:] == tuple(
        _ref_uniform(2, ("perm", i), 300) for i in range(297, 300)
    )
    want = [tuple(_ref_uniform(2, ("perm", i, s), 300) for s in range(300)) for i in range(2)]
    assert uniform_rows(t, "perm", 2, 300, 300) == want


def test_table_draws_refuse_what_the_per_key_draws_refuse():
    t = RandomTape(0)
    for n in (0, -3):
        with pytest.raises(ValueError):
            uniform_table(t, "x", 3, n)
        with pytest.raises(ValueError):
            uniform_rows(t, "x", 3, n, 1)
        with pytest.raises(ValueError):
            sample_table(t, "x", 3, n, 1)
    with pytest.raises(ValueError):
        sample_table(t, "x", 3, 5, 6)
    with pytest.raises(ValueError):
        sample_table(t, "x", 0, 5, 6)
    with pytest.raises(TypeError):
        t.u64_table(0.5, 2)
    with pytest.raises(TypeError):
        t.u64_table(("tau", 0.5), 2)
    # the ids index the pair tables: none wraps around from the end
    tables = pair_tables(t, "x", 3, 3)
    for x, ids in ((-1, [0]), (0, [-1]), (3, [0]), (0, [1, 3])):
        with pytest.raises(IndexError):
            pair_keys(tables, x, ids)
    # a negative id, and an id past the stems or past the leaves
    for xs, ids in (([0, 1, -1], [0, 0, 2]), ([0], [-1]), ([0, 3], [0, 1]), ([0] * 4, range(4))):
        with pytest.raises(IndexError):
            pair_mix(tables, xs, ids)
    with pytest.raises(ValueError):
        pair_mix(tables, [0, 1], [0])


def test_float_key_part_is_rejected():
    t = RandomTape(0)
    with pytest.raises(TypeError):
        t.u64("x", 1.5)
    with pytest.raises(TypeError):
        t.u64(2.0)
    with pytest.raises(TypeError):
        derive_uniform(t, ("x", 0.5), 10)
    with pytest.raises(TypeError):
        sample_without_replacement(t, (0.5,), 10, 2)


def test_seeded_builds_do_not_import_numpy():
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from localmech.instances import FAMILIES, InstanceSpec, build_instance\n"
        "for fam, spec in FAMILIES.items():\n"
        "    size = 3 if spec.size == 'k' else 2\n"
        "    inst = build_instance(InstanceSpec(seed=1, family=fam, n=64, m=64, k=size))\n"
        "    inst.oracle\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
