"""Keyed deterministic randomness.

Every draw made anywhere in this package is a pure function of a global seed
and a structured key (purpose tag, entity ids, draw index).  There is no
hidden stream state: two callers that ask for the same key get the same bits,
and a local simulation that replays a subset of a global run reproduces the
global run's draws exactly.  That property is what makes per-query local
algorithms consistent with their global counterparts, so do not replace this
with `random.Random` style sequential streams.

The mixer is the splitmix64 finalizer (Steele, Lea and Flood, OOPSLA 2014)
applied to a running hash of the key parts.  The state starts at
mix(seed + G) and each part p extends it by one step, h <- mix(h ^ leaf(p))
with leaf(p) = mix(fold(p) + G); an int folds to its low 64 bits and a
string tag to 64 bits of blake2b.  `_leaf` is the one place that folds a
part, and the leaves of the ints 0..255 (draw indices, attempts, small ids)
come from a module-level table.  The tape keeps no cache: each call hashes
its key part by part.  `derive_uniform` hashes its key once, then pays one
step per attempt; `sample_without_replacement` draws its first `count`
indices as one `uniform_table` and only its redraws per key.

An instance draws its seeded data as tables over (tag, i), i = 0..count-1,
one entry per entity, and gets the same bits as the per-key draws:

- `RandomTape.u64_table(tag, count)` is `u64(tag, i)` for each i (the job
  ranks and uduv item scores that `SchedulingInstance` and `AuctionInstance`
  sort at build);
- `uniform_table(tape, tag, count, n)` is `derive_uniform(tape, (tag, i), n)`
  for each i (capacities and values in `InstanceSpec.seeded_values`, the
  housing lottery);
- `sample_table(tape, tag, count, n, k)` is row i of
  `sample_without_replacement(tape, (tag, i), n, k)` for each i (the rows of
  `InstanceSpec.seeded_rows`, the standard-mode slot choices of
  `SchedulingInstance.oracle`);
- `uniform_rows(tape, tag, count, n, k)` is `derive_uniform(tape, (tag, i,
  t), n)` for t < k in row i (the restricted menus);
- `pair_tables(tape, tag, m, n)` is the stems `u64(tag, x)`, x < m, and the
  leaves leaf(i), i < n; `u64(tag, x, i)` is mix(stems[x] ^ leaves[i]), which
  `pair_mix` mixes for a list of pairs a block at a time and `pair_keys` for
  one x's ids (a seeded `MatchingInstance`'s keys ("woman-priority", w, man));
- `attempt_table(tape, tag, count)` is the first attempt of `derive_uniform(
  tape, (tag, i), n)` for each i, and `uniform_first(word, n)` its value if
  taken (standard scheduling's tie-breaks, `SchedulingInstance.tie_words`).

The tag of a table may also be a tuple, a key prefix: the table draws under
the state after it, so `uniform_rows(tape, ("tau", t), m, C, 2)` is
`derive_uniform(tape, ("tau", t, s, x), C)` for x < 2 in row s (one call per
trial of `oracles.uniform_majorizes_nonuniform`).

Every draw into [0, n) is one rejection draw, `_draw`, with the attempt
width and limit of `_limit(n)`: attempt a joins the state after (a,) with
the states after (a, 1), (a, 2), ... as the low-to-high 64-bit digits of
one number, as many as n - 1 needs (one up to n = 2^64), and the first
attempt below the largest multiple of n they hold is reduced mod n.  The
draw under the key (tag, i) is draw i of the row stream under (tag,), and a
menu draw (tag, i, t) is draw t of the row stream under (tag, i) without
the duplicate check.  A distinct row keeps the first occurrences of its
first k draws, which the tables draw, and `_rows` draws the rest per key.

The tables run splitmix64 on many entries per integer operation (SIMD
within a register, Fisher and Dietz, LCPC 1998).  A block of up to 4,096
64-bit states is packed into one Python int, one state in the low half of
each 128-bit lane, so that a product by a splitmix64 multiplier never
carries into the next lane; each shift is masked back to the low halves.
One pass over a block gives the row states mix(h ^ leaf(i)) of its entries,
the state of draw t, mix(row ^ leaf(t)), and the words of its first
attempt, w0 = mix(draw ^ leaf(0)) and wi = mix(w0 ^ leaf(i)) for i >= 1
(none past w0 up to n = 2^64); each lane is then checked against the limit
and reduced mod n.  A block's ints are 64 KB; the first block of leaves,
leaf(i) for i < 4,096, is mixed once at import (`_LEAVES`), and nothing
else is cached per count.  What the lanes cannot settle goes to the scalar
loops, so each bit still comes from one definition:

- a lane whose first attempt is at or above the limit is drawn by `_draw`;
- a `sample_table` or `sample_without_replacement` row with a repeat
  among its first k draws is completed from its state by `_rows`, which
  draws indices k, k+1, ... per key; the repeats are found a block at a time,
  by comparing the block's k draw columns in pairs (k(k-1)/2 passes of
  `map(eq, ...)`), not with a set per row.

The tape stays pure Python.  Importing numpy raises the peak RSS of a
process that builds instances from about 21 to 32 MB (Python 3.11,
numpy 2.4, x86-64 Linux), far more than the 10% growth of `peak_rss_mb`
that BENCHMARK.json allows on any workload.  No module of the package
imports numpy, and `tests/test_census.py` keeps it that way.
"""

from __future__ import annotations

import sys
from array import array
from hashlib import blake2b
from itertools import combinations, compress
from operator import eq
from typing import Iterator, Sequence, Union

__all__ = [
    "KeyPart",
    "KeyPrefix",
    "RandomTape",
    "attempt_table",
    "derive_uniform",
    "pair_keys",
    "pair_mix",
    "pair_tables",
    "sample_table",
    "sample_without_replacement",
    "uniform_first",
    "uniform_rows",
    "uniform_table",
]

KeyPart = Union[int, str]
# what a table draws under: a lone part, or a tuple of parts (a key prefix)
KeyPrefix = Union[KeyPart, tuple]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(x: int) -> int:
    """splitmix64 finalizer: full-avalanche 64-bit permutation."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


# _LEAF[i] == _mix(i + _GOLDEN), the leaf of the int part i
_LEAF = tuple(_mix(i + _GOLDEN) for i in range(256))


def _leaf(part: KeyPart) -> int:
    """leaf(p) = mix(fold(p) + G): an int folds to its low 64 bits, a string
    to 64 bits of blake2b, and a bool or other int subclass as its int."""
    if type(part) is int:
        return _LEAF[part] if 0 <= part < 256 else _mix(part + _GOLDEN)
    if type(part) is str:
        part = int.from_bytes(blake2b(part.encode(), digest_size=8).digest(), "big")
    elif not isinstance(part, int):
        raise TypeError(f"key parts must be int or str, got {type(part).__name__}")
    return _mix(int(part) + _GOLDEN)


_BLOCK = 4096  # lanes per packed int, 64 KB of it


def _spread(word: int, b: int) -> int:
    """b 128-bit lanes that each hold `word` in their low half."""
    return int.from_bytes((word.to_bytes(8, "little") + bytes(8)) * b, "little")


_LANES = _spread(_MASK, _BLOCK)  # the low half of every lane
# lane j holds j
_IOTA = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_BLOCK)), "little")


def _unpack(x: int, b: int) -> array:
    """The words in the b lanes of x."""
    words = array("Q", x.to_bytes(16 * b, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _mix_lanes(x: int) -> int:
    """`_mix` of every lane of x at once.  Each lane holds a word below 2^64,
    so its product by _M1 or _M2 stays inside its 128 bits."""
    m = _LANES
    x = (((x ^ (x >> 30)) & m) * _M1) & m
    x = (((x ^ (x >> 27)) & m) * _M2) & m
    return (x ^ (x >> 31)) & m


_LEAVES = _mix_lanes(_IOTA + _spread(_GOLDEN, _BLOCK))  # lane j holds leaf(j)


def _pack(words: Sequence[int]) -> int:
    """The words in the low halves of len(words) lanes (`_unpack` reversed)."""
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = array("Q", words)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _leaf_blocks(count: int) -> Iterator[tuple[int, int]]:
    """(b, leaves) for each block of the leaves leaf(i), i < count, b of
    them packed in one int: lane j holds i = start + j.  The leaf's input
    start + j + _GOLDEN stays below 2^64, as no list holds 2^62 entries, so
    no lane carries into the next.  The first block is cut from `_LEAVES`."""
    for start in range(0, count, _BLOCK):
        b = min(_BLOCK, count - start)
        low = (1 << 128 * b) - 1
        yield b, _mix_lanes((_IOTA & low) + _spread(start + _GOLDEN, b)) if start else _LEAVES & low


def _state_blocks(h: int, count: int) -> Iterator[tuple[int, int]]:
    """(b, states) for each block of the row states mix(h ^ leaf(i)), i <
    count, packed as `_leaf_blocks` packs the leaves."""
    for b, leaves in _leaf_blocks(count):
        yield b, _mix_lanes(leaves ^ _spread(h, b))


def _key(prefix: KeyPrefix) -> tuple:
    """A table's key prefix as a tuple: a lone part is the prefix (part,)."""
    return prefix if type(prefix) is tuple else (prefix,)


class RandomTape:
    """Stateless source of keyed 64-bit values for one global seed.

    `u64(*key)` returns a uniform 64-bit integer determined entirely by
    `(seed, key)`.  Key parts may be ints (entity ids, draw indices) or
    strings (purpose tags such as "lottery" or "slot-tie").  The tape holds
    only its seed and the state every key starts from: a draw writes nothing.
    """

    __slots__ = ("seed", "_base")

    def __init__(self, seed: int) -> None:
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        self.seed = seed
        self._base = _mix(seed + _GOLDEN)

    def _state(self, key: tuple) -> int:
        """The hash state after `key`, which is `u64(*key)`."""
        h = self._base
        for part in key:
            h = _mix(h ^ _leaf(part))
        return h

    def u64(self, *key: KeyPart) -> int:
        return self._state(key)

    def u64_table(self, prefix: KeyPrefix, count: int) -> list[int]:
        """`[self.u64(*prefix, i) for i in range(count)]`, a block of lanes at
        a time."""
        out: list[int] = []
        for b, states in _state_blocks(self._state(_key(prefix)), count):
            out += _unpack(states, b).tolist()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomTape(seed={self.seed})"


def pair_tables(tape: RandomTape, prefix: KeyPrefix, m: int, n: int) -> tuple[array, array]:
    """The stems `tape.u64(*prefix, x)`, x < m, and the leaves leaf(i), i < n,
    of the keys `tape.u64(*prefix, x, i)` = mix(stems[x] ^ leaves[i])."""
    h = tape._state(_key(prefix))
    stems, leaves = array("Q"), array("Q")
    for b, block in _leaf_blocks(max(m, n)):
        leaves += _unpack(block, b)
        stems += _unpack(_mix_lanes(block ^ _spread(h, b)), b)
    return stems[:m], leaves[:n]


def pair_keys(tables: tuple[array, array], x: int, ids: Sequence[int]) -> list[int]:
    """`[tape.u64(*prefix, x, i) for i in ids]` from the `pair_tables` of the
    prefix, one step per id."""
    if x < 0 or min(ids, default=0) < 0:
        raise IndexError(f"pair ids must be >= 0, got {x} and {list(ids)}")
    stem, leaves = tables[0][x], tables[1]
    out = []
    # `_mix` inline: this loop is on matching's local-query path, and a call
    # per key costs more than the step itself
    for i in ids:
        h = stem ^ leaves[i]
        h = ((h ^ (h >> 30)) * _M1) & _MASK
        h = ((h ^ (h >> 27)) * _M2) & _MASK
        out.append(h ^ (h >> 31))
    return out


def pair_mix(tables: tuple[array, array], xs: Sequence[int], ids: Sequence[int]) -> list[int]:
    """`[tape.u64(*prefix, x, i) for x, i in zip(xs, ids)]` from the
    `pair_tables` of the prefix, a block of pairs mixed at a time."""
    stems, leaves = tables
    if min(xs, default=0) < 0 or min(ids, default=0) < 0:
        raise IndexError("pair ids must be >= 0")
    words = [stems[x] ^ leaves[i] for x, i in zip(xs, ids, strict=True)]
    keys: list[int] = []
    for start in range(0, len(words), _BLOCK):
        block = words[start : start + _BLOCK]
        keys += _unpack(_mix_lanes(_pack(block)), len(block)).tolist()
    return keys


def attempt_table(tape: RandomTape, prefix: KeyPrefix, count: int) -> array:
    """The first attempt `tape.u64(*prefix, i, 0)` of `derive_uniform(tape,
    (*prefix, i), n)`, whatever n, for i in range(count)."""
    out, first = array("Q"), _LEAF[0]
    for b, states in _state_blocks(tape._state(_key(prefix)), count):
        out += _unpack(_mix_lanes(states ^ _spread(first, b)), b)
    return out


def uniform_first(word: int, n: int) -> int | None:
    """`derive_uniform` into [0, n), n >= 1, from its first attempt `word`, or
    None if the draw rejects it (as every n above 2^64, drawing wider words)."""
    return word % n if word < (1 << 64) - (1 << 64) % n else None


def _limit(n: int) -> tuple[int, int]:
    """The 64-bit words per attempt of a draw into [0, n), n >= 1, and its
    rejection limit: the largest multiple of n that the words hold."""
    words = -(-max(1, (n - 1).bit_length()) // 64)
    span = 1 << (64 * words)
    return words, span - span % n


def _draw(s: int, words: int, limit: int) -> int:
    """The first value below `limit` over attempts 0, 1, ... after state `s`, each
    of `words` 64-bit digits: the states after (attempt,) and (attempt, i)."""
    attempt = 0
    while True:
        v = h = _mix(s ^ _leaf(attempt))
        for i in range(1, words):
            v |= _mix(h ^ _leaf(i)) << (64 * i)
        if v < limit:
            return v
        attempt += 1


def _rows(
    states: Sequence[int], firsts: Sequence[Sequence[int]], n: int, k: int
) -> list[tuple[int, ...]]:
    """One row of k distinct values from [0, n) per hash state h, given its
    first draws (indices 0..len(first)-1, at most k): their first
    occurrences in index order, then draw idx = len(first), len(first)+1, ...
    per key, the first value below the limit over attempts after the state
    (h, idx), reduced mod n, dropped if the row already holds it."""
    rows = []
    for h, first in zip(states, firsts):
        row = list(dict.fromkeys(first))
        if len(row) < k:
            words, limit = _limit(n)
            seen = set(row)
            idx = len(first)
            while len(row) < k:
                v = _draw(_mix(h ^ _leaf(idx)), words, limit) % n
                idx += 1
                if v not in seen:
                    seen.add(v)
                    row.append(v)
        rows.append(tuple(row))
    return rows


def _first_draws(d: int, b: int, n: int) -> list[int]:
    """The value in [0, n) that each of the b draw states packed in d draws:
    its first attempt when that is below the limit, else `_draw`'s.  Word i
    of an attempt, i >= 1, is one more lane mix of word 0 with leaf(i)."""
    words, limit = _limit(n)
    first = _mix_lanes(d ^ _spread(_leaf(0), b))
    vals = _unpack(first, b).tolist()
    for i in range(1, words):
        high = _unpack(_mix_lanes(first ^ _spread(_leaf(i), b)), b)
        vals = [v | w << 64 * i for v, w in zip(vals, high)]
    if max(vals) >= limit:
        states = _unpack(d, b)
        vals = [v if v < limit else _draw(s, words, limit) for v, s in zip(vals, states)]
    return [v % n for v in vals]


def _table_rows(
    tape: RandomTape, prefix: KeyPrefix, count: int, n: int, k: int, distinct: bool
) -> list[tuple[int, ...]]:
    """Row i holds draws t < k of the row stream under (*prefix, i), a block
    of rows at a time: lane j of a block draws its row's draw t, for each t.
    A distinct row whose k draws repeat a value, found by comparing the
    block's draw columns pair by pair, is completed per key by `_rows`."""
    if k <= 0:
        return [()] * count
    rows: list[tuple[int, ...]] = []
    for b, s in _state_blocks(tape._state(_key(prefix)), count):
        draws = (_mix_lanes(s ^ _spread(_leaf(t), b)) for t in range(k))
        cols = [_first_draws(d, b, n) for d in draws]
        block = list(zip(*cols))
        redo: set[int] = set()
        if distinct:  # the rows j where draws t and u agree, for each t < u
            for t, u in combinations(cols, 2):
                redo.update(compress(range(b), map(eq, t, u)))
        if redo:
            states = _unpack(s, b)
            firsts = [block[j] for j in redo]
            for j, row in zip(redo, _rows([states[j] for j in redo], firsts, n, k)):
                block[j] = row
        rows += block
    return rows


def derive_uniform(tape: RandomTape, key: Sequence[KeyPart], n: int) -> int:
    """Unbiased uniform integer in [0, n), keyed by `key`.

    Uses rejection sampling on the top of the 64-bit range (of as many
    64-bit words as n needs); the attempt counter is the key's last part, so
    retries are themselves deterministic.
    """
    if n <= 0:
        raise ValueError(f"range must be positive, got {n}")
    return _draw(tape._state(tuple(key)), *_limit(n)) % n


def uniform_table(tape: RandomTape, prefix: KeyPrefix, count: int, n: int) -> tuple[int, ...]:
    """`derive_uniform(tape, (*prefix, i), n)` for i in range(count): draw i
    of the row stream under the prefix."""
    if n <= 0:
        raise ValueError(f"range must be positive, got {n}")
    vals: list[int] = []
    for b, states in _state_blocks(tape._state(_key(prefix)), count):
        vals += _first_draws(states, b, n)
    return tuple(vals)


def uniform_rows(
    tape: RandomTape, prefix: KeyPrefix, count: int, n: int, k: int
) -> list[tuple[int, ...]]:
    """Row i holds `derive_uniform(tape, (*prefix, i, t), n)` for t in
    range(k), for i in range(count): k draws with replacement per row."""
    if n <= 0:
        raise ValueError(f"range must be positive, got {n}")
    return _table_rows(tape, prefix, count, n, k, False)


def sample_without_replacement(
    tape: RandomTape, key: Sequence[KeyPart], n: int, count: int
) -> list[int]:
    """`count` distinct uniform values from [0, n), in draw order.

    Draw idx is `derive_uniform(tape, (*key, idx), n)`.  Duplicates are
    rejected and redrawn under the next draw index, so the result for a
    given key never depends on how many draws other keys made.  Draws
    0..count-1 are `uniform_table(tape, key, count, n)`, on the lanes; only
    the redraws go per key.
    """
    if count > n:
        raise ValueError(f"cannot draw {count} distinct values from range {n}")
    key = tuple(key)
    first = uniform_table(tape, key, count, n) if count > 0 else ()
    return list(_rows([tape._state(key)], [first], n, count)[0])


def sample_table(
    tape: RandomTape, prefix: KeyPrefix, count: int, n: int, k: int
) -> list[tuple[int, ...]]:
    """Row i is `sample_without_replacement(tape, (*prefix, i), n, k)`, for i
    in range(count)."""
    if k > n:
        raise ValueError(f"cannot draw {k} distinct values from range {n}")
    return _table_rows(tape, prefix, count, n, k, True)
