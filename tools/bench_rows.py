"""Row-by-row gate between two `lcmd bench --out` record CSVs.

    python3 tools/bench_rows.py OLD.csv NEW.csv

Each file holds the `family,n,seed,query,probes,digest` body that `lcmd
bench --out` writes (its `#` comment lines are skipped).  Rows are matched
by (family, n, seed, query).  The gate fails, exit 1, when a row of one
file is missing from the other, when a row's answer digest changed, or
when a row's probe count rose; each such row is printed.  It prints every
row whose probe count fell and the probe totals of both files, and exits 0
when nothing failed.  A file it cannot read as a bench CSV (wrong header,
a short row, a repeated key) exits 2.

Stdlib only.
"""

from __future__ import annotations

import csv
import sys
from typing import Iterable

COLUMNS = ["family", "n", "seed", "query", "probes", "digest"]

Key = tuple[str, int, int, int]


def read_rows(lines: Iterable[str], name: str) -> dict[Key, tuple[int, str]]:
    """(family, n, seed, query) -> (probes, digest) of one bench CSV."""
    reader = csv.reader(line for line in lines if not line.startswith("#"))
    if next(reader, None) != COLUMNS:
        raise ValueError(f"{name}: header is not {','.join(COLUMNS)}")
    rows: dict[Key, tuple[int, str]] = {}
    for row in reader:
        if len(row) != len(COLUMNS):
            raise ValueError(f"{name}: row {','.join(row)!r} has {len(row)} fields")
        family, n, seed, query, probes, digest = row
        key = (family, int(n), int(seed), int(query))
        if key in rows:
            raise ValueError(f"{name}: row {_label(key)} appears twice")
        rows[key] = (int(probes), digest)
    return rows


def _label(key: Key) -> str:
    return ",".join(map(str, key))


def compare(
    old: dict[Key, tuple[int, str]], new: dict[Key, tuple[int, str]]
) -> tuple[list[str], list[str]]:
    """The failures (missing rows, moved digests, rising probes) and the
    rows whose probe count fell, one line each, in key order."""
    failures, fell = [], []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            failures.append(f"missing from new: {_label(key)}")
        elif key not in old:
            failures.append(f"missing from old: {_label(key)}")
        else:
            (p0, d0), (p1, d1) = old[key], new[key]
            if d0 != d1:
                failures.append(f"digest moved: {_label(key)} {d0} -> {d1}")
            if p1 > p0:
                failures.append(f"probes rose: {_label(key)} {p0} -> {p1}")
            elif p1 < p0:
                fell.append(f"probes fell: {_label(key)} {p0} -> {p1}")
    return failures, fell


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_rows.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    try:
        tables = []
        for path in argv:
            with open(path, encoding="utf-8", newline="") as fh:
                tables.append(read_rows(fh, path))
    except (OSError, ValueError) as exc:
        print(f"bench_rows: {exc}", file=sys.stderr)
        return 2
    old, new = tables
    failures, fell = compare(old, new)
    for line in fell + failures:
        print(line)
    total_old = sum(p for p, _ in old.values())
    total_new = sum(p for p, _ in new.values())
    change = f" ({(total_new - total_old) / total_old:+.1%})" if total_old else ""
    print(f"rows: {len(old)} old, {len(new)} new; {len(fell)} fell, {len(failures)} failed")
    print(f"probes: {total_old} -> {total_new}{change}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
