"""`tools/bench_rows.py`, the row-by-row gate between two bench record
CSVs, on small fixtures: it passes equal and falling rows and fails a
missing row, a moved digest or a rising probe count."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from localmech import cli

ROOT = Path(__file__).resolve().parent.parent

OLD = """# generated: 2026-01-01T00:00:00
# total-wall-time-s: 0.010
family,n,seed,query,probes,digest
udubv,64,0,3,12,aaaa
udubv,64,0,9,20,bbbb
ksmb,64,1,5,7,cccc
"""


def _tool():
    """`tools/bench_rows.py` as a module (tools/ is no package)."""
    spec = importlib.util.spec_from_file_location("bench_rows", ROOT / "tools" / "bench_rows.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _gate(tmp_path, new: str, old: str = OLD) -> int:
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    return _tool().main([str(tmp_path / "old.csv"), str(tmp_path / "new.csv")])


def test_equal_rows_pass(tmp_path, capsys):
    # comment lines differ between runs and are skipped
    assert _gate(tmp_path, OLD.replace("0.010", "0.020")) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["rows: 3 old, 3 new; 0 fell, 0 failed", "probes: 39 -> 39 (+0.0%)"]


def test_falling_rows_pass_and_are_printed(tmp_path, capsys):
    new = OLD.replace("9,20,bbbb", "9,14,bbbb").replace("5,7,cccc", "5,6,cccc")
    assert _gate(tmp_path, new) == 0
    assert capsys.readouterr().out.splitlines() == [
        "probes fell: ksmb,64,1,5 7 -> 6",
        "probes fell: udubv,64,0,9 20 -> 14",
        "rows: 3 old, 3 new; 2 fell, 0 failed",
        "probes: 39 -> 32 (-17.9%)",
    ]


@pytest.mark.parametrize(
    "new, line",
    [
        (OLD.replace("udubv,64,0,3,12,aaaa\n", ""), "missing from new: udubv,64,0,3"),
        (OLD + "ksmb,64,1,8,4,dddd\n", "missing from old: ksmb,64,1,8"),
        (OLD.replace("12,aaaa", "12,abab"), "digest moved: udubv,64,0,3 aaaa -> abab"),
        (OLD.replace("5,7,cccc", "5,8,cccc"), "probes rose: ksmb,64,1,5 7 -> 8"),
    ],
)
def test_a_missing_moved_or_rising_row_fails(tmp_path, capsys, new, line):
    # a falling row elsewhere does not excuse the failure
    assert _gate(tmp_path, new.replace("9,20,bbbb", "9,19,bbbb")) == 1
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "new, message",
    [
        ("n,family\n", "header is not family,n,seed,query,probes,digest"),
        (OLD + "ksmb,64,1\n", "has 3 fields"),
        (OLD + "ksmb,64,1,5,9,eeee\n", "row ksmb,64,1,5 appears twice"),
        (OLD + "ksmb,sixty,1,6,9,eeee\n", "invalid literal"),
    ],
)
def test_a_file_that_is_no_bench_csv_exits_2(tmp_path, capsys, new, message):
    assert _gate(tmp_path, new) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_gates_two_lcmd_bench_outputs(tmp_path, capsys):
    # the tool reads what `lcmd bench --out` writes
    for name in ("old.csv", "new.csv"):
        argv = ["bench", "udubv", "--n", "16,32", "--seeds", "2", "--queries", "8"]
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert _tool().main([str(tmp_path / "old.csv"), str(tmp_path / "new.csv")]) == 0
    assert "rows: 32 old, 32 new; 0 fell, 0 failed" in capsys.readouterr().out
