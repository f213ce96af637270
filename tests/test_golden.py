"""Every printed byte pinned: `tools/cli_digest.py` digests each `lcmd`
output, overlaid auction answer and demo stdout of its own command list,
and each digest line must equal the one committed in
`tests/golden/cli_digest.txt`.  A change that means to move a line
regenerates the file (`python3 tools/cli_digest.py >
tests/golden/cli_digest.txt`) and says which lines moved and why."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_digest.txt"


def _tool():
    """`tools/cli_digest.py` as a module (tools/ is no package)."""
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_digest_line_matches_the_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = list(_tool().digest_lines())
    moved = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    moved += [f"- {w}" for w in want[len(got):]] + [f"+ {g}" for g in got[len(want):]]
    assert not moved, "moved digest lines:\n" + "\n".join(moved)
