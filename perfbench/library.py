"""Locate and import the localmech sources of the checkout this benchmark sits in.

The benchmark always measures the `src/` tree next to its own directory and
never an installed copy, so a run in a directory without those sources fails
instead of measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs"

if not (SRC / "localmech" / "__init__.py").is_file():
    raise ImportError(f"localmech sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import localmech  # noqa: E402

if Path(localmech.__file__).resolve().parent != (SRC / "localmech").resolve():
    raise ImportError(f"imported localmech from {localmech.__file__}, not from {SRC}")
