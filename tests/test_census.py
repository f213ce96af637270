"""ROADMAP's design census, recomputed: a change that moves either figure
updates the pin here and the census in ROADMAP.md together."""

from __future__ import annotations

import ast
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "localmech").glob("*.py"))


def test_defaulted_parameter_census():
    # ROADMAP's one-liner: defaulted positional and keyword-only parameters
    # of every function and method
    count = sum(
        len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
        for p in SOURCES
        for f in ast.walk(ast.parse(p.read_text()))
        if isinstance(f, ast.FunctionDef)
    )
    assert count == 32


def test_mode_and_family_comparison_census():
    # ROADMAP's `grep -cE` over src/, summed: lines that compare a mode or
    # family name
    pattern = re.compile(r"(mode|family)[a-z_]*\)? *(==|!=|not in| in )")
    count = sum(
        sum(1 for line in p.read_text().splitlines() if pattern.search(line)) for p in SOURCES
    )
    assert count == 15


def _calls(name: str) -> int:
    """Calls in `src/` of a function named `name`, bare or as an attribute."""
    return sum(
        isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        == name
        for p in SOURCES
        for node in ast.walk(ast.parse(p.read_text()))
    )


def test_engine_call_site_census():
    # ROADMAP's census of the two dependency engines' callers:
    # `upward_closure` in rsd_local, uduv_local and scheduling's one replay,
    # _job_local; `resolve` in _bid_local, _bid_run and _RejectionRounds._attempt
    assert _calls("upward_closure") == 3
    assert _calls("resolve") == 3


def test_only_probes_builds_a_view():
    # every local query opens its view through `probes.query_view`, which
    # checks the id by `is_id` and states the free own record once
    found = [
        p.name
        for p in SOURCES
        if p.name != "probes.py" and "MemoView(" in p.read_text()
    ]
    assert not found, found


def _functions():
    """(qualified name, node) of every module-level function and method of `src/`."""
    for p in SOURCES:
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{p.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        yield f"{p.stem}.{node.name}.{f.name}", f


def _states_the_id_rule(f: ast.FunctionDef) -> bool:
    """Whether `f` tests one name both for `type(x) is int` (or `is not`) and
    for `0 <= x < count` against a count that is not a literal."""
    typed, ranged = set(), set()
    for node in ast.walk(f):
        if not isinstance(node, ast.Compare):
            continue
        left, ops, rest = node.left, node.ops, node.comparators
        if (
            isinstance(left, ast.Call) and getattr(left.func, "id", None) == "type"
            and len(left.args) == 1 and isinstance(left.args[0], ast.Name)
            and isinstance(ops[0], (ast.Is, ast.IsNot)) and getattr(rest[0], "id", None) == "int"
        ):
            typed.add(left.args[0].id)
        if (
            isinstance(left, ast.Constant) and left.value == 0
            and [type(op) for op in ops] == [ast.LtE, ast.Lt]
            and isinstance(rest[0], ast.Name) and not isinstance(rest[1], ast.Constant)
        ):
            ranged.add(rest[0].id)
    return bool(typed & ranged)


def test_the_id_rule_is_stated_once():
    # "an id is an int, not a bool, in [0, count)" is `probes.is_id`, which
    # every caller-given id goes through; the oracle's build pass keeps its
    # own two-message check inline, per entry
    found = [name for name, f in _functions() if _states_the_id_rule(f)]
    assert found == ["probes.is_id", "probes.AdjacencyOracle.__init__"], found


def test_the_oracle_is_its_two_tables():
    # no checked single-record read: a global run subscripts `rows` and
    # `cols`, and a local query reads through its `MemoView`
    oracle = next(
        node
        for node in ast.parse((SOURCES[0].parent / "probes.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "AdjacencyOracle"
    )
    methods = [f.name for f in oracle.body if isinstance(f, ast.FunctionDef)]
    assert methods == ["__init__"], methods
    slots = next(
        ast.literal_eval(s.value)
        for s in oracle.body
        if isinstance(s, ast.Assign) and s.targets[0].id == "__slots__"
    )
    assert slots == ("n", "m", "rows", "cols"), slots


def test_no_module_imports_numpy_or_scipy():
    # the exact solvers are pure Python; keep the dependencies from creeping back
    found = []
    for p in SOURCES:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{p.name}: {n}" for n in names if n.split(".")[0] in ("numpy", "scipy")]
    assert not found, found


def test_no_module_imports_a_private_name_of_another():
    # a module's private names (the splitmix constants of randomness.py
    # among them) stay behind its functions
    found = []
    for p in SOURCES:
        for node in ast.walk(ast.parse(p.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            # a relative import, or an absolute one of the package
            if node.level or node.module.split(".")[0] == "localmech":
                found += [f"{p.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, found
