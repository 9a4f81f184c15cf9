"""Every balltrace name the benchmark harness reads exists.

perfbench/ imports names from the package, reads module attributes
(`membership.MAX_ESCALATIONS`) and wraps functions by name
(`tr.calls(sphere, "_chunk", ...)`).  The suite does not collect perfbench/,
so this test parses its sources with stdlib `ast` and checks each name: a
library edit that breaks the benchmark fails here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from balltrace import membership
from balltrace.generators import random_nonmember_poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def benchmark_names(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs that a source reads from balltrace."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> balltrace module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "balltrace":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "balltrace":
            for alias in node.names:
                names.add((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    # `for module in (membership, polynomials): tr.calls(module, ...)`
    loops: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)
                and all(isinstance(e, ast.Name) and e.id in modules for e in node.iter.elts)):
            loops[node.target.id] = [modules[e.id] for e in node.iter.elts]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "calls" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            local = node.args[0].id
            targets = [modules[local]] if local in modules else loops.get(local, [])
            names.update((module, node.args[1].value) for module in targets)
    return names


def missing(names: set[tuple[str, str]]) -> list[str]:
    # `from balltrace import cli` imports the submodule, which need not be an
    # attribute of the package before that
    return sorted(
        f"{module}.{name}" for module, name in names
        if not (_is_module(f"{module}.{name}") or hasattr(importlib.import_module(module), name))
    )


def test_every_name_the_benchmark_reads_exists():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= benchmark_names(path.read_text(encoding="utf-8"))
    # the census reaches all three kinds of read
    assert {
        ("balltrace.polynomials", "mc_moment"),
        ("balltrace.membership", "MAX_ESCALATIONS"),
        ("balltrace.sphere", "_chunk"),
        ("balltrace.transforms", "monomial_norm_sq"),
    } <= names
    assert missing(names) == []


def test_guard_catches_a_missing_name():
    source = (
        "from balltrace import membership, sphere\n"
        "from balltrace.sphere import SphereSampler, _gone\n"
        "membership.NO_SUCH_CONSTANT\n"
        "for module in (membership, sphere):\n"
        "    tr.calls(module, 'no_such_function')\n"
    )
    assert missing(benchmark_names(source)) == [
        "balltrace.membership.NO_SUCH_CONSTANT",
        "balltrace.membership.no_such_function",
        "balltrace.sphere._gone",
        "balltrace.sphere.no_such_function",
    ]


def test_sweep_reports_go_through_check_condition_and_moment(monkeypatch):
    """The call path whose calls the benchmark's traced certify run counts.

    perfbench/test_perfbench.py wraps membership.check_condition and
    membership.moment and needs one check_condition call per sweep report,
    each reaching moment.  This guard goes with the benchmark revision that
    counts work from the program itself (ROADMAP item 1).
    """
    calls = {"check_condition": 0, "moment": 0}
    for name in calls:
        original = getattr(membership, name)

        def spy(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(membership, name, spy)
    f = random_nonmember_poly(np.random.default_rng(3), 4, 5, n_terms=12)
    reports = membership.sweep(f, f.max_degree() + 1)
    assert calls["check_condition"] == len(reports) > 0
    assert calls["moment"] >= calls["check_condition"]
