"""Every name a library module imports with `from ... import` is used in it,
only `polynomials.py` reads the stored form of a SpherePolynomial, the
decision modules import nothing from the float side's upper layers, and the
certificate checker `tests/certcheck.py` imports from the standard library only.

Stdlib `ast` only.  A name counts as used when it appears as a plain name
anywhere in the module, including inside quoted annotations.  The package
`__init__.py` is excepted: its imports are the public re-exports.

The stored form is the private slots of SpherePolynomial (the denominator D,
the Gaussian-integer parts and the caches built from them), read from its
`__slots__`.  Other modules go through `lines()` and `terms`; an attribute
or a string naming one of those slots is a read.

`membership.py` and `polynomials.py` import nothing from `transforms`,
`kernels` or `generators`, and `membership.py` nothing from `sphere`: the
decision path is exact, and the float side builds on it, not the reverse.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "balltrace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = _used_names(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_catches_an_unused_name():
    source = 'from .exact import ZERO, to_float\n\ndef f(x: "ZERO") -> float:\n    return to_float(x)\n'
    assert unused_imports(source) == []
    assert unused_imports("from .exact import ZERO, to_float\nto_float(1)\n") == ["ZERO"]


def stored_slots() -> set[str]:
    tree = ast.parse((SRC / "polynomials.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SpherePolynomial")
    slots = next(
        n.value for n in cls.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in n.targets)
    )
    return {name for name in ast.literal_eval(slots) if name.startswith("_")}


def stored_slot_reads(source: str, slots: set[str]) -> list[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return sorted(names & slots)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "polynomials.py"), ids=lambda p: p.name
)
def test_only_polynomials_reads_the_stored_form(path):
    assert stored_slot_reads(path.read_text(encoding="utf-8"), stored_slots()) == []


def test_guard_catches_a_stored_slot_read():
    slots = stored_slots()
    assert {"_den", "_parts"} <= slots and "dim" not in slots
    allowed = "lines = f.lines()\nterms = f.terms\nn = f.dim\n"
    assert stored_slot_reads(allowed, slots) == []
    assert stored_slot_reads("parts = f._parts\n", slots) == ["_parts"]
    assert stored_slot_reads('den = getattr(f, "_den")\n', slots) == ["_den"]


CERTCHECK_IMPORTS = {"fractions", "math"}


def imported_modules(source: str) -> set[str]:
    """Every module an import statement names; a relative import counts as "." plus its module.

    `from . import x` names the module ".x".
    """
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            out |= {"." * node.level + alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add("." * node.level + node.module)
    return out


def test_certcheck_imports_nothing_from_balltrace():
    source = (SRC.parent.parent / "tests" / "certcheck.py").read_text(encoding="utf-8")
    assert imported_modules(source) <= CERTCHECK_IMPORTS


def test_guard_catches_a_balltrace_import():
    assert imported_modules("import math\nfrom fractions import Fraction\n") <= CERTCHECK_IMPORTS
    for source in ("import balltrace\n", "from balltrace.exact import ZERO\n", "from . import membership\n",
                   "def f():\n    import balltrace.membership as m\n"):
        assert not imported_modules(source) <= CERTCHECK_IMPORTS


FLOAT_MODULES = {".transforms", ".kernels", ".generators"}
EXACT_LAYERING = {"polynomials.py": FLOAT_MODULES, "membership.py": FLOAT_MODULES | {".sphere"}}


@pytest.mark.parametrize("name", sorted(EXACT_LAYERING))
def test_the_decision_path_imports_no_float_module(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert imported_modules(source) & EXACT_LAYERING[name] == set()


def test_guard_catches_a_float_import():
    forbidden = EXACT_LAYERING["membership.py"]
    assert imported_modules("from .polynomials import moment\nfrom .exact import ZERO\n") & forbidden == set()
    for source in ("from .transforms import cauchy_transform_poly\n", "from . import kernels\n",
                   "from .sphere import SphereSampler\n", "def f():\n    from .generators import random_poly\n"):
        assert imported_modules(source) & forbidden
