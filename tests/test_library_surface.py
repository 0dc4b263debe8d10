"""The library holds only code that something outside the tests runs.

A definition in ``src/`` — a top-level function or class, or a method — is
*dead* when nothing in ``src/``, ``tools/``, ``examples/`` or
``benchmarks/`` uses its name, except code inside itself or inside other
dead definitions (applied until nothing changes).  A use is an identifier in
the AST (a name, an attribute, an imported name, a keyword argument) or a
string constant shaped like an identifier; docstrings and comments are not
uses, and neither are the ``lazy_exports`` tables of the package
``__init__`` modules.  Dunder methods are called by Python itself and are
not scanned.

Code that only tests reach belongs under ``tests/``: a reference the tests
compare against goes into the ``*_oracle.py`` module they import, anything
else goes with its tests.  :data:`KEEP` names the few dead definitions that
stay, each with the open ROADMAP item that will call it; an entry that gains
a real caller must leave the list.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
from typing import Dict, List, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tools", "examples", "benchmarks")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_ITEM_4 = "ROADMAP item 4: the static noise pass rates digit encodings at submit"
_ITEM_17 = "ROADMAP item 17: the ledger's clients measure each reply's phase error"

#: Dead definitions that stay, by dotted name, with the item that will call them.
KEEP: Dict[str, str] = {
    "repro.tfhe.noise.validate_digit_encoding": _ITEM_4,
    "repro.tfhe.noise.digit_decision_margin": _ITEM_4,
    "repro.tfhe.noise.TfheNoiseModel.digit_budget": _ITEM_4,
    "repro.tfhe.noise.TfheNoiseModel.digit_margin_ok": _ITEM_4,
    "repro.tfhe.noise.TfheNoiseModel.digit_failure_probability": _ITEM_4,
    "repro.tfhe.noise.TfheNoiseModel.gate_input_variance": _ITEM_4,
    "repro.tfhe.noise.TfheNoiseModel.pre_bootstrap_margin_ok": _ITEM_4,
    "repro.tfhe.noise.TfheNoiseModel.fresh_lwe_variance": _ITEM_4,
    "repro.tfhe.lwe.lwe_noise": _ITEM_17,
    "repro.tfhe.torus.torus_distance": _ITEM_17,
}

#: ``(dotted name, path, first line, last line)`` of one definition.
Definition = Tuple[str, str, int, int]


class _Scan(ast.NodeVisitor):
    """Collects the definitions of one ``src/`` module and every use of a name."""

    def __init__(self, path: str, module: str, definitions: List[Definition], uses) -> None:
        self.path, self.module = path, module
        self.definitions, self.uses = definitions, uses
        self.scope: List[Tuple[str, bool]] = []  # (name, is a class)

    def _define(self, node) -> None:
        at_top = not self.scope or (len(self.scope) == 1 and self.scope[0][1])
        dunder = node.name.startswith("__") and node.name.endswith("__")
        if self.module and at_top and not dunder:
            dotted = ".".join([self.module] + [name for name, _ in self.scope] + [node.name])
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            self.definitions.append((dotted, self.path, first, node.end_lineno))
        self.scope.append((node.name, isinstance(node, ast.ClassDef)))
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _use(self, name: str, line: int) -> None:
        self.uses.setdefault(name, []).append((self.path, line))

    def visit_Call(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "lazy_exports"):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id, node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr, node.lineno)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            for part in alias.name.split("."):
                self._use(part, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._use(alias.name, node.lineno)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg:
            self._use(node.arg, node.lineno)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and IDENTIFIER.match(node.value):
            self._use(node.value, node.lineno)


def dead_definitions(root: pathlib.Path = ROOT) -> List[Definition]:
    """Every dead definition under ``root / "src"``, in file and line order."""
    definitions: List[Definition] = []
    uses: Dict[str, List[Tuple[str, int]]] = {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root)
            module = ""
            if top == "src":
                module = ".".join(rel.with_suffix("").parts[1:]).removesuffix(".__init__")
            tree = ast.parse(path.read_text(), str(rel))
            _Scan(str(rel), module, definitions, uses).visit(tree)

    dead: set = set()
    changed = True
    while changed:
        changed = False
        spans: Dict[str, List[Tuple[int, int]]] = {}
        for index in dead:
            _, path, first, last = definitions[index]
            spans.setdefault(path, []).append((first, last))
        for index, (dotted, path, first, last) in enumerate(definitions):
            if index in dead:
                continue
            name = dotted.rsplit(".", 1)[-1]
            live = any(
                not (where == path and first <= line <= last)
                and not any(a <= line <= b for a, b in spans.get(where, ()))
                for where, line in uses.get(name, ())
            )
            if not live:
                dead.add(index)
                changed = True
    return sorted((definitions[i] for i in dead), key=lambda d: (d[1], d[2]))


@functools.lru_cache(maxsize=1)
def _dead_in_repo() -> Tuple[Definition, ...]:
    """One scan of the repository, shared by the tests below."""
    return tuple(dead_definitions())


def test_src_holds_no_code_that_only_tests_reach():
    offenders = [f"{path}:{first} {dotted}" for dotted, path, first, _ in _dead_in_repo()
                 if dotted not in KEEP]
    assert not offenders, (
        "definitions nothing outside tests/ calls — delete them with their tests, "
        "move a reference into its tests/*_oracle.py, or add a KEEP entry naming "
        "the open item that will call them:\n" + "\n".join(offenders)
    )


@pytest.mark.parametrize("dotted", sorted(KEEP))
def test_keep_entry_is_still_dead(dotted):
    """A KEEP entry that gained a caller (or lost its definition) leaves KEEP."""
    assert dotted in {name for name, _, _, _ in _dead_in_repo()}, (
        f"{dotted} is no longer dead (or no longer defined) — drop it from KEEP"
    )


def test_the_scan_sees_a_def_that_nothing_calls(tmp_path):
    """An uncalled function is found even when its package exports it; a
    call from ``tools/`` keeps it and what it calls."""
    for top in SCANNED:
        (tmp_path / top).mkdir()
    package = tmp_path / "src" / "repro"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n\n"
        "__all__, __getattr__, __dir__ = lazy_exports(\n"
        "    __name__, {\".orphan\": (\"orphan\", \"Holder\")}\n"
        ")\n"
    )
    (package / "orphan.py").write_text(
        "def orphan():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "class Holder:\n    def method(self):\n        return 2\n\n"
        "    def __repr__(self):\n        return \"Holder()\"\n"
    )
    run = tmp_path / "tools" / "run.py"
    run.write_text("from repro.orphan import Holder\n\nHolder().method()\n")
    found = [dotted for dotted, _, _, _ in dead_definitions(tmp_path)]
    assert found == ["repro.orphan.orphan", "repro.orphan.helper"]
    run.write_text("from repro.orphan import orphan\n\norphan()\n")
    found = [dotted for dotted, _, _, _ in dead_definitions(tmp_path)]
    assert found == ["repro.orphan.Holder", "repro.orphan.Holder.method"]
