"""The import graph: a server loads the serving stack only, packages stay whole.

Every package ``__init__`` but :mod:`repro.telemetry` resolves its public
names on first access (:mod:`repro._lazy`), and the layers import downwards
only, so a process that serves — ``tools/serve.py``, the ledger's launcher —
never loads the compiler, the accelerator model (:mod:`repro.arch`),
``analysis``, ``platforms``, :mod:`repro.core` or the chaos and resilient
clients.  Each
closure check runs in a fresh interpreter, where nothing else has imported
them first.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.arch",
    "repro.compiler",
    "repro.core",
    "repro.platforms",
    "repro.runtime",
    "repro.tfhe",
    "repro.utils",
]

#: What a serving process never loads: the compiler, the paper's analysis and
#: platform models, the MATCHA core (integer FFT, BKU, pipeline, accelerator
#: facade — a BKU key imports :mod:`repro.core.bku` when it registers), the
#: accelerator model (its data-flow graphs, architecture, scheduler, energy
#: and memory — a circuit's levels come from :meth:`Circuit.levels`), the
#: test clients, and ``numpy.random`` (a server draws no randomness).
NOT_SERVING = (
    "repro.analysis",
    "repro.arch",
    "repro.compiler",
    "repro.core",
    "repro.platforms",
    "repro.runtime.chaos",
    "repro.runtime.resilient",
    "numpy.random",
)


def loaded_after(statement: str) -> list:
    """The ``repro`` and ``numpy.random`` modules a fresh interpreter holds
    after running ``statement``."""
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith(('repro', 'numpy.random')))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120.0,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def not_serving(modules: list) -> list:
    return [m for m in modules if m.startswith(NOT_SERVING)]


def serve_tool_imports() -> str:
    """``tools/serve.py``'s ``repro`` imports, as one statement."""
    tree = ast.parse((ROOT / "tools" / "serve.py").read_text())
    return "\n".join(
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    )


def test_the_server_and_workers_load_the_serving_stack_only():
    loaded = loaded_after("import repro.runtime.server, repro.runtime.workers")
    assert "repro.runtime.server" in loaded and "repro.runtime.workers" in loaded
    assert not_serving(loaded) == []


def test_the_serve_tool_loads_the_serving_stack_only():
    statement = serve_tool_imports()
    assert "repro.runtime.server" in statement
    assert not_serving(loaded_after(statement)) == []


def test_tfhe_builds_on_no_higher_layer():
    """``tfhe`` ← ``core`` ← ``runtime``: every ``repro.tfhe`` module loads
    without :mod:`repro.core`, :mod:`repro.runtime` or any :mod:`repro.arch`
    module."""
    modules = sorted(p.stem for p in (SRC / "repro" / "tfhe").glob("*.py") if p.stem != "__init__")
    loaded = loaded_after("\n".join(f"import repro.tfhe.{m}" for m in modules))
    assert [m for m in loaded if m.startswith(("repro.core", "repro.runtime"))] == []
    assert not_serving(loaded) == []


def test_importing_a_package_loads_none_of_its_submodules():
    loaded = loaded_after("import " + ", ".join(PACKAGES))
    assert sorted(loaded) == sorted([*PACKAGES, "repro._lazy"])


# --------------------------------------------------------------------------- #
# every public name, resolved lazily, is the object its submodule defines     #
# --------------------------------------------------------------------------- #


def _bound_names(path: pathlib.Path) -> set:
    """Names a module binds at top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definers() -> dict:
    """Each top-level name → the modules under ``src/repro`` that define it."""
    definers: dict = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for name in _bound_names(path):
            definers.setdefault(name, []).append(_module_name(path))
    return definers


DEFINERS = _definers()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_its_defining_submodules_object(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        definers = [
            d for d in DEFINERS.get(name, []) if d == package or d.startswith(package + ".")
        ]
        assert len(definers) == 1, (name, definers)
        assert getattr(module, name) is getattr(importlib.import_module(definers[0]), name)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_public_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}' has no attribute 'no_such_name'"):
        module.no_such_name
    assert not hasattr(module, "__no_such_dunder__")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)
    assert namespace["FheContext"] is importlib.import_module("repro.runtime.context").FheContext


def test_a_submodule_is_imported_on_first_attribute_access():
    loaded = loaded_after("import repro\nrepro.tfhe.gates.BatchGateEvaluator")
    assert "repro.tfhe.gates" in loaded and "repro.compiler" not in loaded
