"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists which submodule defines each public name; the name is
imported on first attribute access and then cached in the package's globals,
so later lookups never reach ``__getattr__``.  Importing a package therefore
loads only the submodules its caller touches — a server process never pays
for the compiler, the accelerator model or the paper's analysis code.
A submodule is reachable as an attribute too (``repro.tfhe.gates`` after
``import repro``), imported on first access like a name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``package``'s ``(__all__, __getattr__, __dir__)``.

    ``table`` maps a submodule (relative to ``package``, e.g. ``".params"``)
    to the public names it defines; ``__all__`` lists them in table order.
    """
    namespace = sys.modules[package].__dict__
    where: Dict[str, str] = {
        name: package + module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name in where:
            value = getattr(importlib.import_module(where[name]), name)
        else:
            value = _submodule(package, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__


def _submodule(package: str, name: str) -> object:
    """``package.name`` imported; ``AttributeError`` if there is no such submodule."""
    qualified = f"{package}.{name}"
    if not name.startswith("__"):
        try:
            return importlib.import_module(qualified)
        except ModuleNotFoundError as exc:
            if exc.name != qualified:
                raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")
