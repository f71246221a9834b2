"""Package exports that import their defining submodule on first use.

A package ``__init__`` names the submodule that defines every public
name it exports; PEP 562's module ``__getattr__`` imports that submodule
the first time the name is read. Importing a package therefore costs
only what its caller goes on to use: the lint command and the service
clients start without numpy, scipy or the simulator (DESIGN.md §19)::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".stability": ("rsd", "stability_table"),
        ".pauses": ("PauseStats", "pause_stats"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*, whose public
    names *exports* lists under the submodule (relative to *package*)
    that defines them."""
    where: Dict[str, str] = {name: module for module, names in exports.items()
                             for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        # Later reads find the name in the package and skip this hook.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
