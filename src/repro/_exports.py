"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares its public names once, in a table from
each defining module to the names it re-exports, and a name's module is
imported only when the name is first read. Importing one module of a
package then costs that module's own imports, not every re-export's:
``import repro.serve.server`` loads no numpy, simulation engine or
experiment registry.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package``, derived from ``table``.

    ``table`` maps a defining module to the names the package re-exports
    from it. The first read of a name imports its module and stores the
    value in the package namespace, so later reads are plain lookups.
    """
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(origin), __getattr__
