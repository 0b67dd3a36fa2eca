"""Package attributes imported on first use (PEP 562).

A package ``__init__`` keeps its tooling modules (reports, exports,
persistence, fsck, ...) out of every process that only runs jobs::

    __getattr__ = lazy_attributes(__name__, globals(), {
        "report": "report",                 # the submodule itself
        "load_spec": "spec.load_spec",      # a name inside a submodule
    })

The first access imports the submodule and binds the value in the
package namespace, so later lookups never reach ``__getattr__`` again.
``from package import *`` resolves ``__all__`` through it too.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict


def lazy_attributes(
    package: str, namespace: Dict[str, object], names: Dict[str, str]
) -> Callable[[str], object]:
    """A module ``__getattr__`` resolving ``names``: attribute ->
    ``"submodule"`` or ``"submodule.attribute"``, relative to
    ``package``."""

    def __getattr__(name: str) -> object:
        target = names.get(name)
        if target is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module, _, attr = target.partition(".")
        value = importlib.import_module(f"{package}.{module}")
        if attr:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    return __getattr__
