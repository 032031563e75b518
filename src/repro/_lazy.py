"""PEP 562 lazy package exports.

A package ``__init__`` that re-exports names from its submodules would
otherwise import every submodule — and everything those import — the
first time anything under the package is touched: importing
``repro.frontend.source`` would load the lexer, preprocessor and
parser. :func:`lazy_exports` builds the module-level ``__getattr__`` /
``__dir__`` pair that imports a name's submodule on first access
instead, so a one-shot warm check loads only the modules it uses.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """Return ``(__getattr__, __dir__)`` for the package *namespace*.

    *exports* maps each public name to the relative module defining it;
    a name mapped to ``"." + name`` is that submodule itself. A resolved
    value is stored into *namespace*, so later lookups bypass the hook.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(target, package)
        value = module if target == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
