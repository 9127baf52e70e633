"""Lazy package facades (PEP 562): a name -> module table.

A package ``__init__`` declares which module defines each public name;
the module is imported on the first attribute access and the value is
cached in the package namespace, so importing a facade costs only what
the caller goes on to touch.  A name listed under the package's own
submodule of that name (``"repro.api": ("api", ...)``) exports the
submodule itself.

Unknown names raise :class:`AttributeError`: that keeps ``from package
import submodule`` working, because the import system only falls back
to loading the submodule when the attribute lookup fails.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], list]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``, given a
    ``module -> exported names`` table."""
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        try:
            module_name = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        module = importlib.import_module(module_name)
        value = (module if module_name == f"{package}.{name}"
                 else getattr(module, name))
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
