"""Cold start: a run imports only the layers it runs.

The package facades (``repro``, ``repro.api``, ``repro.sim``,
``repro.core``, ``repro.obs``, ``repro.faults``, ``repro.store``,
``repro.validate``) resolve their names on first use, and the CLI
imports per subcommand.  Each check runs in a fresh interpreter, since
the test process itself has long since imported everything:

* ``import repro`` plus one default ``repro.run``, and ``repro-cli run
  --app swim --optimized``, load none of :data:`NOT_ON_RUN_PATH`;
* every name a facade lists in ``__all__`` resolves, and ``from repro
  import *`` works;
* ``repro.search`` stays the search function even when the
  ``repro.search`` subpackage is imported first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Modules one default run never needs: the sweep engines and their
#: process pool, the search, the service, the network store client,
#: the kernel frontend and the invariant checkers.
NOT_ON_RUN_PATH = (
    "repro.sim.executor", "repro.sim.harness", "repro.sim.sweep",
    "repro.search", "repro.serve", "repro.store.remote",
    "repro.frontend", "repro.validate.checkers", "multiprocessing",
    "concurrent.futures.process", "http.client", "ssl", "email",
    "asyncio",
)

FACADES = ("repro", "repro.api", "repro.sim", "repro.core", "repro.obs",
           "repro.faults", "repro.store", "repro.validate")

_LOADED = """
print(json.dumps(sorted(sys.modules)))
"""

_LIBRARY_RUN = """
import json, sys
import repro
from repro.workloads import build_workload
repro.run(program=build_workload("swim", 0.2))
""" + _LOADED

_CLI_RUN = """
import io, json, sys
from repro.cli import main
assert main(["run", "--app", "swim", "--optimized", "--scale", "0.2"],
            out=io.StringIO()) == 0
""" + _LOADED

_FACADE_NAMES = """
import importlib, json
missing = []
for facade in {facades!r}:
    module = importlib.import_module(facade)
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(facade + "." + name)
namespace = {{}}
exec("from repro import *", namespace)
import repro
missing += [n for n in repro.__all__ if n not in namespace]
print(json.dumps(missing))
"""

_SEARCH_SHADOW = """
import repro.search
from repro.search import run_search
import repro
print(callable(repro.search) and repro.search is repro.api.search)
"""


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _off_path_modules(code: str) -> list:
    """The :data:`NOT_ON_RUN_PATH` modules (or their submodules) loaded
    after running ``code`` in a fresh interpreter."""
    prefixes = tuple(name + "." for name in NOT_ON_RUN_PATH)
    return [name for name in json.loads(_python(code))
            if name in NOT_ON_RUN_PATH or name.startswith(prefixes)]


class TestImportBudget:
    def test_library_run_stays_on_its_path(self):
        assert _off_path_modules(_LIBRARY_RUN) == []

    def test_cli_run_stays_on_its_path(self):
        assert _off_path_modules(_CLI_RUN) == []


class TestFacades:
    def test_every_exported_name_resolves(self):
        code = _FACADE_NAMES.format(facades=FACADES)
        assert json.loads(_python(code)) == []

    def test_unknown_names_raise_attribute_error(self):
        import repro
        import repro.sim
        with pytest.raises(AttributeError):
            repro.no_such_name
        with pytest.raises(AttributeError):
            repro.sim.no_such_name

    def test_submodule_imports_through_facades(self):
        # ``from package import submodule`` falls through the facade's
        # AttributeError to the import system.
        from repro.sim import shm
        from repro.store import remote
        assert shm.__name__ == "repro.sim.shm"
        assert remote.__name__ == "repro.store.remote"

    def test_search_function_survives_subpackage_import(self):
        assert _python(_SEARCH_SHADOW).strip() == "True"
