"""The in-repo assignment solver behind every L2-to-MC mapping.

``repro.arch.assignment.linear_sum_assignment`` replaces SciPy's solver
of the same name.  It must give the same assignment, ties included, so
that no mapping, layout or ``RunSpec.key()`` result depends on what is
installed:

* every preset mapping and shared-L2 slot assignment matches a fixture
  SciPy produced (``tests/assignment_fixture.py`` regenerates it);
* on small tie-heavy matrices the total cost is the brute-force optimum,
  and, where SciPy is importable, the pairs are SciPy's element for
  element;
* infeasible or invalid matrices raise ``ValueError`` as SciPy does;
* a process that cannot import SciPy still runs end to end, and a
  normal run never imports it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.assignment import linear_sum_assignment
from tests.assignment_fixture import FIXTURE, preset_layouts

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
INF = float("inf")


def _fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _brute_force(cost):
    """Minimum total cost over every complete matching."""
    nr, nc = len(cost), len(cost[0])
    if nr <= nc:
        return min(sum(cost[i][j] for i, j in enumerate(cols))
                   for cols in itertools.permutations(range(nc), nr))
    return min(sum(cost[i][j] for j, i in enumerate(rows))
               for rows in itertools.permutations(range(nr), nc))


#: Square, wide and tall matrices up to 7x7 over a few small integer or
#: half-integer values, so most matrices have many optimal matchings.
tie_heavy = st.tuples(
    st.integers(1, 7), st.integers(1, 7),
    st.sampled_from([(0, 1), (0, 1, 2), (0.0, 0.5, 1.0, 1.5),
                     (1, 2, 3, 5, 8)]),
).flatmap(lambda shape: st.lists(
    st.lists(st.sampled_from(shape[2]), min_size=shape[1],
             max_size=shape[1]),
    min_size=shape[0], max_size=shape[0]))


class TestFixtureParity:
    def test_presets_and_shared_slots_match_scipy_fixture(self):
        assert preset_layouts() == _fixture()

    def test_fixture_covers_every_valid_preset(self):
        fixture = _fixture()
        assert len(fixture["mappings"]) == 138
        assert len(fixture["shared_slots"]) == 36
        # The shared-L2 machine of the paper's configurations.
        assert "8x8/P1/4/M1" in fixture["shared_slots"]


class TestOptimality:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy)
    def test_total_cost_is_brute_force_optimum(self, cost):
        rows, cols = linear_sum_assignment(cost)
        nr, nc = len(cost), len(cost[0])
        assert len(rows) == len(cols) == min(nr, nc)
        assert rows == sorted(set(rows))
        assert len(set(cols)) == len(cols)
        total = sum(cost[i][j] for i, j in zip(rows, cols))
        assert total == _brute_force(cost)

    def test_constant_matrix_solves_to_identity(self):
        assert linear_sum_assignment([[1] * 4] * 4) == (
            [0, 1, 2, 3], [0, 1, 2, 3])

    def test_tall_matrix_rows_sorted(self):
        rows, cols = linear_sum_assignment([[5, 1], [0, 9], [2, 2]])
        assert rows == [0, 1]
        assert cols == [1, 0]

    def test_empty(self):
        assert linear_sum_assignment([]) == ([], [])
        assert linear_sum_assignment([[], []]) == ([], [])


class TestScipyParity:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy)
    def test_pairs_equal_scipy(self, cost):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        import numpy as np
        rows, cols = scipy_optimize.linear_sum_assignment(
            np.asarray(cost, dtype=float))
        assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())

    def test_infinite_entries_match_scipy(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        import numpy as np
        cost = [[INF, 1, 2], [INF, 3, 1], [0, INF, INF]]
        rows, cols = scipy_optimize.linear_sum_assignment(np.asarray(cost))
        assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())


class TestInvalid:
    @pytest.mark.parametrize("cost", [
        [[INF, INF], [1, 2]],
        [[INF, 1], [INF, 2]],
        [[1, INF, INF], [2, INF, INF], [INF, 0, 0]],
    ])
    def test_infeasible_raises(self, cost):
        with pytest.raises(ValueError, match="infeasible"):
            linear_sum_assignment(cost)

    @pytest.mark.parametrize("bad", [math.nan, -INF])
    def test_invalid_entry_raises(self, bad):
        with pytest.raises(ValueError, match="invalid"):
            linear_sum_assignment([[0, 1], [bad, 2]])

    def test_ragged_raises(self):
        with pytest.raises(ValueError):
            linear_sum_assignment([[0, 1], [2]])


_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import repro
from repro import MachineConfig
from repro.sim.executor import resolve_mapping
from repro.workloads import build_workload
program = build_workload("swim", 0.2)
config = MachineConfig.scaled_default()
private = repro.run(program=program, optimized=True)
shared = repro.run(program=program, optimized=True,
                   config=config.with_(shared_l2=True))
mappings = {name: [[list(c.cores), list(c.mc_indices)]
                   for c in resolve_mapping(config, name).clusters]
            for name in ("M1", "M2", "voronoi")}
print(json.dumps({"private": private.metrics.exec_time,
                  "shared": shared.metrics.exec_time,
                  "mappings": mappings}))
"""

_SCIPY_MODULES = """
import sys
import repro
from repro.workloads import build_workload
repro.run(program=build_workload("swim", 0.2), optimized=True)
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
"""


def _python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestWithoutScipy:
    def test_runs_and_mappings_without_scipy(self):
        out = json.loads(_python(_NO_SCIPY))
        assert out["private"] > 0 and out["shared"] > 0
        fixture = _fixture()["mappings"]
        for name, clusters in out["mappings"].items():
            assert clusters == fixture[f"8x8/P1/4/{name}"]

    def test_run_imports_no_scipy(self):
        assert _python(_SCIPY_MODULES).strip() == "[]"
