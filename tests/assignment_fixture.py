"""Reference layouts for the in-repo assignment solver.

:func:`preset_layouts` resolves every valid L2-to-MC mapping preset --
mesh 4x4/4x8/8x8/16x16 x placement P1/P2/P3 x 2/4/8/16 MCs x
M1/M2/voronoi -- to its clusters ``(cores, mc_indices)``, and the
shared-L2 home-bank slots of every preset on the 8x8 mesh the paper's
configurations use (``assign_shared_slots``, whose stuck-core matching
is the third assignment call site).

Run as a script, it regenerates ``assignment_fixture.json`` with SciPy's
``linear_sum_assignment`` swapped in for the in-repo one, so the
committed fixture records SciPy's answers::

    PYTHONPATH=src python tests/assignment_fixture.py

``tests/test_assignment.py`` compares the in-repo solver against the
fixture without SciPy.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "assignment_fixture.json")
MESHES = ((4, 4), (4, 8), (8, 8), (16, 16))
PLACEMENTS = ("P1", "P2", "P3")
MC_COUNTS = (2, 4, 8, 16)
PRESETS = ("M1", "M2", "voronoi")
#: The mesh of ``MachineConfig.scaled_default()``, on which the shared-L2
#: runs of the paper's configurations place their home banks.
SHARED_MESH = (8, 8)


def preset_layouts() -> Dict[str, Dict[str, List]]:
    """``{"mappings": {key: clusters}, "shared_slots": {key: slots}}``
    with keys ``"WxH/placement/num_mcs/preset"``; combinations that the
    presets reject (uneven tiling or MC split) are left out."""
    from repro.arch.config import MachineConfig
    from repro.core.customization import assign_shared_slots
    from repro.sim.executor import resolve_mapping

    mappings: Dict[str, List] = {}
    shared: Dict[str, List[int]] = {}
    for width, height in MESHES:
        for placement in PLACEMENTS:
            for num_mcs in MC_COUNTS:
                config = MachineConfig.scaled_default().with_(
                    mesh_width=width, mesh_height=height,
                    mc_placement=placement, num_mcs=num_mcs)
                for preset in PRESETS:
                    try:
                        mapping = resolve_mapping(config, preset)
                    except ValueError:
                        continue
                    key = f"{width}x{height}/{placement}/{num_mcs}/{preset}"
                    mappings[key] = [[list(c.cores), list(c.mc_indices)]
                                     for c in mapping.clusters]
                    if (width, height) == SHARED_MESH:
                        shared[key] = assign_shared_slots(
                            mapping, mapping.num_threads)
    return {"mappings": mappings, "shared_slots": shared}


def _scipy_solver(cost):
    import numpy as np
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(np.asarray(cost, dtype=float))
    return rows.tolist(), cols.tolist()


def main() -> int:
    from repro.arch import clustering
    from repro.core import customization
    clustering.linear_sum_assignment = _scipy_solver
    customization.linear_sum_assignment = _scipy_solver
    layouts = preset_layouts()
    with open(FIXTURE, "w") as fh:
        fh.write("{\n")
        for i, section in enumerate(("mappings", "shared_slots")):
            fh.write(f'"{section}": {{\n')
            entries = sorted(layouts[section].items())
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                for k, v in entries))
            fh.write("\n}" + (",\n" if i == 0 else "\n"))
        fh.write("}\n")
    print(f"{FIXTURE}: {len(layouts['mappings'])} mappings, "
          f"{len(layouts['shared_slots'])} shared-L2 slot lists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
