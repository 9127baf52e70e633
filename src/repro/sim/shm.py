"""Zeroed counters left where the removed shared-memory artifact plane was.

``perfbench/workloads.py`` still resets and reads them around its
``sweep`` workload, so these two functions stay, always reporting zero.
"""

from typing import Dict


def shm_stats() -> Dict[str, int]:
    return {"published": 0, "bytes": 0, "attached": 0}


def reset_shm_stats() -> None:
    pass
