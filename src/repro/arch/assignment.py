"""Exact minimum-cost assignment for the L2-to-MC mappings.

A pure-Python port of the shortest-augmenting-path solver behind SciPy's
``linear_sum_assignment`` (D. F. Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016).  The port keeps SciPy's
operation order so that it returns the same assignment, ties included:

* rows are augmented in order, one shortest augmenting path each;
* the list of unscanned columns starts reversed (a constant matrix
  solves to the identity) and shrinks by swap-removal;
* among columns at the lowest reduced cost the scan prefers one that is
  still unassigned, so the path ends as early as possible;
* the duals are updated row-side first, then column-side, and each
  float is computed with the same operands in the same order;
* a tall matrix is solved transposed and the result sorted by row.

The matrices here are small (at most cores x cores, 64 x 64 on an 8x8
mesh), so the cubic worst case costs milliseconds, and no process pays
for importing SciPy.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

_INF = float("inf")


def linear_sum_assignment(cost: Sequence[Sequence[float]]
                          ) -> Tuple[List[int], List[int]]:
    """Minimum-cost matching of rows to columns of ``cost``.

    Returns ``(rows, cols)``: ``min(n_rows, n_cols)`` pairs with rows in
    increasing order, the same pairs SciPy returns.  Raises
    :class:`ValueError` when an entry is NaN or ``-inf`` or when every
    complete matching uses an infinite entry.
    """
    matrix = [[float(c) for c in row] for row in cost]
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    if any(len(row) != nc for row in matrix):
        raise ValueError("cost matrix rows differ in length")
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        matrix = [list(col) for col in zip(*matrix)]
        nr, nc = nc, nr
    for row in matrix:
        for c in row:
            if c != c or c == -_INF:
                raise ValueError("matrix contains invalid numeric entries")

    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row (Dijkstra on reduced costs).
        shortest = [_INF] * nc
        scanned_rows = []
        scanned_cols = []
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows.append(i)
            row = matrix[i]
            ui = u[i]
            index = -1
            lowest = _INF
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            if min_val == _INF:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols.append(j)
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        # Each dual is written once, so visiting order is immaterial.
        u[cur_row] += min_val
        for i in scanned_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in scanned_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in order], order
    return list(range(nr)), col4row
