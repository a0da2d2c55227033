"""References the benchmark checks the program against.

Nothing here is a saved copy of the program's output. The Table I row is
quoted from the paper; the geometric bound, the radius and the out-degrees
are recomputed from coordinates and parent arrays with plain numpy.
"""

from __future__ import annotations

import numpy as np

#: Table I of Riabov, Liu and Zhang, "Overlay Multicast Trees of Minimal
#: Delay", ICDCS 2004: the n = 1,000,000 row, uniform points in the unit
#: disk with the source at the centre, averaged over the paper's trials.
#: Keyed by out-degree: (rings k, maximum delay, equation (7) bound).
PAPER_TABLE1_1M = {
    6: {"rings": 15, "delay": 1.012, "eq7_bound": 1.15},
    2: {"rings": 15, "delay": 1.022, "eq7_bound": 1.22},
}
#: How far one measured radius may sit from the paper's trial average.
DELAY_TOLERANCE = 0.01


def geometric_lower_bound(points: np.ndarray, source: int) -> float:
    """max ||p - s||: no tree can deliver faster than straight lines."""
    diff = points - points[source]
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).max())


def radius_from_parents(points: np.ndarray, parent: np.ndarray, root: int) -> float:
    """Tree radius recomputed from the parent array by pointer jumping.

    Each node's delay is the sum of the Euclidean edge lengths on its
    path to ``root``. Raises ``ValueError`` if the pointers do not reach
    the root within 64 doublings (a cycle or a detached node).
    """
    parent = np.asarray(parent, dtype=np.int64)
    diff = points - points[parent]
    delay = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    delay[root] = 0.0
    hop = parent.copy()
    hop[root] = root
    for _ in range(64):
        if (hop == root).all():
            return float(delay.max())
        delay = delay + delay[hop]
        hop = hop[hop]
    raise ValueError("parent pointers never reach the root")


def out_degrees(parent: np.ndarray, root: int) -> np.ndarray:
    """Children per node, counted straight from the parent array."""
    parent = np.asarray(parent, dtype=np.int64)
    mask = np.arange(parent.size) != root
    return np.bincount(parent[mask], minlength=parent.size)


def disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` fresh points uniform in the unit disk (for joins)."""
    radius = np.sqrt(rng.random(count))
    angle = rng.random(count) * 2.0 * np.pi
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two coordinate arrays hold the same rows in any order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    order_a = np.lexsort(a.T[::-1])
    order_b = np.lexsort(b.T[::-1])
    return bool(np.array_equal(a[order_a], b[order_b]))
