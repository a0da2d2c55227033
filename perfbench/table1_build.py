"""Workload ``table1-build``: the paper's Table I at n = 1,000,000.

In-process, no service. One uniform unit-disk cloud per run (its seed
comes from ``--seed``), source at the centre, built with ``repro.build``
at out-degree 6 and out-degree 2 in alternating rounds until the run's
time is up. The first build at each degree is checked in full; every
later build at that degree must reproduce it exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from harness import OperationFailed, Run, median, self_peak_rss_mb
from references import (
    DELAY_TOLERANCE,
    PAPER_TABLE1_1M,
    geometric_lower_bound,
    radius_from_parents,
)

N = 1_000_000
DEGREES = (6, 2)
SETUP_REPEATS = 5
#: The timings reported as primary_p50_ms and secondary_p50_ms.
PRIMARY, SECONDARY = "build_p50_ms", "binary_build_p50_ms"


def cloud_seed(seed: int) -> int:
    """The point-cloud seed a run with ``--seed seed`` builds over."""
    return 1_000 + int(seed)


def _count_assign_calls(counter: list[int]):
    """Wrap the grid ``assign`` methods to count calls; returns undo."""
    from repro.core.grid import PolarGrid
    from repro.core.grid_nd import PolarGridND

    saved = [(cls, cls.assign) for cls in (PolarGrid, PolarGridND)]

    def wrap(original):
        def assign(self, *args, **kwargs):
            counter[0] += 1
            return original(self, *args, **kwargs)

        return assign

    for cls, original in saved:
        cls.assign = wrap(original)

    def undo():
        for cls, original in saved:
            cls.assign = original

    return undo


def run(bench: Run) -> tuple[dict, dict]:
    """Measure and check; returns (named timings in ms, layer metrics)."""
    import repro
    from repro.analysis.oracle import check_tree
    from repro.workloads.generators import unit_disk

    seed = cloud_seed(bench.seed)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        points = unit_disk(N, seed=seed)
        bench.setup_seconds.append(time.perf_counter() - t0)
    bench.notes["cloud_seed"] = seed

    # One untimed build first, so the timed ones all see a process
    # whose allocator and page tables are already warm.
    t0 = time.perf_counter()
    repro.build(points, 0, "polar-grid", max_out_degree=DEGREES[0])
    bench.notes["warmup_build_s"] = time.perf_counter() - t0
    bench.clear_spans()

    assign_calls = [0]
    calls_per_build: list[int] = []
    undo = _count_assign_calls(assign_calls) if bench.trace else (lambda: None)
    first: dict[int, object] = {}
    repeats_equal = defaultdict(lambda: True)
    try:
        t0 = time.perf_counter()
        while bench.measuring(t0):
            for degree in DEGREES:
                before = assign_calls[0]
                with bench.layer("core.build", degree=degree):
                    result = bench.op(
                        f"build_d{degree}",
                        repro.build,
                        points,
                        0,
                        "polar-grid",
                        max_out_degree=degree,
                    )
                calls_per_build.append(assign_calls[0] - before)
                if degree not in first:
                    first[degree] = result
                else:
                    kept = first[degree].tree
                    repeats_equal[degree] &= bool(
                        result.tree.root == kept.root
                        and np.array_equal(result.tree.parent, kept.parent)
                    )
                del result
    except OperationFailed:
        return {}, {}
    finally:
        undo()
    bench.peak_rss_mb = self_peak_rss_mb()

    lower = geometric_lower_bound(points, 0)
    for degree, result in first.items():
        paper = PAPER_TABLE1_1M[degree]
        tree = result.tree
        report = check_tree(tree, d_max=degree)
        bench.check(f"d{degree}.oracle", report.ok, report.render()[:200])
        bench.check(
            f"d{degree}.rings",
            result.rings == paper["rings"],
            f"k={result.rings}, paper {paper['rings']}",
        )
        radius = radius_from_parents(points, tree.parent, int(tree.root))
        bench.check(
            f"d{degree}.radius_bounds",
            lower <= radius <= paper["eq7_bound"],
            f"{lower:.6f} <= {radius:.6f} <= {paper['eq7_bound']}",
        )
        bench.check(
            f"d{degree}.radius_vs_paper",
            abs(radius - paper["delay"]) <= DELAY_TOLERANCE,
            f"radius {radius:.6f}, paper {paper['delay']}",
        )
        bench.check(
            f"d{degree}.repeats_identical",
            repeats_equal[degree],
            "every later build equals the first",
        )
        bench.notes[f"radius_d{degree}"] = radius
    bench.notes["lower_bound"] = lower

    named = {
        "build_p50_ms": median(bench.samples["build_d6"]) * 1e3,
        "binary_build_p50_ms": median(bench.samples["build_d2"]) * 1e3,
    }
    return named, _layers(bench, calls_per_build) if bench.trace else {}


def _layers(bench: Run, calls_per_build: list[int]) -> dict:
    """Per-layer medians from the ``polar_grid.*`` spans of each build."""
    records = bench.span_records()
    children = defaultdict(list)
    for rec in records:
        children[rec.parent_id].append(rec)
    phases = defaultdict(list)
    for rec in records:
        if rec.name != "polar_grid.build":
            continue
        kids = children[rec.span_id]
        degree = int(rec.attrs.get("degree", 0))
        for kid in kids:
            name = kid.name.split(".", 1)[1]
            if name == "wire_cells" and degree < 6:
                name = "binary_wire_cells"
            phases[name].append(kid.duration * 1e3)
        phases["unspanned"].append(
            (rec.duration - sum(k.duration for k in kids)) * 1e3
        )
    out = {f"core.{name}_ms": median(values) for name, values in phases.items()}
    out["core.grid_assign_calls"] = median(calls_per_build)
    return out
