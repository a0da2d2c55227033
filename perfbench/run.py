"""perfbench: the repository's end-to-end and per-layer benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-build --seed 1 --seconds 25 --trace 0

Workloads: ``table1-build``, ``fleet-fetch``, ``group-churn`` (see
README.md in this directory). With ``--trace 0`` the final line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics instead, the span records
are written to ``perfbench/out/`` and the tracing overhead against the
last untraced run of the same workload is printed.

Exit status is 0 only when the run completed and printed its result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from harness import OUT_DIR, ROOT, Run, host_block, import_program, median

WORKLOADS = ("table1-build", "fleet-fetch", "group-churn")

#: End-to-end metrics every workload reports: (name, unit).
#: primary/secondary name each workload's two timed operations:
#: table1-build: degree-6 build / degree-2 build of 10^6 points;
#: fleet-fetch: summary fetch / full-tree download and decode;
#: group-churn: 10-event update / 2,000-member group admission.
END_TO_END = (
    ("setup_s", "s"),
    ("primary_p50_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_BUILDS = "build_p50_ms, binary_build_p50_ms"
_UPDATE = "update_p50_ms"
#: Per-layer metrics: (name, unit, workload that exercises the layer,
#: end-to-end metric it should move). A layer a workload does not
#: exercise does no work there and reads 0.
PER_LAYER = (
    ("core.cell_layout_ms", "ms", "table1-build", _BUILDS),
    ("core.representatives_ms", "ms", "table1-build", _BUILDS),
    ("core.wire_cells_ms", "ms", "table1-build", "build_p50_ms"),
    ("core.binary_wire_cells_ms", "ms", "table1-build", "binary_build_p50_ms"),
    ("core.delay_pass_ms", "ms", "table1-build", _BUILDS),
    ("core.unspanned_ms", "ms", "table1-build", _BUILDS),
    ("core.grid_assign_calls", "count/build", "table1-build", _BUILDS),
    ("service.shard.route_ms", "ms", "fleet-fetch", "fetch_p50_ms"),
    ("service.core.in_service_ms", "ms", "fleet-fetch", "fetch_p50_ms, fetch_p99_ms"),
    ("workloads.materialize_ms", "ms", "fleet-fetch", "fetch_p50_ms"),
    ("service.cache.key_ms", "ms", "fleet-fetch", "fetch_p50_ms"),
    ("service.cache.hit_ratio", "ratio", "fleet-fetch", "fetch_p50_ms"),
    ("service.cache.lookups", "count", "fleet-fetch", "base of the hit ratio"),
    ("service.server.encode_ms", "ms", "fleet-fetch", "tree_fetch_p50_ms"),
    ("service.client.decode_ms", "ms", "fleet-fetch", "tree_fetch_p50_ms"),
    ("service.wire_ms", "ms", "fleet-fetch", "tree_fetch_p50_ms, fetch_p99_ms"),
    ("service.reply_bytes", "bytes", "fleet-fetch", "tree_fetch_p50_ms"),
    ("overlay.incremental.adopt_ms", "ms", "group-churn", "update_p50_ms"),
    ("overlay.incremental.events_ms", "ms", "group-churn", "update_p50_ms"),
    ("overlay.incremental.to_result_ms", "ms", "group-churn", "update_p50_ms"),
    ("analysis.oracle.incremental_check_ms", "ms", "group-churn", "update_p50_ms"),
    ("overlay.incremental.partial_rebuilds", "count/batch", "group-churn", _UPDATE),
    ("overlay.incremental.full_rebuilds", "count/batch", "group-churn", _UPDATE),
    ("service.core.update_in_service_ms", "ms", "group-churn", "update_p50_ms"),
    ("service.core.admit_in_service_ms", "ms", "group-churn", "admit_p50_ms"),
    ("packing.build_ms", "ms", "group-churn", "admit_p50_ms"),
    ("packing.reserve_ms", "ms", "group-churn", "admit_p50_ms"),
    ("packing.release_ms", "ms", "group-churn", "admit_p50_ms"),
    ("packing.reserved_slots", "count", "group-churn", "admit_p50_ms"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload_module(name: str):
    if name == "table1-build":
        import table1_build as module
    elif name == "fleet-fetch":
        import fleet_fetch as module
    else:
        import group_churn as module
    return module


def _record_path(workload: str, seed: int, trace: int):
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def _untraced_record(workload: str, seed: int):
    """The untraced record to compare a traced run against, if any."""
    path = _record_path(workload, seed, 0)
    if not path.exists():
        others = sorted(
            OUT_DIR.glob(f"{workload}-seed*-trace0.json"),
            key=lambda p: p.stat().st_mtime,
        )
        if not others:
            return None
        path = others[-1]
    return json.loads(path.read_text())


def main(argv=None) -> int:
    """Run one workload and print its report and result line."""
    args = _parse(argv)
    import_program()
    bench = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    module = _workload_module(args.workload)
    named, layers = module.run(bench)

    e2e = {}
    if named:
        e2e = {
            "setup_s": median(bench.setup_seconds),
            "primary_p50_ms": named[module.PRIMARY],
            "secondary_p50_ms": named[module.SECONDARY],
            "peak_rss_mb": bench.peak_rss_mb,
        }
    wall = time.perf_counter() - bench.started
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "correct": bench.correct,
        "wall_s": wall,
        "samples_ms": {
            k: [round(x * 1e3, 3) for x in v] for k, v in bench.samples.items()
        },
        "setup_runs_s": bench.setup_seconds,
        "end_to_end": e2e,
        "named": named,
        "layers": layers,
        "notes": bench.notes,
        "failed_checks": [
            {"check": name, "detail": detail}
            for name, ok, detail in bench.checks
            if not ok
        ],
        "checks_run": len(bench.checks),
        "host": host_block(),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    _record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1) + "\n"
    )
    _print_report(record)

    if args.trace:
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.jsonl"
        bench.write_trace(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        _print_overhead(record, _untraced_record(args.workload, args.seed))
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        values = {name: layers.get(name, 0.0) for name in units}
    else:
        units = dict(END_TO_END)
        values = {name: e2e.get(name, math.nan) for name in units}

    if not named or not all(math.isfinite(v) for v in values.values()):
        print(
            f"no result: the run ended before every metric was measured "
            f"({bench.failed} of {bench.attempted} operations failed)",
            file=sys.stderr,
        )
        return 2
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0


def _print_report(record: dict) -> None:
    """Human-readable summary: every metric by name, with its unit."""
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']}: {record['attempted']} operations attempted, "
        f"{record['failed']} failed, {record['checks_run']} checks, "
        f"correct={record['correct']}"
    )
    units = dict(END_TO_END)
    for name, value in record["named"].items():
        print(f"  {name:<36} {value:12.3f} ms")
    for name in ("setup_s", "peak_rss_mb"):
        if name in record["end_to_end"]:
            print(f"  {name:<36} {record['end_to_end'][name]:12.3f} {units[name]}")
    for check in record["failed_checks"]:
        print(f"  FAILED {check['check']}: {check['detail']}")
    if record["trace"]:
        print("  per-layer metric                      value        unit   moves")
        for name, unit, workload, target in PER_LAYER:
            if workload == record["workload"] and name in record["layers"]:
                print(
                    f"  {name:<36} {record['layers'][name]:12.3f} "
                    f"{unit:<11} {target}"
                )


def _print_overhead(traced: dict, untraced: dict | None) -> None:
    """Tracing overhead: traced end-to-end medians over untraced ones."""
    if untraced is None:
        print("tracing overhead: no untraced record of this workload to compare")
        return
    print(
        f"tracing overhead against the untraced run with seed {untraced['seed']}:"
    )
    for name, value in traced["named"].items():
        base = untraced["named"].get(name)
        if base:
            print(f"  {name:<36} {100.0 * (value / base - 1.0):+8.1f} %")


if __name__ == "__main__":
    sys.exit(main())
