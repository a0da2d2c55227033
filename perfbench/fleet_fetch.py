"""Workload ``fleet-fetch``: warm reads through a two-shard process fleet.

Set-up starts ``ShardFleet(shards=2, mode="process")`` and builds four
degree-6 trees of 50,000 unit-disk points, two on each shard. The
measured phase is pure cache reads through one ``ShardRouter``: rounds
of 50 summary fetches, cycling over the four trees, then one full-tree
download decoded into a ``MulticastTree``. Closed loop, one client.
"""

from __future__ import annotations

import json
import time

import numpy as np

from harness import (
    CLIENT_TIMEOUT_S,
    MAX_MEASURE_S,
    START_TIMEOUT_S,
    OperationFailed,
    Run,
    child_pids,
    median,
    percentile,
    proc_peak_rss_mb,
)
from references import radius_from_parents

N = 50_000
TREES = 4
SHARDS = 2
PARAMS = {"max_out_degree": 6}
FETCHES_PER_ROUND = 20
MIN_FETCHES = 1_000
SETUP_REPEATS = 3
#: The timings reported as primary_p50_ms and secondary_p50_ms.
PRIMARY, SECONDARY = "fetch_p50_ms", "tree_fetch_p50_ms"


def pick_specs(seed: int) -> list[dict]:
    """Four unit-disk workload specs, two owned by each shard.

    Seeds are scanned upward from ``10_000 * seed`` with the same ring
    the fleet's routers use, so both shards hold the same share of the
    cache whatever ``--seed`` is.
    """
    from repro.service import HashRing
    from repro.service.cache import canonical_key
    from repro.workloads.generators import unit_disk

    ring = HashRing([f"shard-{i}" for i in range(SHARDS)], vnodes=64)
    per_shard = {sid: [] for sid in ring.shards}
    candidate = 10_000 * int(seed)
    while any(len(v) < TREES // SHARDS for v in per_shard.values()):
        key = canonical_key(unit_disk(N, seed=candidate), 0, "polar-grid", PARAMS)
        owned = per_shard[ring.primary(key)]
        if len(owned) < TREES // SHARDS:
            owned.append({"kind": "unit-disk", "n": N, "seed": candidate})
        candidate += 1
    a, b = per_shard.values()
    return [spec for pair in zip(a, b) for spec in pair]


def _fetch_tree(router, spec):
    """One full-tree download, decoded into a validated MulticastTree."""
    from repro.core.tree import MulticastTree

    reply = router.build(workload=spec, params=PARAMS, include_tree=True)
    tree = MulticastTree(
        np.asarray(reply["points"], dtype=np.float64),
        np.asarray(reply["parent"], dtype=np.int64),
        reply["root"],
    ).validate()
    return reply, tree


def _start(bench: Run, specs):
    """Start the fleet and build the trees cold; returns (fleet, router)."""
    from repro.service import ShardFleet

    fleet = ShardFleet(shards=SHARDS, mode="process", start_timeout=START_TIMEOUT_S)
    try:
        fleet.start()
        router = fleet.router(replication=1, timeout=CLIENT_TIMEOUT_S)
        for spec in specs:
            router.build(workload=spec, params=PARAMS)
    except BaseException:
        fleet.stop()
        raise
    return fleet, router


def _shard_totals(router) -> dict:
    """Fleet-wide builds and cache lookups, from every shard's stats."""
    totals = {"builds": 0, "hits": 0, "misses": 0}
    for sid in router.ring.shards:
        stats = router.shard_stats(sid)
        totals["builds"] += stats["builds"]
        totals["hits"] += stats["cache"]["hits"]
        totals["misses"] += stats["cache"]["misses"]
    return totals


def run(bench: Run) -> tuple[dict, dict]:
    """Measure and check; returns (named timings in ms, layer metrics)."""
    specs = pick_specs(bench.seed)
    bench.notes["tree_seeds"] = [s["seed"] for s in specs]
    fleet = router = None
    try:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fleet, router = _start(bench, specs)
            bench.setup_seconds.append(time.perf_counter() - t0)
            if i + 1 < SETUP_REPEATS:
                router.close()
                fleet.stop()
        bench.clear_spans()
        return _measure(bench, fleet, router, specs)
    finally:
        if router is not None:
            router.close()
        if fleet is not None:
            fleet.stop()


def _measure(bench: Run, fleet, router, specs) -> tuple[dict, dict]:
    from repro.analysis.oracle import check_tree
    from repro.workloads.generators import unit_disk

    expected = {s["seed"]: unit_disk(N, seed=s["seed"]) for s in specs}
    first_parent: dict[int, np.ndarray] = {}
    before = _shard_totals(router)
    uncached = 0
    in_service: list[float] = []
    wire: list[float] = []
    reply_bytes: list[int] = []
    mirror = _Mirror(bench) if bench.trace else None
    fetches = rounds = 0
    t0 = time.perf_counter()
    try:
        while (
            bench.measuring(t0) or fetches < MIN_FETCHES
        ) and time.perf_counter() - t0 < MAX_MEASURE_S:
            for _ in range(FETCHES_PER_ROUND):
                spec = specs[fetches % TREES]
                fetches += 1
                if bench.trace:
                    with bench.layer("service.shard.route"):
                        key = router.routing_key(workload=spec, params=PARAMS)
                        router.ring.preference(key)
                reply = bench.op("fetch", router.build, workload=spec, params=PARAMS)
                uncached += not reply["cached"]
                in_service.append(reply["service_seconds"])
            spec = specs[rounds % TREES]
            rounds += 1
            t_send = time.perf_counter()
            reply, tree = bench.op("tree_fetch", _fetch_tree, router, spec)
            round_trip = time.perf_counter() - t_send
            uncached += not reply["cached"]
            seed = spec["seed"]
            if seed not in first_parent:
                report = check_tree(tree, d_max=PARAMS["max_out_degree"])
                bench.check(f"tree{seed}.oracle", report.ok, report.render()[:200])
                first_parent[seed] = tree.parent
            elif not np.array_equal(tree.parent, first_parent[seed]):
                bench.check(f"tree{seed}.repeat_identical", False, f"round {rounds}")
            if not np.array_equal(tree.points, expected[seed]):
                bench.check(f"tree{seed}.points", False, f"round {rounds}")
            radius = radius_from_parents(tree.points, tree.parent, int(tree.root))
            if not np.isclose(radius, reply["radius"], rtol=1e-12, atol=0.0):
                bench.check(
                    f"tree{seed}.radius", False, f"{radius} vs {reply['radius']}"
                )
            if mirror is not None:
                encode, decode = mirror.observe(spec, reply)
                reply_bytes.append(mirror.last_bytes)
                # service_seconds stops before the reply is encoded, so
                # the encode is taken out here as well as the decode.
                wire.append(round_trip - reply["service_seconds"] - encode - decode)
        pids = child_pids()
        bench.peak_rss_mb = max(proc_peak_rss_mb(pid) for pid in pids)
        after = _shard_totals(router)
    except OperationFailed:
        return {}, {}

    builds = after["builds"] - before["builds"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    bench.check("fleet.no_builds", builds == 0, f"{builds} builds while measuring")
    bench.check("fleet.all_cached", uncached == 0, f"{uncached} uncached replies")
    bench.check("fleet.shards", len(pids) == SHARDS, f"{len(pids)} shard processes")
    for seed in expected:
        bench.check(f"tree{seed}.downloaded", seed in first_parent, "")
    bench.check("fleet.min_fetches", fetches >= MIN_FETCHES, f"{fetches} fetches")
    bench.notes.update(fetches=fetches, tree_fetches=rounds)

    fetch_ms = [s * 1e3 for s in bench.samples["fetch"]]
    named = {
        "fetch_p50_ms": median(fetch_ms),
        "fetch_p99_ms": percentile(fetch_ms, 99),
        "tree_fetch_p50_ms": median(bench.samples["tree_fetch"]) * 1e3,
    }
    layers = {}
    if bench.trace:
        layers = {
            "service.shard.route_ms": median(bench.span_ms("service.shard.route")),
            "service.core.in_service_ms": median(in_service) * 1e3,
            "workloads.materialize_ms": median(
                bench.span_ms("workloads.materialize")
            ),
            "service.cache.key_ms": median(bench.span_ms("service.cache.key")),
            "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "service.cache.lookups": lookups,
            "service.server.encode_ms": median(
                bench.span_ms("service.server.encode")
            ),
            "service.client.decode_ms": median(
                bench.span_ms("service.client.decode")
            ),
            "service.wire_ms": median(wire) * 1e3,
            "service.reply_bytes": median(reply_bytes),
        }
    return named, layers


class _Mirror:
    """Traced mode: time the server's per-request layers in this process.

    Each full-tree download is followed by the same public calls the
    shard makes for it (workload materialisation, cache key, reply
    encoding) and by the client's decode of an identical reply line,
    each under its own span.
    """

    def __init__(self, bench: Run):
        self.bench = bench
        self.results: dict[int, object] = {}
        self.last_bytes = 0

    def observe(self, spec: dict, reply: dict) -> tuple[float, float]:
        """Record the layer spans for one download.

        Returns the seconds spent encoding and decoding the reply.
        """
        import repro
        from repro.core.tree import MulticastTree
        from repro.service.cache import canonical_key
        from repro.service.core import BuildResponse, WorkloadSpec

        bench = self.bench
        seed = spec["seed"]
        if seed not in self.results:
            points = WorkloadSpec(**spec).materialize()
            self.results[seed] = repro.build(points, 0, "polar-grid", **PARAMS)
        with bench.layer("workloads.materialize"):
            points = WorkloadSpec(**spec).materialize()
        with bench.layer("service.cache.key"):
            key = canonical_key(points, 0, "polar-grid", PARAMS)
        response = BuildResponse(key=key, result=self.results[seed], cached=True)
        t0 = time.perf_counter()
        with bench.layer("service.server.encode"):
            json.dumps({"ok": True, **response.to_dict(include_tree=True)})
        encode = time.perf_counter() - t0
        line = json.dumps({k: v for k, v in reply.items() if k != "shard"})
        self.last_bytes = len(line) + 1
        t0 = time.perf_counter()
        with bench.layer("service.client.decode"):
            decoded = json.loads(line)
            MulticastTree(
                np.asarray(decoded["points"], dtype=np.float64),
                np.asarray(decoded["parent"], dtype=np.int64),
                decoded["root"],
            ).validate()
        return encode, time.perf_counter() - t0
