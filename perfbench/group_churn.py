"""Workload ``group-churn``: membership writes against one service.

Set-up starts ``python -m repro serve`` with a hosted population of
20,000 unit-disk points (per-host cap 8), warms one 20,000-point
degree-6 tree and admits six 2,000-member groups. Each measured round
is closed loop, one client:

1. admit two more 2,000-member groups (8 live);
2. send one ``update`` batch of 10 events against the warm tree,
   alternating joins at fresh unit-disk coordinates and leaves of
   current members;
3. evict the two oldest groups (6 live again).

The benchmark keeps its own ledger of members, groups and hosts. It
picks each leave by replaying the batch on an in-process
``IncrementalGridTree`` fed the same events, which is how it knows the
index the server will resolve; every fifth update downloads the tree
and compares it with both.
"""

from __future__ import annotations

import time
from collections import Counter, deque

import numpy as np

from harness import (
    CLIENT_TIMEOUT_S,
    OperationFailed,
    Run,
    ServeProcess,
    median,
    proc_peak_rss_mb,
)
from references import disk_points, out_degrees, same_rows

POPULATION = 20_000
CAP = 8
TREE_N = 20_000
DEGREE = 6
BATCH = 10
GROUP_SIZE = 2_000
LIVE_GROUPS = 8
#: Groups admitted (and evicted) per round.
TURNOVER = 2
CHECK_EVERY = 5
SETUP_REPEATS = 3
#: The timings reported as primary_p50_ms and secondary_p50_ms.
PRIMARY, SECONDARY = "update_p50_ms", "admit_p50_ms"
#: A small cache: each update caches its 20,000-point result, so an
#: unbounded cache would make the server's peak memory grow with the
#: number of rounds a run fits in, i.e. with the program's speed.
CACHE_MB = 8


def _client_class():
    """A ServiceClient that keeps each raw reply (for ``service_seconds``)."""
    from repro.service import ServiceClient

    class RecordingClient(ServiceClient):
        last_reply: dict | None = None

        def _call(self, payload):
            self.last_reply = super()._call(payload)
            return self.last_reply

    return RecordingClient


class Ledger:
    """The benchmark's own record of members, groups and host load."""

    def __init__(self, seed: int):
        """Regenerate the population and the warm tree's members."""
        from repro.workloads.generators import unit_disk

        self.population = unit_disk(POPULATION, seed=seed)
        self.tree_spec = {"kind": "unit-disk", "n": TREE_N, "seed": 50_000 + seed}
        self.members = Counter(
            map(tuple, unit_disk(TREE_N, seed=self.tree_spec["seed"]).tolist())
        )
        self.rng = np.random.default_rng([seed, 13])
        self.groups: deque = deque()  # (handle, members)
        self.host_groups = np.zeros(POPULATION, dtype=np.int64)
        self.next_group = 0

    def member_rows(self) -> np.ndarray:
        """The live members' coordinates, one row each."""
        return np.array(list(self.members.elements()), dtype=np.float64)

    def draw_group(self) -> tuple[str, np.ndarray, int]:
        """A fresh group id, its sorted members, and its source host.

        The source is a member in no other live group, so its whole cap
        is free and the packed builder can always root the tree there.
        """
        members = np.sort(self.rng.choice(POPULATION, GROUP_SIZE, replace=False))
        free = members[self.host_groups[members] == 0]
        pool = free if free.size else members
        source = int(pool[self.rng.integers(pool.size)])
        self.next_group += 1
        return f"g{self.next_group}", members, source


def _admit(bench: Run, client, ledger: Ledger, packing=None):
    group, members, source = ledger.draw_group()
    handle = bench.op(
        "admit", client.admit, group, members=members.tolist(), source=source
    )
    ledger.groups.append((handle, members))
    ledger.host_groups[members] += 1
    if packing is not None:
        packing.admit(group, members, source, handle)
    return client.last_reply["build"]["service_seconds"]


def _evict(bench: Run, client, ledger: Ledger, packing=None) -> None:
    handle, members = ledger.groups.popleft()
    bench.op("evict", client.evict, handle)
    ledger.host_groups[members] -= 1
    if packing is not None:
        packing.evict(handle.group_id)


def _setup(bench: Run, seed: int):
    """Start the server, warm the tree, admit the first groups (timed)."""
    ledger = Ledger(seed)
    t0 = time.perf_counter()
    server = ServeProcess(
        "--packing-hosts",
        str(POPULATION),
        "--packing-cap",
        str(CAP),
        "--packing-seed",
        str(seed),
        "--cache-mb",
        str(CACHE_MB),
    ).__enter__()
    try:
        client = _client_class()(port=server.port, timeout=CLIENT_TIMEOUT_S)
        warm = client.build(
            workload=ledger.tree_spec, params={"max_out_degree": DEGREE}
        )
        for _ in range(LIVE_GROUPS - TURNOVER):
            _admit(bench, client, ledger)
    except BaseException:
        server.stop()
        raise
    bench.setup_seconds.append(time.perf_counter() - t0)
    return server, client, ledger, warm["key"]


def run(bench: Run) -> tuple[dict, dict]:
    """Measure and check; returns (named timings in ms, layer metrics)."""
    server = client = None
    try:
        for i in range(SETUP_REPEATS):
            server, client, ledger, key = _setup(bench, bench.seed)
            if i + 1 < SETUP_REPEATS:
                client.close()
                server.stop()
        # Set-up operations are not part of the measured mix.
        bench.attempted = bench.failed = 0
        bench.samples.clear()
        bench.clear_spans()
        return _measure(bench, server, client, ledger, key)
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()


def _measure(
    bench: Run, server, client, ledger: Ledger, key: str
) -> tuple[dict, dict]:
    import repro
    from repro.overlay.incremental import IncrementalGridTree
    from repro.workloads.generators import unit_disk

    points = unit_disk(TREE_N, seed=ledger.tree_spec["seed"])
    current = repro.build(points, 0, "polar-grid", max_out_degree=DEGREE)
    packing = _PackingMirror(bench, ledger) if bench.trace else None
    update_service: list[float] = []
    admit_service: list[float] = []
    rebuilds = {"partial_rebuilds": [], "full_rebuilds": []}
    rounds = 0
    t0 = time.perf_counter()
    try:
        while bench.measuring(t0):
            rounds += 1
            for _ in range(TURNOVER):
                admit_service.append(_admit(bench, client, ledger, packing))

            with bench.layer("overlay.incremental.adopt"):
                engine = IncrementalGridTree(current)
            events = _events(bench, engine, ledger, rounds)
            if bench.trace:
                with bench.layer("analysis.oracle.incremental_check"):
                    engine.check()
            with bench.layer("overlay.incremental.to_result"):
                current = engine.to_build_result(builder="polar-grid")
            download = rounds % CHECK_EVERY == 0
            reply = bench.op(
                "update_with_tree" if download else "update",
                client.update,
                key,
                events,
                include_tree=download,
            )
            key = reply["key"]
            update_service.append(reply["service_seconds"])
            for name, values in rebuilds.items():
                values.append(reply["counters"][name])
            _check_update(bench, reply, engine, ledger, rounds)
            if download:
                _check_download(bench, reply, ledger, current, rounds)

            for _ in range(TURNOVER):
                _evict(bench, client, ledger, packing)
            if rounds % CHECK_EVERY == 0:
                _check_packing(bench, client, ledger, rounds)
        _check_packing(bench, client, ledger, rounds)
        bench.peak_rss_mb = proc_peak_rss_mb(server.pid)
        reserved = client.stats()["packing"]["reserved_slots"]
    except OperationFailed:
        return {}, {}
    bench.notes["rounds"] = rounds

    named = {
        "update_p50_ms": median(bench.samples["update"]) * 1e3,
        "admit_p50_ms": median(bench.samples["admit"]) * 1e3,
        "evict_p50_ms": median(bench.samples["evict"]) * 1e3,
    }
    layers = {}
    if bench.trace:
        layers = {
            f"{span}_ms": median(bench.span_ms(span))
            for span in (
                "overlay.incremental.adopt",
                "overlay.incremental.events",
                "overlay.incremental.to_result",
                "analysis.oracle.incremental_check",
                "packing.build",
                "packing.reserve",
                "packing.release",
            )
        }
        layers.update(
            {
                f"overlay.incremental.{name}": float(np.mean(values))
                for name, values in rebuilds.items()
            }
        )
        layers["service.core.update_in_service_ms"] = median(update_service) * 1e3
        layers["service.core.admit_in_service_ms"] = median(admit_service) * 1e3
        layers["packing.reserved_slots"] = reserved
    return named, layers


def _events(bench: Run, engine, ledger: Ledger, round_no: int) -> list[dict]:
    """One batch: joins at fresh coordinates alternating with leaves.

    Each event is applied to ``engine`` as it is drawn, so a leave's
    index names a member that is live at that point of the batch.
    """
    events = []
    with bench.layer("overlay.incremental.events"):
        for i in range(BATCH):
            if i % 2 == 0:
                name = f"j{round_no}-{i}"
                coords = disk_points(ledger.rng, 1)[0]
                engine.join(name, coords)
                ledger.members[tuple(coords.tolist())] += 1
                events.append(
                    {"action": "join", "name": name, "coords": coords.tolist()}
                )
                continue
            while True:
                index = int(ledger.rng.integers(1, len(engine.names)))
                if index != engine.source_slot and engine.names[index] is not None:
                    break
            row = tuple(engine.points[index].tolist())
            engine.leave(engine.names[index])
            ledger.members[row] -= 1
            if not ledger.members[row]:
                del ledger.members[row]
            events.append({"action": "leave", "index": index})
    return events


def _check_update(bench, reply, engine, ledger, round_no) -> None:
    size = sum(ledger.members.values())
    if reply["n"] != size:
        bench.check(f"update{round_no}.n", False, f"{reply['n']} vs ledger {size}")
    mine = {
        "joins": engine.joins,
        "leaves": engine.leaves,
        "partial_rebuilds": engine.partial_rebuilds,
        "full_rebuilds": engine.full_rebuilds,
    }
    if reply["counters"] != mine:
        bench.check(
            f"update{round_no}.counters", False, f"{reply['counters']} vs {mine}"
        )


def _check_download(bench, reply, ledger, current, round_no) -> None:
    from repro.analysis.oracle import check_tree
    from repro.core.tree import MulticastTree

    tree = MulticastTree(
        np.asarray(reply["points"], dtype=np.float64),
        np.asarray(reply["parent"], dtype=np.int64),
        reply["root"],
    )
    report = check_tree(tree, d_max=DEGREE)
    bench.check(f"update{round_no}.oracle", report.ok, report.render()[:200])
    bench.check(
        f"update{round_no}.ledger_members",
        same_rows(tree.points, ledger.member_rows()),
        "downloaded coordinates equal the ledger's members",
    )
    bench.check(
        f"update{round_no}.replay",
        np.array_equal(tree.points, current.tree.points)
        and np.array_equal(tree.parent, current.tree.parent),
        "server tree equals the in-process replay",
    )


def _check_packing(bench, client, ledger, round_no) -> None:
    from repro.analysis.oracle import check_packing
    from repro.core.tree import MulticastTree

    trees, memberships, slots = [], [], 0
    for handle, members in ledger.groups:
        reply = bench.op("session_fetch", client.build, handle, include_tree=True)
        tree = MulticastTree(
            np.asarray(reply["points"], dtype=np.float64),
            np.asarray(reply["parent"], dtype=np.int64),
            reply["root"],
        )
        if not np.array_equal(tree.points, ledger.population[members]):
            bench.check(f"packing{round_no}.{handle.group_id}.points", False)
        trees.append(tree)
        memberships.append(members)
        slots += int(out_degrees(tree.parent, int(tree.root)).sum())
    report = check_packing(trees, memberships, CAP, n_hosts=POPULATION)
    bench.check(f"packing{round_no}.oracle", report.ok, report.render()[:200])
    stats = client.stats()["packing"]
    bench.check(
        f"packing{round_no}.reserved_slots",
        stats["reserved_slots"] == slots and stats["live_groups"] == len(trees),
        f"service {stats['reserved_slots']} slots / {stats['live_groups']} "
        f"groups, trees {slots} / {len(trees)}",
    )


class _PackingMirror:
    """Traced mode: the packing layers, replayed in this process.

    Each admission is rebuilt with the packed builder against this
    mirror's residual budgets and reserved in its own
    ``DegreeBudgetAllocator``, each step under its own span; the slot
    total must equal the service's receipt.
    """

    def __init__(self, bench: Run, ledger: Ledger):
        from repro.packing.allocator import DegreeBudgetAllocator

        self.bench = bench
        self.ledger = ledger
        self.allocator = DegreeBudgetAllocator(np.full(POPULATION, CAP))
        for handle, members in ledger.groups:
            self.admit(handle.group_id, members, int(handle.spec["source"]), handle)

    def admit(self, group, members, source, handle) -> None:
        import repro

        residual = self.allocator.residual()[members]
        local = int(np.flatnonzero(members == source)[0])
        with self.bench.layer("packing.build"):
            result = repro.build(
                self.ledger.population[members],
                local,
                "packed-polar-grid",
                budgets=residual.tolist(),
            )
        usage = np.zeros(POPULATION, dtype=np.int64)
        usage[members] = out_degrees(result.tree.parent, int(result.tree.root))
        with self.bench.layer("packing.reserve"):
            receipt = self.allocator.reserve(group, usage)
        if receipt.slots != handle.receipt["slots"]:
            self.bench.check(
                f"{group}.mirror_slots",
                False,
                f"{receipt.slots} vs service {handle.receipt['slots']}",
            )

    def evict(self, group) -> None:
        with self.bench.layer("packing.release"):
            self.allocator.release(group)
