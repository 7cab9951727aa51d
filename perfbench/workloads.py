"""The three workloads, as run inside one fresh interpreter per repetition.

Each function imports ``repro``, sets up, calls ``probe.ready()`` (the
end of set-up), runs its timed phase and returns a record of timings and
of the outputs the parent process checks.  ``repro`` is imported inside
the functions so the pure helpers here (the ``serve_mixed`` request
stream) load without it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from measure import digest

# -- rounds_1m -------------------------------------------------------------

N_SUBJECTS = 1_000_000
N_ARCHETYPES = 16
FEEDBACK_NOISE = 0.3
#: Rounds per repetition: one cold round plus five steady ones.  Short
#: repetitions give more cold-round samples per run.
N_ROUNDS = 6

# -- serve_mixed -----------------------------------------------------------

N_SHARDS = 2
N_CLIENTS = 2
#: Subjects per request.  A round trip costs about ten thread and process
#: wake-ups whatever its size, and on a shared VM their latency swings
#: with the host's load; 32 subjects a request keep the serving work, not
#: the wake-ups, the larger part of the time.
BATCH_SIZE = 32
HOT_SET = 256
CACHE_CAPACITY = 4096
#: Each subject slot is, independently, a never-seen fingerprint with
#: this probability; a batch of 32 then carries a miss 1-(127/128)^32 ~
#: 22% of the time at any run length.
FRESH_SHARE = 1.0 / 128.0
#: Stationary-phase round trips per repetition.
N_BATCHES = 500


@dataclass
class Probe:
    """Set-up/timed-phase hooks shared by the workloads."""

    setup_only: bool = False
    ready_at: Optional[float] = None
    on_start: Callable[[], None] = lambda: None
    on_stop: Callable[[], None] = lambda: None
    extras: Dict[str, float] = field(default_factory=dict)

    def ready(self) -> None:
        """Mark the end of set-up (a clock shared across processes)."""
        self.ready_at = time.monotonic()


def _report(error: BaseException) -> None:
    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)


# -- paper_repro -----------------------------------------------------------


def paper_repro(seed: int, probe: Probe) -> Dict[str, Any]:
    """``repro run all --scale paper --seed <seed>`` without extensions."""
    from repro.core.designer import ContractDesigner
    from repro.experiments.common import build_context
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import EXPERIMENTS

    probe.ready()
    if probe.setup_only:
        return {}
    config = ExperimentConfig(scale="paper", seed=seed)

    # Contracts delivered = Section IV-C design calls.
    design_calls = [0]
    design = ContractDesigner.design

    def counted_design(self: Any, *args: Any, **kwargs: Any) -> Any:
        design_calls[0] += 1
        return design(self, *args, **kwargs)

    ContractDesigner.design = counted_design  # type: ignore[method-assign]

    probe.on_start()
    started = time.perf_counter()
    # run_all(config) is build_context followed by each driver; running
    # the drivers one by one lets a raising driver count as one failure.
    context = build_context(config)
    cold_done = time.perf_counter()
    results = []
    failed = 0
    for driver in EXPERIMENTS.values():
        try:
            results.append(driver(context))
        except Exception as error:  # noqa: BLE001 - counted as a failed driver
            _report(error)
            failed += 1
    finished = time.perf_counter()
    probe.on_stop()
    ContractDesigner.design = design  # type: ignore[method-assign]

    checks = {
        f"{result.experiment_id}.{name}": bool(passed)
        for result in results
        for name, passed in result.checks.items()
    }
    return {
        "wall_s": finished - started,
        "cold_s": cold_done - started,
        "contracts": design_calls[0],
        "attempted": len(EXPERIMENTS),
        "failed": failed,
        "checks": checks,
        "digests": {result.experiment_id: digest(result.data) for result in results},
    }


# -- rounds_1m -------------------------------------------------------------


def rounds_1m(seed: int, probe: Probe, round_workers: int) -> Dict[str, Any]:
    """1M columnar subjects stepped for ``N_ROUNDS`` delta-redesign rounds."""
    from repro.core.utility import RequesterObjective
    from repro.simulation import (
        DynamicContractPolicy,
        MarketplaceSimulation,
        StreamingLedger,
    )
    from repro.workers.columnar import synthetic_columnar

    population = synthetic_columnar(
        N_SUBJECTS,
        n_archetypes=N_ARCHETYPES,
        seed=seed,
        feedback_noise=FEEDBACK_NOISE,
    )
    ledger = StreamingLedger()
    simulation = MarketplaceSimulation(
        population,
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0, delta=True),
        seed=seed,
        fast_rounds=True,
        ledger=ledger,
        round_workers=round_workers,
    )
    probe.ready()
    if probe.setup_only:
        simulation.close()
        return {}

    round_times: List[float] = []
    raised = degraded = 0
    probe.on_start()
    started = time.perf_counter()
    try:
        for _ in range(N_ROUNDS):
            # The engine is built lazily inside the first round; reading
            # its degraded flag around each round shows which round fell
            # back to recomputing a dead worker's shard.
            engine = getattr(simulation, "_parallel_engine", None)
            was_degraded = engine is not None and engine.degraded
            begun = time.perf_counter()
            try:
                simulation.step()
            except Exception as error:  # noqa: BLE001 - a failed round ends the run
                _report(error)
                raised = 1
                break
            round_times.append(time.perf_counter() - begun)
            engine = getattr(simulation, "_parallel_engine", None)
            if engine is not None and engine.degraded and not was_degraded:
                degraded += 1
    finally:
        finished = time.perf_counter()
        probe.on_stop()
        simulation.close()

    return {
        "wall_s": finished - started,
        "cold_s": round_times[0] if round_times else finished - started,
        "latencies_s": round_times[1:],
        "contracts": N_SUBJECTS * len(round_times),
        "attempted": len(round_times) + raised,
        "failed": raised + degraded,
        "utility_series": [float(value).hex() for value in ledger.utility_series()],
        "total_utility": float(ledger.total_utility()).hex(),
    }


# -- serve_mixed -----------------------------------------------------------


def slot_plan(seed: int, batch_index: int) -> Tuple[np.ndarray, np.ndarray]:
    """Which slots of one batch are fresh, and the hot index of the rest.

    A pure function of ``(seed, batch_index)``, so the stream is the same
    however many batches a run sends, and the fresh share does not drift
    with run length.
    """
    generator = np.random.default_rng([seed, batch_index])
    fresh = generator.random(BATCH_SIZE) < FRESH_SHARE
    hot = generator.integers(0, HOT_SET, size=BATCH_SIZE)
    return fresh, hot


def request_batch(seed: int, batch_index: int, hot_set: Sequence[Any]) -> List[Any]:
    """Batch ``batch_index`` of the ``serve_mixed`` stream."""
    from dataclasses import replace

    from repro.serving.workload import synthetic_subproblems

    fresh, hot = slot_plan(seed, batch_index)
    n_fresh = int(fresh.sum())
    new = (
        synthetic_subproblems(
            n_fresh,
            n_archetypes=n_fresh,
            rng=np.random.default_rng([seed, batch_index, 1]),
        )
        if n_fresh
        else []
    )
    batch = []
    for slot in range(BATCH_SIZE):
        subproblem = new.pop() if fresh[slot] else hot_set[int(hot[slot])]
        batch.append(replace(subproblem, subject_id=f"b{batch_index}s{slot}"))
    return batch


def serve_phases(seed: int) -> Tuple[List[Any], List[List[Any]], List[List[Any]]]:
    """``(hot_set, cold_pass, stream)`` of one seed.

    The cold pass sends the hot set once, all misses; the stream is the
    ``N_BATCHES`` stationary batches after it.
    """
    from repro.serving.workload import synthetic_subproblems

    hot_set = synthetic_subproblems(HOT_SET, n_archetypes=HOT_SET, seed=seed)
    cold_pass = [hot_set[i : i + BATCH_SIZE] for i in range(0, HOT_SET, BATCH_SIZE)]
    stream = [request_batch(seed, index, hot_set) for index in range(N_BATCHES)]
    return hot_set, cold_pass, stream


def closed_loop(
    send: Callable[[Sequence[Any]], Any],
    phases: Sequence[Sequence[Sequence[Any]]],
    on_phase_end: Callable[[], None],
) -> Tuple[List[List[float]], List[Any], int]:
    """Drive ``phases`` of batches with ``N_CLIENTS`` closed-loop clients.

    Each client keeps one request in flight on its own keep-alive
    connection.  A phase ends when every client has finished it
    (``on_phase_end`` runs once then).  Returns per-phase round-trip
    latencies, every reply, and the count of failed round trips.
    """
    lock = threading.Lock()
    cursor = [0]
    latencies: List[List[float]] = [[] for _ in phases]
    replies: List[Any] = []
    failed = [0]

    def reset_cursor() -> None:
        on_phase_end()
        cursor[0] = 0

    barrier = threading.Barrier(N_CLIENTS, action=reset_cursor)

    def client() -> None:
        for phase_index, batches in enumerate(phases):
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(batches):
                    break
                begun = time.perf_counter()
                try:
                    reply = send(batches[index])
                except Exception as error:  # noqa: BLE001 - counted as a failed round trip
                    _report(error)
                    with lock:
                        failed[0] += 1
                    continue
                elapsed = time.perf_counter() - begun
                with lock:
                    latencies[phase_index].append(elapsed)
                    replies.append(reply)
            barrier.wait()

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, replies, failed[0]


def serve_mixed(seed: int, probe: Probe) -> Dict[str, Any]:
    """Closed-loop HTTP traffic against a 2-shard cluster.

    The clients run in their own interpreter (``loadclient.py``), started
    during set-up and released when the timed phase begins.
    """
    from repro.core.decomposition import solve_subproblems
    from repro.serving.cluster.http import HTTPServerThread
    from repro.serving.cluster.router import ShardRouter

    router = ShardRouter(n_shards=N_SHARDS, mu=1.0, cache_capacity=CACHE_CAPACITY)
    router.start()
    server: Optional[HTTPServerThread] = None
    client: Optional[subprocess.Popen] = None
    try:
        server = HTTPServerThread(router).start()
        host, port = server.address
        client = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve().parent / "loadclient.py"),
                "--seed", str(seed),
                "--host", host,
                "--port", str(port),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert client.stdin is not None and client.stdout is not None
        deadline = time.monotonic() + 30.0
        while router.healthz()["status"] != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("cluster never reported a clean /healthz")
            time.sleep(0.05)
        if client.stdout.readline().strip() != "ready":
            raise RuntimeError("load client failed to start")
        probe.ready()
        if probe.setup_only:
            return {}

        probe.on_start()
        client.stdin.write("go\n")
        client.stdin.flush()
        output = client.stdout.read()
        probe.on_stop()
        if client.wait() != 0 or not output.strip():
            raise RuntimeError(f"load client exited with {client.returncode}")
        record = json.loads(output.strip().splitlines()[-1])
        totals = router.stats_snapshot()["totals"]
        retries = router.stats.snapshot()["cluster.retries"]["value"]
    finally:
        if client is not None:
            if client.poll() is None:
                client.kill()
            client.communicate()
        if server is not None:
            server.stop()
        router.close()
    probe.extras["serving.cache_hit_rate"] = float(totals["cache_hit_rate"])
    probe.extras["serving.cluster.retries"] = float(retries)
    probe.extras["client_latency_s"] = float(
        sum(record["cold_latencies_s"]) + sum(record["latencies_s"])
    )

    # Every fingerprint must always be served the same contract, and it
    # must be byte-identical to the serial design path's.
    hot_set, cold_pass, stream = serve_phases(seed)
    served = record["served"]
    mismatches = record["conflicts"] + serial_mismatches(served, hot_set, stream, solve_subproblems)
    return {
        "wall_s": record["wall_s"],
        "cold_s": record["cold_s"],
        "latencies_s": record["latencies_s"],
        "contracts": BATCH_SIZE * (len(record["cold_latencies_s"]) + len(record["latencies_s"])),
        "attempted": len(cold_pass) + len(stream),
        "failed": record["failed"],
        "mismatches": mismatches,
        "served_digest": digest(served),
    }


def serial_mismatches(
    served: Dict[str, List[str]],
    hot_set: Sequence[Any],
    stream: Sequence[Sequence[Any]],
    solve_subproblems: Callable[..., Any],
) -> int:
    """Fingerprints whose served contract differs from a serial solve.

    A fingerprint that was requested but never served counts as a
    mismatch too.
    """
    from repro.serving.fingerprint import subproblem_fingerprint

    representatives: Dict[str, Any] = {}
    for subproblem in list(hot_set) + [item for batch in stream for item in batch]:
        fingerprint = subproblem_fingerprint(subproblem, mu=1.0)
        representatives.setdefault(fingerprint, subproblem)
    solutions = solve_subproblems(list(representatives.values()), mu=1.0)
    mismatches = 0
    for fingerprint, subproblem in representatives.items():
        contract = solutions[subproblem.subject_id].result.contract
        expected = [float(value).hex() for value in contract.compensations]
        if served.get(fingerprint) != expected:
            mismatches += 1
    return mismatches + len(set(served) - set(representatives))


def default_round_workers() -> int:
    """``min(2, nproc)`` worker processes for ``rounds_1m``."""
    return min(2, os.cpu_count() or 1)
