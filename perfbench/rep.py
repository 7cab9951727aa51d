"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload rounds_1m --seed 3 --launched <t>

``--launched`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts interpreter start-up and
imports.  With ``--trace 1`` the public functions named in
``spec.SPAN_TARGETS`` record spans during the timed phase and the record
carries the per-layer table.  The record is printed as the last line of
standard output, as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Modules imported before patching, so every name binding of a traced
#: function already exists when it is replaced.
_TRACED_MODULES = (
    "repro.experiments.runner",
    "repro.simulation.parallel",
    "repro.serving.cluster.http",
)


class Tracing:
    """Install the layer spans and turn recording on for the timed phase."""

    def __init__(self, work_dir: Path) -> None:
        from importlib import import_module

        for module in _TRACED_MODULES:
            import_module(module)
        from repro.experiments.runner import EXPERIMENTS

        self.recorder = tracing.Recorder()
        for name, targets in spec.SPAN_TARGETS.items():
            for target in targets:
                tracing.patch(self.recorder, name, target)
        for experiment_id, driver in list(EXPERIMENTS.items()):
            EXPERIMENTS[experiment_id] = self.recorder.wrap(
                f"experiments.{experiment_id}", driver
            )
        tracing.propagate_context_to_threads()
        tracing.dump_in_forked_child(
            self.recorder, "repro.serving.cluster.shard:shard_main", work_dir
        )

    def start(self) -> None:
        self.recorder.reset()
        self.recorder.active = True

    def stop(self) -> None:
        self.recorder.active = False


def layer_metrics(
    workload: str,
    main: List[tracing.Span],
    children: List[List[tracing.Span]],
    wall_s: float,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer table of one traced repetition.

    ``main`` holds this process's spans and ``children`` those written
    by forked shard processes.  Coverage counts this process only: a
    shard's spans sit inside the ``serving.cluster.shard_call`` span that
    waited for them, so adding them would count that time twice.
    """
    table: Dict[str, Dict[str, float]] = {}
    for spans in [main, *children]:
        for name, row in tracing.rollup(spans).items():
            merged = table.setdefault(name, {"calls": 0.0, "self_s": 0.0, "inclusive_s": 0.0})
            for key, value in row.items():
                merged[key] += value

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0.0, "self_s": 0.0, "inclusive_s": 0.0})

    metrics = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    for name in spec.SPAN_TARGETS:
        metrics[f"{name}_s"] = row(name)["self_s"]
    for experiment_id in spec.EXPERIMENT_IDS:
        metrics[f"experiments.{experiment_id}_s"] = row(f"experiments.{experiment_id}")["inclusive_s"]
    for name in ("estimation.class_points", "core.design", "core.sweep", "simulation.round"):
        metrics[f"{name}_calls"] = row(name)["calls"]
    designs = metrics["core.design_calls"]
    if designs:
        metrics["core.candidate_cache_hit_rate"] = 1.0 - metrics["core.sweep_calls"] / designs

    explained = sum(
        value["self_s"]
        for name, value in tracing.rollup(main).items()
        if name in spec.SPAN_TARGETS
    )
    if workload == "serve_mixed":
        # Two clients wait concurrently, so the observed time is the sum
        # of their round trips; the front end is what the router does
        # not explain of it.
        observed = extras["client_latency_s"]
        metrics["serving.cluster.frontend_s"] = observed - row("serving.cluster.router")["inclusive_s"]
        metrics["serving.cache_hit_rate"] = extras["serving.cache_hit_rate"]
        metrics["serving.cluster.retries"] = extras["serving.cluster.retries"]
    else:
        observed = wall_s
    metrics["trace.coverage"] = explained / observed if observed > 0 else 0.0
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--round-workers", type=int, default=None)
    args = parser.parse_args(argv)

    probe = workloads.Probe(setup_only=args.setup_only)
    traced: Optional[Tracing] = None
    if args.trace:
        traced = Tracing(args.work_dir)
        probe.on_start = traced.start
        probe.on_stop = traced.stop

    if args.workload == "paper_repro":
        record = workloads.paper_repro(args.seed, probe)
    elif args.workload == "rounds_1m":
        workers = args.round_workers or workloads.default_round_workers()
        record = workloads.rounds_1m(args.seed, probe, workers)
    else:
        record = workloads.serve_mixed(args.seed, probe)

    assert probe.ready_at is not None
    record["setup_s"] = probe.ready_at - args.launched
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy

    record["numpy"] = numpy.__version__
    if traced is not None and not args.setup_only:
        record["layers"] = layer_metrics(
            args.workload,
            traced.recorder.spans,
            tracing.child_spans(args.work_dir),
            record["wall_s"],
            probe.extras,
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
