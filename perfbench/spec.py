"""What the benchmark measures: workloads, metrics and traced layers.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``) and a test keeps the two
equal, so this file is the single place to change a workload or a metric.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one benchmark invocation measures (``--seconds`` default).
RUN_SECONDS = 25

WORKLOADS: Dict[str, str] = {
    "paper_repro": (
        "repro run all --scale paper: the headline batch job; trace synthesis, "
        "estimation, fitting, clustering, design with a warm candidate cache, "
        "object rounds (fig8c)"
    ),
    "rounds_1m": (
        "1M columnar subjects, 16 archetypes, delta redesign, 2 round workers: "
        "round kernel, shared-memory engine and streaming ledger; design nearly nil"
    ),
    "serve_mixed": (
        "2-shard HTTP cluster, 2 closed-loop clients, batches of 32 from 256 hot "
        "fingerprints with 1 in 128 fresh: p50 on the hit path, tail on the miss path"
    ),
}

# (name, unit, better, bound).  Every workload reports every metric; the
# per-workload meaning is in README.md ("End-to-end metrics").  Bounds sit
# above the run-to-run spread seen on a 2-vCPU VM whose speed drifts by
# 10-20% within a minute; setup_s, whose spread is not gated, gets the
# largest.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("contracts_per_s", "1/s", "higher", 0.24),
]

EXPERIMENT_IDS: Tuple[str, ...] = (
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
)

# (name, unit, better).  Self times unless named otherwise; a layer a
# workload does not run reads 0 there.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("data.generate_s", "s", "lower"),
    ("collusion.cluster_s", "s", "lower"),
    ("estimation.effort_proxy_s", "s", "lower"),
    ("estimation.class_points_s", "s", "lower"),
    ("estimation.class_points_calls", "count", "lower"),
    ("estimation.malice_s", "s", "lower"),
    ("fitting.fit_s", "s", "lower"),
    ("workers.build_population_s", "s", "lower"),
    ("core.design_s", "s", "lower"),
    ("core.design_calls", "count", "lower"),
    ("core.sweep_s", "s", "lower"),
    ("core.sweep_calls", "count", "lower"),
    ("core.candidate_cache_hit_rate", "ratio", "higher"),
    ("core.certify_s", "s", "lower"),
    ("simulation.round_s", "s", "lower"),
    ("simulation.round_calls", "count", "lower"),
    ("serving.delta_resolve_s", "s", "lower"),
    ("workers.archetype_codes_s", "s", "lower"),
    ("workers.response_codes_s", "s", "lower"),
    ("serving.columnar_resolve_s", "s", "lower"),
    ("simulation.parallel_step_s", "s", "lower"),
    ("simulation.ledger_append_s", "s", "lower"),
    ("serving.cluster.router_s", "s", "lower"),
    ("serving.cluster.shard_call_s", "s", "lower"),
    ("serving.cluster.codec_s", "s", "lower"),
    ("serving.cluster.frontend_s", "s", "lower"),
    ("serving.cache_hit_rate", "ratio", "higher"),
    ("serving.cluster.retries", "count", "lower"),
    *[(f"experiments.{eid}_s", "s", "lower") for eid in EXPERIMENT_IDS],
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# Span name -> the public functions it times ("module:attr[.attr]").
SPAN_TARGETS: Dict[str, Tuple[str, ...]] = {
    "data.generate": ("repro.data.synthetic:AmazonTraceGenerator.generate",),
    "collusion.cluster": ("repro.collusion.clustering:cluster_collusive_workers",),
    "estimation.effort_proxy": ("repro.estimation.expertise:EffortProxy.from_trace",),
    "estimation.class_points": ("repro.estimation.expertise:EffortProxy.class_points",),
    "estimation.malice": ("repro.estimation.malice:DeviationMaliceEstimator.estimate",),
    "fitting.fit": (
        "repro.fitting.quadratic:fit_concave_quadratic",
        "repro.fitting.polynomial:fit_polynomial",
        "repro.fitting.selection:sweep_orders",
        "repro.fitting.selection:select_order",
    ),
    "workers.build_population": ("repro.workers.population:build_population",),
    "core.design": ("repro.core.designer:ContractDesigner.design",),
    "core.sweep": ("repro.core.sweep:sweep_candidates_with_stats",),
    # The Theorem 4.1 certificate; its Lemma 4.2/4.3 pay bounds run
    # inside these two calls, so they are not wrapped one by one.
    "core.certify": (
        "repro.core.bounds:requester_utility_upper_bound",
        "repro.core.bounds:requester_utility_lower_bound",
    ),
    "simulation.round": ("repro.simulation.engine:MarketplaceSimulation.step",),
    "serving.delta_resolve": ("repro.serving.pool:DeltaSolveState.resolve",),
    "workers.archetype_codes": (
        "repro.workers.columnar:ColumnarPopulation.archetype_codes",
        "repro.workers.columnar:ColumnarPopulation.archetype_representatives",
    ),
    "workers.response_codes": (
        "repro.workers.columnar:ColumnarPopulation.response_codes",
        "repro.workers.columnar:ColumnarPopulation.n_response_archetypes",
        "repro.workers.columnar:ColumnarPopulation.response_archetype_table",
    ),
    "serving.columnar_resolve": ("repro.serving.pool:ColumnarDeltaState.resolve",),
    "simulation.parallel_step": ("repro.simulation.parallel:ParallelRoundEngine.run_round",),
    "simulation.ledger_append": ("repro.simulation.streaming:StreamingLedger.append",),
    "serving.cluster.router": ("repro.serving.cluster.router:ShardRouter.solve_designs",),
    "serving.cluster.shard_call": ("repro.serving.cluster.shard:ShardProcess.request",),
    "serving.cluster.codec": tuple(
        f"repro.serving.cluster.codec:{name}"
        for name in (
            "columnar_frame",
            "design_to_json",
            "expand_frame_results",
            "frame_from_json",
            "frame_to_json",
            "subproblem_from_json",
            "subproblem_to_json",
            "subproblems_from_frame",
        )
    ),
}

#: Per-layer metrics a workload runs, so a zero there is a benchmark bug.
#: ``serving.cluster.retries`` counts failures and is 0 on a healthy run,
#: and ``trace.overhead_s`` is a difference, so neither is listed.  On
#: ``serve_mixed`` every design is a contract-cache miss on a fingerprint
#: never seen before, so no sweep is reused and
#: ``core.candidate_cache_hit_rate`` is 0 there by construction.
EXPECTED_NONZERO: Dict[str, Tuple[str, ...]] = {
    "paper_repro": (
        "data.generate_s",
        "collusion.cluster_s",
        "estimation.effort_proxy_s",
        "estimation.class_points_s",
        "estimation.class_points_calls",
        "estimation.malice_s",
        "fitting.fit_s",
        "workers.build_population_s",
        "core.design_s",
        "core.design_calls",
        "core.sweep_s",
        "core.sweep_calls",
        "core.candidate_cache_hit_rate",
        "core.certify_s",
        "simulation.round_s",
        "simulation.round_calls",
        "serving.delta_resolve_s",
        *[f"experiments.{eid}_s" for eid in EXPERIMENT_IDS],
        "trace.coverage",
    ),
    "rounds_1m": (
        "simulation.round_s",
        "simulation.round_calls",
        "workers.archetype_codes_s",
        "workers.response_codes_s",
        "serving.columnar_resolve_s",
        "simulation.parallel_step_s",
        "simulation.ledger_append_s",
        "trace.coverage",
    ),
    "serve_mixed": (
        "core.design_s",
        "core.design_calls",
        "core.sweep_s",
        "core.sweep_calls",
        "core.certify_s",
        "serving.cluster.router_s",
        "serving.cluster.shard_call_s",
        "serving.cluster.codec_s",
        "serving.cluster.frontend_s",
        "serving.cache_hit_rate",
        "trace.coverage",
    ),
}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
