"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Each repetition runs in a fresh interpreter (``perfbench/rep.py``), so
every cache in the program starts cold, as it does for a user.
Repetitions repeat until ``--seconds`` have passed (at least two), then
extra set-up-only interpreters are started until there are seven set-up
samples.  The outputs of every repetition are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check failed.

With ``--trace 0`` the metrics are the end-to-end ones of
``spec.END_TO_END``; with ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones of ``spec.PER_LAYER``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import spec  # noqa: E402

#: Every invocation must finish within this many seconds.
BUDGET_S = 170.0
MIN_REPS = 2
MIN_SETUP_SAMPLES = 7
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-par"
#: Shape checks ``repro run all --scale paper`` reports.
PAPER_CHECKS = 29


class CheckFailed(Exception):
    """A correctness check failed."""


class Runner:
    """Starts repetitions in fresh interpreters within the time budget."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.began = time.monotonic()
        self._count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.began

    def rep(self, trace: int = 0, setup_only: bool = False, round_workers: Optional[int] = None) -> Dict[str, Any]:
        """Run one repetition and return its record."""
        self._count += 1
        rep_dir = self.work_dir / f"rep-{self._count}"
        rep_dir.mkdir(parents=True)
        shm_before = _shm_segments()
        launched = time.monotonic()
        command = [
            sys.executable,
            str(HERE / "rep.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--launched", repr(launched),
            "--trace", str(trace),
            "--work-dir", str(rep_dir),
        ]
        if setup_only:
            command.append("--setup-only")
        if round_workers is not None:
            command += ["--round-workers", str(round_workers)]
        process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, text=True
        )
        try:
            stdout, _ = process.communicate(timeout=max(5.0, BUDGET_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise CheckFailed(f"{self.workload} repetition overran the {BUDGET_S:.0f}s budget")
        finally:
            _reap_group(process.pid)
        if process.returncode != 0:
            raise CheckFailed(f"{self.workload} repetition exited with {process.returncode}")
        leaked = _shm_segments() - shm_before
        if leaked:
            raise CheckFailed(f"shared-memory segments left behind: {sorted(leaked)}")
        return json.loads(stdout.strip().splitlines()[-1])


def _shm_segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.iterdir() if path.name.startswith(SHM_PREFIX)}


def _reap_group(pgid: int) -> None:
    """Stop whatever a repetition left running in its process group, and
    wait until the group is empty."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        return


# -- checks ----------------------------------------------------------------


def check_paper(reps: List[Dict[str, Any]]) -> List[str]:
    """Every driver reports its shape checks, and every output bit and
    shape-check outcome repeats across the repetitions of one seed.

    Whether each shape check passes is printed, not gated: at paper scale
    two Table III checks fail on some seeds (3, 9 and 10 of seeds 0-19)
    on every repetition, a property of that seed's synthetic trace.
    """
    problems = []
    for index, rep in enumerate(reps):
        if len(rep["checks"]) != PAPER_CHECKS:
            problems.append(f"rep {index}: {len(rep['checks'])} shape checks, expected {PAPER_CHECKS}")
        if rep["checks"] != reps[0]["checks"]:
            problems.append(f"rep {index}: shape-check outcomes differ from rep 0")
        if rep["digests"] != reps[0]["digests"]:
            differing = sorted(
                key for key in set(rep["digests"]) | set(reps[0]["digests"])
                if rep["digests"].get(key) != reps[0]["digests"].get(key)
            )
            problems.append(f"rep {index}: result digests differ from rep 0 in {differing}")
    return problems


def check_rounds(reps: List[Dict[str, Any]], reference: Dict[str, Any]) -> List[str]:
    problems = []
    for index, rep in enumerate(reps):
        if rep["utility_series"] != reference["utility_series"]:
            problems.append(f"rep {index}: utility series differs from the 1-worker run")
        if rep["total_utility"] != reference["total_utility"]:
            problems.append(f"rep {index}: total utility differs from the 1-worker run")
    return problems


def check_serve(reps: List[Dict[str, Any]]) -> List[str]:
    problems = []
    for index, rep in enumerate(reps):
        if rep["mismatches"]:
            problems.append(f"rep {index}: {rep['mismatches']} contracts differ from serial solve_subproblems")
        if rep["served_digest"] != reps[0]["served_digest"]:
            problems.append(f"rep {index}: served contracts differ from rep 0")
    return problems


def check_layers(workload: str, traced: List[Dict[str, Any]]) -> List[str]:
    problems = []
    for rep in traced:
        zero = [name for name in spec.EXPECTED_NONZERO[workload] if not rep["layers"][name] > 0]
        if zero:
            problems.append(f"layer metrics read zero on a workload that runs them: {zero}")
    return problems


# -- metrics ---------------------------------------------------------------


def end_to_end(reps: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": measure.median_of(reps, "wall_s"),
        "peak_rss_mb": measure.median_of(reps, "peak_rss_mb"),
        "contracts_per_s": statistics.median(rep["contracts"] / rep["wall_s"] for rep in reps),
    }


#: Name of each workload's cold phase, printed with the other
#: workload-specific metrics.
COLD_NAMES = {
    "paper_repro": "build_context_s",
    "rounds_1m": "first_round_s",
    "serve_mixed": "cold_pass_s",
}


def workload_metrics(workload: str, reps: List[Dict[str, Any]]) -> List[str]:
    """Lines for the workload-specific metrics, under their own names.

    Latencies are pooled over repetitions.  These are printed, not
    gated: README.md ("End-to-end metrics") says why they are not in
    BENCHMARK.json.
    """
    lines = [f"{COLD_NAMES[workload]} = {measure.median_of(reps, 'cold_s'):.6g} s"]
    pooled = [value for rep in reps for value in rep.get("latencies_s", ())]
    if workload == "paper_repro":
        checks = reps[0]["checks"]
        failing = sorted(name for name, passed in checks.items() if not passed)
        lines.append(f"shape_checks_passed = {len(checks) - len(failing)}/{len(checks)} {failing or ''}")
    if workload == "rounds_1m":
        lines.append(f"round_p50_s = {measure.quantile(pooled, 0.5):.6g} s ({len(pooled)} rounds)")
    if workload == "serve_mixed":
        p50_ms, tail_ms, percent, n = measure.latency_summary(pooled)
        lines.append(f"serve_p50_ms = {p50_ms:.6g} ms")
        lines.append(f"serve_p{percent}_ms = {tail_ms:.6g} ms ({n} round trips)")
    return lines


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name, _, _ in spec.PER_LAYER
    }
    metrics["trace.overhead_s"] = measure.median_of(traced, "wall_s") - measure.median_of(untraced, "wall_s")
    return metrics


# -- main ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int, work_dir: Path) -> Dict[str, Any]:
    runner = Runner(workload, seed, work_dir)
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(runner.rep(trace=1))
        else:
            untraced.append(runner.rep())
        enough = len(untraced) >= (1 if trace else MIN_REPS) and len(traced) >= trace
        if enough and runner.elapsed() >= seconds:
            break
    setups = [rep["setup_s"] for rep in untraced]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.rep(setup_only=True)["setup_s"])

    reps = untraced + traced
    if workload == "paper_repro":
        problems = check_paper(reps)
    elif workload == "rounds_1m":
        problems = check_rounds(reps, runner.rep(round_workers=1))
    else:
        problems = check_serve(reps)
    problems += check_layers(workload, traced)
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} operations failed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setups)
    units = dict((name, unit) for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER)
    attempted = sum(rep["attempted"] for rep in reps)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "platform": platform.platform(),
        "error_rate": failed / attempted,
    }
    print("meta " + json.dumps(meta))
    for index, rep in enumerate(reps):
        kind = "traced" if index >= len(untraced) else "untraced"
        print(f"rep {index} ({kind}): setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} cold_s={rep['cold_s']:.4f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not trace:
        for line in workload_metrics(workload, untraced):
            print(line)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work_dir)
    except CheckFailed as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
