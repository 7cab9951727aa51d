"""BENCHMARK.json matches spec.py and the benchmark file contract."""

import json
import re
import shutil
import subprocess
import sys

import spec
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_manifest_is_generated_from_spec():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.manifest()


def test_manifest_respects_the_limits():
    doc = spec.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) < 64 * 1024


def test_expected_layers_are_per_layer_metrics():
    names = {name for name, _, _ in spec.PER_LAYER}
    assert set(spec.EXPECTED_NONZERO) == set(spec.WORKLOADS)
    for expected in spec.EXPECTED_NONZERO.values():
        assert set(expected) <= names


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_repro", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
