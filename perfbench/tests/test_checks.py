"""Every correctness check trips on a deliberately corrupted output."""

import copy

import loadclient
import measure
import run
import spec
import workloads


def paper_rep():
    checks = {f"fig{i}.check": True for i in range(run.PAPER_CHECKS)}
    return {"checks": checks, "digests": {"fig6": measure.digest({"x": [1.0, 2.0]})}}


def test_paper_checks_pass_on_clean_reps():
    assert run.check_paper([paper_rep(), paper_rep()]) == []


def test_paper_check_trips_when_a_shape_check_outcome_changes():
    bad = paper_rep()
    bad["checks"]["fig3.check"] = False
    assert run.check_paper([paper_rep(), bad])
    # A check failing on every repetition of a seed is reported, not gated.
    assert run.check_paper([bad, copy.deepcopy(bad)]) == []


def test_paper_check_trips_on_a_missing_shape_check():
    bad = paper_rep()
    del bad["checks"]["fig3.check"]
    assert run.check_paper([bad])


def test_paper_check_trips_on_one_changed_bit():
    bad = paper_rep()
    bad["digests"]["fig6"] = measure.digest({"x": [1.0, 2.0000000000000004]})
    (problem,) = run.check_paper([paper_rep(), bad])
    assert "fig6" in problem


def rounds_rep():
    return {"utility_series": [1.5.hex(), 2.25.hex()], "total_utility": 3.75.hex()}


def test_rounds_check_trips_on_a_changed_series_or_total():
    reference = rounds_rep()
    assert run.check_rounds([rounds_rep()], reference) == []
    bad = rounds_rep()
    bad["utility_series"][1] = (2.25 + 2**-50).hex()
    assert run.check_rounds([bad], reference)
    bad = rounds_rep()
    bad["total_utility"] = 3.5.hex()
    assert run.check_rounds([bad], reference)


def test_serve_check_trips_on_a_mismatch_or_a_changed_reply():
    clean = {"mismatches": 0, "served_digest": "abc"}
    assert run.check_serve([clean, dict(clean)]) == []
    assert run.check_serve([clean, dict(clean, mismatches=1)])
    assert run.check_serve([clean, dict(clean, served_digest="abd")])


def test_client_counts_a_fingerprint_served_two_contracts():
    reply = [{"fingerprint": "f1", "compensations": [0.0, 1.5]}]
    served, conflicts = loadclient.served_contracts([reply, copy.deepcopy(reply)])
    assert served == {"f1": [(0.0).hex(), (1.5).hex()]} and conflicts == 0
    changed = [{"fingerprint": "f1", "compensations": [-0.0, 1.5]}]
    assert loadclient.served_contracts([reply, changed])[1] == 1


def test_serial_comparison_finds_a_corrupted_contract():
    from repro.core.decomposition import solve_subproblems
    from repro.serving.fingerprint import subproblem_fingerprint
    from repro.serving.workload import synthetic_subproblems

    hot_set = synthetic_subproblems(6, n_archetypes=6, seed=2)
    solutions = solve_subproblems(hot_set, mu=1.0)
    served = {
        subproblem_fingerprint(item): [
            float(v).hex() for v in solutions[item.subject_id].result.contract.compensations
        ]
        for item in hot_set
    }
    assert workloads.serial_mismatches(served, hot_set, [], solve_subproblems) == 0
    corrupted = copy.deepcopy(served)
    key = sorted(corrupted)[0]
    corrupted[key][-1] = (float.fromhex(corrupted[key][-1]) + 1e-9).hex()
    assert workloads.serial_mismatches(corrupted, hot_set, [], solve_subproblems) == 1
    del corrupted[key]
    assert workloads.serial_mismatches(corrupted, hot_set, [], solve_subproblems) == 1


def test_layer_check_trips_on_a_zero_counter():
    layers = {name: 1.0 for name, _, _ in spec.PER_LAYER}
    assert run.check_layers("rounds_1m", [{"layers": layers}]) == []
    layers["simulation.ledger_append_s"] = 0.0
    assert run.check_layers("rounds_1m", [{"layers": layers}])


def test_leaked_segments_are_seen(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SHM_DIR", tmp_path)
    (tmp_path / "unrelated").write_bytes(b"")
    assert run._shm_segments() == set()
    (tmp_path / f"{run.SHM_PREFIX}-1-abc").write_bytes(b"")
    assert run._shm_segments() == {f"{run.SHM_PREFIX}-1-abc"}
