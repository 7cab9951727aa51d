"""The serve_mixed request stream stays stationary at any run length."""

import numpy as np
import pytest

import workloads


def fresh_mask(seed, n_batches):
    return np.concatenate([workloads.slot_plan(seed, i)[0] for i in range(n_batches)])


@pytest.mark.parametrize("n_batches", [500, 4000])
def test_fresh_share_stays_at_its_rate(n_batches):
    mask = fresh_mask(5, n_batches)
    slots = mask.size
    tolerance = 4.0 * np.sqrt(workloads.FRESH_SHARE * (1 - workloads.FRESH_SHARE) / slots)
    assert abs(mask.mean() - workloads.FRESH_SHARE) < tolerance
    batches_with_miss = mask.reshape(n_batches, workloads.BATCH_SIZE).any(axis=1).mean()
    expected = 1.0 - (1.0 - workloads.FRESH_SHARE) ** workloads.BATCH_SIZE
    assert abs(batches_with_miss - expected) < 4.0 * np.sqrt(expected * (1 - expected) / n_batches)


def test_a_longer_run_replays_the_shorter_one_first():
    short = fresh_mask(5, 300)
    assert np.array_equal(fresh_mask(5, 900)[: short.size], short)
    assert not np.array_equal(fresh_mask(6, 300), short)


def test_fresh_subjects_are_never_seen_before_and_hot_ones_repeat():
    from repro.serving.fingerprint import subproblem_fingerprint
    from repro.serving.workload import synthetic_subproblems

    seed = 3
    hot_set = synthetic_subproblems(workloads.HOT_SET, n_archetypes=workloads.HOT_SET, seed=seed)
    hot = {subproblem_fingerprint(item) for item in hot_set}
    assert len(hot) == workloads.HOT_SET
    seen_fresh = set()
    for index in range(200):
        fresh, _ = workloads.slot_plan(seed, index)
        batch = workloads.request_batch(seed, index, hot_set)
        assert len({item.subject_id for item in batch}) == workloads.BATCH_SIZE
        for is_fresh, item in zip(fresh, batch):
            fingerprint = subproblem_fingerprint(item)
            if is_fresh:
                assert fingerprint not in hot and fingerprint not in seen_fresh
                seen_fresh.add(fingerprint)
            else:
                assert fingerprint in hot
    assert seen_fresh
    assert workloads.request_batch(seed, 7, hot_set) == workloads.request_batch(seed, 7, hot_set)
