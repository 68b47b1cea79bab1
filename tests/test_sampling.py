"""Sampling of auxiliary-outlier batches during fine-tuning."""

import itertools

import numpy as np

from oodbench import data, trainer


def _stream(outliers, batch_size, seed, count):
    return list(itertools.islice(trainer._outlier_batches(outliers, batch_size, seed), count))


def test_random_sample_determinism_and_extremes():
    pool = np.random.default_rng(0).uniform(0, 1, (10, 2))
    rows = {tuple(r) for r in pool}
    # Same seed, same stream; another seed reorders it.
    a = _stream(pool, 5, seed=7, count=6)
    b = _stream(pool, 5, seed=7, count=6)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    assert any(x.tobytes() != y.tobytes() for x, y in zip(a, _stream(pool, 5, seed=8, count=6)))
    # Each pass draws every row once, without replacement, in fixed-size batches.
    for first, second in zip(a[0::2], a[1::2]):
        assert first.shape == second.shape == (5, 2)
        assert {tuple(r) for r in np.concatenate([first, second])} == rows
    # Whole-pool batches: every batch is a permutation of the pool.
    for batch in _stream(pool, 10, seed=1, count=3):
        assert batch.shape == (10, 2) and {tuple(r) for r in batch} == rows
    # Batch size one: each pass yields every row exactly once.
    singles = _stream(pool, 1, seed=1, count=10)
    assert sorted(tuple(s[0]) for s in singles) == sorted(rows)
    # A remainder that does not fill a batch is dropped for that pass.
    for batch in _stream(pool, 4, seed=2, count=6):
        assert batch.shape == (4, 2)
    # Pass p is the full slices of the one seeded batch order, data.batches(n, k, seed, p).
    expected = [pool[idx] for p in (0, 1) for idx in data.batches(10, 4, 2, p) if idx.size == 4]
    assert [b.tobytes() for b in _stream(pool, 4, seed=2, count=4)] == \
        [b.tobytes() for b in expected]
