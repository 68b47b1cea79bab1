import json

import numpy as np
import pytest

from oodbench import data
from oodbench.errors import ConfigError, DataError


def test_csv_round_trip_labeled_and_unlabeled(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-20, 20, (7, 3))
    labeled = data.LabeledDataset(x, rng.integers(0, 4, 7))
    data.save_csv(labeled, tmp_path / "l.csv")
    back = data.load_csv(tmp_path / "l.csv")
    assert isinstance(back, data.LabeledDataset)
    assert back.x.tobytes() == x.tobytes() and np.array_equal(back.y, labeled.y)
    data.save_csv(data.UnlabeledDataset(x), tmp_path / "u.csv")
    back = data.load_csv(tmp_path / "u.csv")
    assert isinstance(back, data.UnlabeledDataset)
    assert back.x.tobytes() == x.tobytes()
    assert (tmp_path / "u.csv").read_text().splitlines()[0] == "x0,x1,x2"


def test_csv_round_trip_empty_dataset(tmp_path):
    data.save_csv(data.UnlabeledDataset(np.zeros((0, 2))), tmp_path / "e.csv")
    assert data.load_csv(tmp_path / "e.csv").x.shape == (0, 2)


@pytest.mark.parametrize("text, match", [
    ("x0,x1\n0.1\n", ":2: expected 2 fields"),
    ("x0,x1\n0.1,abc\n", ":2:"),
    ("x0,x1\n0.1,0.2\n0.1,nan\n", ":3: non-finite"),
    ("x0,label\n0.1,one\n", "bad label"),
    ("a,b\n", "unexpected header"),
    ("", "empty file"),
])
def test_load_csv_rejects_malformed_rows(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=match):
        data.load_csv(path)


def test_minmax_applies_clips_and_round_trips_through_json():
    ref = np.array([[0.0, 10.0], [2.0, 30.0], [1.0, 20.0]])
    t = data.fit_minmax(ref)
    np.testing.assert_array_equal(t.apply(ref), [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    np.testing.assert_array_equal(t.apply(np.array([[-1.0, 40.0]])), [[0.0, 1.0]])
    again = data.MinMaxTransform.from_json(t.to_json())
    assert again.mins.tobytes() == t.mins.tobytes() and again.maxs.tobytes() == t.maxs.tobytes()
    assert json.loads(t.to_json()) == {"mins": [0.0, 10.0], "maxs": [2.0, 30.0]}


def test_minmax_zero_range_feature_pins_to_half():
    with pytest.warns(UserWarning, match="zero-range"):
        t = data.fit_minmax(np.array([[1.0, 3.0], [2.0, 3.0]]))
    np.testing.assert_array_equal(t.apply(np.array([[1.5, 7.0]])), [[0.5, 0.5]])
    with pytest.raises(DataError):
        data.fit_minmax(np.zeros((0, 2)))


def test_id_mixture_is_deterministic_per_seed():
    a = data.gen_id_mixture_raw(4, 50, 1.0, 0.18, seed=3)
    b = data.gen_id_mixture_raw(4, 50, 1.0, 0.18, seed=3)
    c = data.gen_id_mixture_raw(4, 50, 1.0, 0.18, seed=4)
    assert a.x.tobytes() == b.x.tobytes() and np.array_equal(a.y, b.y)
    assert a.x.tobytes() != c.x.tobytes()
    assert np.array_equal(np.bincount(a.y), [50] * 4)
    with pytest.raises(ConfigError):
        data.gen_id_mixture_raw(1, 50, 1.0, 0.18, seed=3)


def test_ring_stays_in_its_annulus_and_is_deterministic():
    ring = data.gen_ring_ood_raw(1.5, 2.2, 2000, seed=5).x
    assert ring.tobytes() == data.gen_ring_ood_raw(1.5, 2.2, 2000, seed=5).x.tobytes()
    r = np.hypot(ring[:, 0], ring[:, 1])
    assert r.min() >= 1.5 - 1e-12 and r.max() <= 2.2 + 1e-12
    # Full coverage: every quadrant is hit.
    quadrants = (ring[:, 0] > 0).astype(int) * 2 + (ring[:, 1] > 0)
    assert set(quadrants) == {0, 1, 2, 3}
    with pytest.raises(ConfigError):
        data.gen_ring_ood_raw(2.2, 1.5, 10, seed=5)


def test_arc_outliers_stay_inside_their_arc():
    arc = data.gen_arc_outliers_raw(1.5, 2.2, 0.25, 2000, seed=6).x
    assert arc.tobytes() == data.gen_arc_outliers_raw(1.5, 2.2, 0.25, 2000, seed=6).x.tobytes()
    r = np.hypot(arc[:, 0], arc[:, 1])
    theta = np.arctan2(arc[:, 1], arc[:, 0])
    assert r.min() >= 1.5 - 1e-12 and r.max() <= 2.2 + 1e-12
    assert theta.min() >= 0.0 and theta.max() <= np.pi / 2 + 1e-12
    with pytest.raises(ConfigError):
        data.gen_arc_outliers_raw(1.5, 2.2, 0.0, 10, seed=6)


def test_normalized_generators_apply_the_given_transform():
    t = data.fit_minmax(np.array([[-2.5, -2.5], [2.5, 2.5]]))
    ring = data.gen_ring_ood(1.5, 2.2, 100, seed=7, transform=t)
    assert ring.x.tobytes() == t.apply(data.gen_ring_ood_raw(1.5, 2.2, 100, seed=7).x).tobytes()
    arc = data.gen_arc_outliers(1.5, 2.2, 0.5, 100, seed=8, transform=t)
    raw = data.gen_arc_outliers_raw(1.5, 2.2, 0.5, 100, seed=8).x
    assert arc.x.tobytes() == t.apply(raw).tobytes()


@pytest.mark.parametrize("n, batch_size", [(10, 3), (12, 4), (5, 8), (0, 2)])
def test_batches_cover_every_row_once_per_seed(n, batch_size):
    # Row i holds feature i and label i, so each batch shows which rows it took.
    ds = data.LabeledDataset(np.arange(n, dtype=float).reshape(n, 1), np.arange(n))
    for seed in (0, 1):
        parts = list(data.batches(ds, batch_size, seed=seed))
        assert [y.size for _, y in parts] == [min(batch_size, n - i)
                                              for i in range(0, n, batch_size)]
        assert all(np.array_equal(x[:, 0], y) for x, y in parts)
        assert sorted(i for _, y in parts for i in y) == list(range(n))
    order = [x.tobytes() for x, _ in data.batches(ds, batch_size, seed=0)]
    assert [x.tobytes() for x, _ in data.batches(ds, batch_size, seed=0)] == order
    unlabeled = data.batches(data.UnlabeledDataset(ds.x), batch_size, seed=0)
    assert [x.tobytes() for x in unlabeled] == order
    with pytest.raises(ConfigError):
        list(data.batches(ds, 0, seed=0))
