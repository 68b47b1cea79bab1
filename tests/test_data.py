import csv
import io

import numpy as np
import pytest

from oodbench import data
from oodbench.errors import DataError


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
    ("x0,label\n0.1,0\n0.2,99999999999999999999\n", ":3: bad label"),
    pytest.param(b"x0,x1\n0.1,\xff\n", "can't decode byte 0xff", id="not-utf-8"),
    pytest.param("x0,x1\n0." + "1" * 131072 + ",0.2\n", "field limit", id="field-over-limit"),
    # One line past the first block of rows, which spans lines 2 to CSV_BLOCK_ROWS + 1.
    pytest.param("x0,x1\n" + "0.1,0.2\n" * data.CSV_BLOCK_ROWS + "0.1,abc\n",
                 f":{data.CSV_BLOCK_ROWS + 2}: could not convert string to float: 'abc'",
                 id="bad-float-past-the-first-block"),
    pytest.param("x0,x1\n" + "0.1,0.2\n" * data.CSV_BLOCK_ROWS + "0.1\n",
                 f":{data.CSV_BLOCK_ROWS + 2}: expected 2 fields, got 1",
                 id="short-row-past-the-first-block"),
    # A block that is not ragged but one field too wide in every row.
    pytest.param("x0,x1\n0.1,0.2,0.3\n0.4,0.5,0.6\n", ":2: expected 2 fields, got 3",
                 id="every-row-one-field-too-many"),
    pytest.param("x0,label\n0.1,0\n0.2,1.0\n", ":3: bad label '1.0'", id="float-label"),
])
def test_load_csv_rejects_malformed_rows(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(DataError, match=match):
        data.load_csv(path)


def test_csv_round_trip_over_several_blocks(tmp_path):
    # 2.5 blocks: two full ones and a ragged third.
    n = data.CSV_BLOCK_ROWS * 5 // 2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
    labeled = data.LabeledDataset(x, rng.integers(0, 4, n))
    data.save_csv(labeled, tmp_path / "l.csv")
    back = data.load_csv(tmp_path / "l.csv")
    assert back.x.tobytes() == x.tobytes() and back.y.tobytes() == labeled.y.tobytes()
    data.save_csv(data.UnlabeledDataset(x), tmp_path / "u.csv")
    assert data.load_csv(tmp_path / "u.csv").x.tobytes() == x.tobytes()


def test_load_csv_reports_an_undecodable_line_past_a_bad_one(tmp_path):
    # A bad float in the first block, bytes that are not UTF-8 two blocks on:
    # the decoding error is reported, as a whole-file read reports it.
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x0,x1\n0.1,abc\n" + b"0.1,0.2\n" * (2 * data.CSV_BLOCK_ROWS) + b"\xff,0\n")
    with pytest.raises(DataError, match="can't decode byte 0xff"):
        data.load_csv(path)


def test_write_table_matches_per_row_csv_writer(tmp_path):
    header = ["a", "b,c", "d"]
    rows = [[None, -0.0, 5e-324], [1e16, 'say "hi", twice', 3]]
    for table in (rows, []):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in table:
            writer.writerow(row)
        data.write_table(tmp_path / "t.csv", header, iter(table))
        assert (tmp_path / "t.csv").read_bytes() == buf.getvalue().encode("utf-8")
    assert (tmp_path / "t.csv").read_bytes() == b'a,"b,c",d\n'
    data.write_table(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes().splitlines()[1:] == [
        b",-0.0,5e-324", b'1e+16,"say ""hi"", twice",3']


def _csv_writer_bytes(dataset) -> bytes:
    """The file a per-row ``csv.writer`` writes: the reference for ``save_csv``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    labeled = isinstance(dataset, data.LabeledDataset)
    writer.writerow([f"x{i}" for i in range(dataset.x.shape[1])] + (["label"] if labeled else []))
    for i in range(dataset.x.shape[0]):
        row = [format(v, ".17g") for v in dataset.x[i]]
        writer.writerow(row + [str(int(dataset.y[i]))] if labeled else row)
    return buf.getvalue().encode("utf-8")


EXTREMES = np.array([[-0.0, 0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308, 1e-300],
                     [0.1, -1e22, 123456789.123456789], [1e16, -1e-5, 1.0 / 3.0]])


@pytest.mark.parametrize("dataset", [
    data.LabeledDataset(EXTREMES, [0, 3, 11, 2]),
    data.UnlabeledDataset(EXTREMES),
    data.LabeledDataset(np.zeros((0, 2)), np.zeros(0)),
    data.UnlabeledDataset(np.zeros((0, 3))),
    data.UnlabeledDataset(np.zeros((3, 0))),
    data.UnlabeledDataset(np.random.default_rng(1).uniform(0.0, 1.0, (50, 2))),
], ids=["labeled", "unlabeled", "empty-labeled", "empty-unlabeled", "no-columns", "uniform"])
def test_save_csv_matches_a_per_row_csv_writer(tmp_path, dataset):
    data.save_csv(dataset, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == _csv_writer_bytes(dataset)
    back = data.load_csv(tmp_path / "d.csv")
    assert back.x.tobytes() == dataset.x.tobytes()


# Each file has several bad lines; the first decides, whatever check the later ones fail.
@pytest.mark.parametrize("body, match", [
    ("0.1,0\n0.2\nabc,1\nnan,1\n0.3,x\n", ":3: expected 2 fields, got 1"),
    ("0.1,0\nabc,1\n0.2\nnan,1\n", ":3: could not convert string to float: 'abc'"),
    ("nan,1\n0.2\nabc,1\n0.3,x\n", ":2: non-finite value"),
    ("0.1,one\nnan,0\n", ":2: bad label 'one'"),
    ("0.1,0\n0.2,1\n-inf,2\n0.4,2.5\n", ":4: non-finite value"),
    ("abc,x,1\n", ":2: expected 2 fields, got 3"),  # one line, several faults
    ("abc,x\n", ":2: could not convert string to float: 'abc'"),
    ("nan,x\n", ":2: non-finite value"),
])
def test_load_csv_names_the_first_bad_line(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("x0,label\n" + body, encoding="utf-8")
    with pytest.raises(DataError, match=match):
        data.load_csv(path)


def test_load_csv_reads_crlf_line_ends(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"x0,x1,label\r\n0.25,-0.0,1\r\n1e-300,3,0\r\n")
    back = data.load_csv(path)
    assert back.x.tobytes() == np.array([[0.25, -0.0], [1e-300, 3.0]]).tobytes()
    assert back.y.tolist() == [1, 0]


def test_fit_minmax_takes_the_largest_radius_or_the_farthest_coordinate():
    inside = np.array([[0.5, -1.0], [2.0, 0.25]])
    assert data.fit_minmax([2.2, 3.0], inside) == 3.0
    outside = np.array([[0.5, -4.5], [2.0, 0.25]])
    assert data.fit_minmax([2.2, 3.0], inside, outside) == 4.5
    r = data.fit_minmax([0.5], outside)
    scaled = (outside + r) / (2 * r)  # the farthest coordinate lands on the box's edge
    assert r == 4.5 and scaled.min() == 0.0 and scaled.max() <= 1.0


def test_id_mixture_is_deterministic_per_seed():
    a = data.gen_id_mixture_raw(4, 50, seed=3)
    b = data.gen_id_mixture_raw(4, 50, seed=3)
    c = data.gen_id_mixture_raw(4, 50, seed=4)
    assert a.x.tobytes() == b.x.tobytes() and np.array_equal(a.y, b.y)
    assert a.x.tobytes() != c.x.tobytes()
    assert np.array_equal(np.bincount(a.y), [50] * 4)
    empty = data.gen_id_mixture_raw(4, 0, seed=3)
    assert empty.x.shape == (0, 2) and empty.y.shape == (0,) and empty.y.dtype == np.intp


def test_ring_stays_in_its_annulus_and_is_deterministic():
    ring = data.gen_ring_ood(1.5, 2.2, 2000, seed=5).x
    assert ring.tobytes() == data.gen_ring_ood(1.5, 2.2, 2000, seed=5).x.tobytes()
    r = np.hypot(ring[:, 0], ring[:, 1])
    assert r.min() >= 1.5 - 1e-12 and r.max() <= 2.2 + 1e-12
    # Full coverage: every quadrant is hit.
    quadrants = (ring[:, 0] > 0).astype(int) * 2 + (ring[:, 1] > 0)
    assert set(quadrants) == {0, 1, 2, 3}


def test_arc_outliers_stay_inside_their_arc():
    arc = data.gen_arc_outliers(1.5, 2.2, 0.25, 2000, seed=6).x
    assert arc.tobytes() == data.gen_arc_outliers(1.5, 2.2, 0.25, 2000, seed=6).x.tobytes()
    r = np.hypot(arc[:, 0], arc[:, 1])
    theta = np.arctan2(arc[:, 1], arc[:, 0])
    assert r.min() >= 1.5 - 1e-12 and r.max() <= 2.2 + 1e-12
    assert theta.min() >= 0.0 and theta.max() <= np.pi / 2 + 1e-12


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
