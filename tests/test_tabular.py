import numpy as np
import pytest

from moelearn import ingest_csv
from moelearn.errors import DataError


def _write_csv(path, header, rows):
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 1030
    x = rng.standard_normal((n, 3)) * [2.0, 0.5, 1.0] + [1.0, -2.0, 0.3]
    y = 3 * x[:, 0] - x[:, 1] + 0.1 * rng.standard_normal(n)
    path = tmp_path / "toy.csv"
    rows = [list(np.round(x[i], 8)) + [round(float(y[i]), 8)] for i in range(n)]
    _write_csv(path, ["f1", "f2", "f3", "y"], rows)
    return path


def test_split_sizes_and_whitening(toy_csv):
    tab = ingest_csv(toy_csv, ["f1", "f2", "f3"], "y", split=0.75, seed=1)
    # 1030 rows -> floor(772.5) train, 258 test
    assert tab.train_x.shape[0] == 772
    assert tab.test_x.shape[0] == 258
    assert np.allclose(tab.train_x.mean(axis=0), 0.0, atol=1e-6)
    cov = np.cov(tab.train_x, rowvar=False, bias=True)
    assert np.allclose(cov, np.eye(3), atol=1e-6)
    assert tab.train_y.min() == pytest.approx(-1.0)
    assert tab.train_y.max() == pytest.approx(1.0)


def test_test_set_uses_training_statistics(toy_csv):
    tab = ingest_csv(toy_csv, ["f1", "f2", "f3"], "y", split=0.75, seed=1)
    # test features are NOT exactly white (transformed with train stats only)
    assert not np.allclose(tab.test_x.mean(axis=0), 0.0, atol=1e-8)
    # but they are consistent: applying the recorded transform to raw rows
    rec = tab.preprocess
    raw = tab.test_x @ np.linalg.inv(rec.zca) + rec.feature_mean
    assert np.allclose(rec.transform_features(raw), tab.test_x, atol=1e-8)
    back = rec.inverse_target(tab.test_y)
    assert np.allclose(rec.transform_target(back), tab.test_y, atol=1e-10)


def test_already_white_data_transform_near_identity(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6000, 3))
    y = x @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(6000)
    path = tmp_path / "white.csv"
    rows = [list(x[i]) + [float(y[i])] for i in range(6000)]
    _write_csv(path, ["a", "b", "c", "y"], rows)
    tab = ingest_csv(path, ["a", "b", "c"], "y", seed=0)
    assert np.linalg.norm(tab.preprocess.zca - np.eye(3)) < 0.1


def test_constant_target_rejected(tmp_path):
    path = tmp_path / "const.csv"
    _write_csv(path, ["a", "y"], [[i, 5.0] for i in range(50)])
    with pytest.raises(DataError, match="constant"):
        ingest_csv(path, ["a"], "y")


def test_constant_feature_dropped_with_warning(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "constfeat.csv"
    rows = [[rng.normal(), 7.0, rng.normal()] for _ in range(200)]
    _write_csv(path, ["a", "c", "y"], rows)
    with pytest.warns(RuntimeWarning, match="constant feature"):
        tab = ingest_csv(path, ["a", "c"], "y", seed=0)
    assert tab.train_x.shape[1] == 1
    assert tab.feature_names == ["a"]


def test_non_numeric_rows_rejected_with_count(tmp_path):
    path = tmp_path / "dirty.csv"
    with path.open("w") as fh:
        fh.write("a,b,y\n")
        for i in range(100):
            fh.write(f"{i * 0.1},{np.sin(i)},{i * 0.01}\n")
        fh.write("oops,1.0,2.0\n")
        fh.write("1.0,n/a,2.0\n")
    tab = ingest_csv(path, ["a", "b"], "y", seed=0)
    assert tab.preprocess.rejected_rows == 2
    assert tab.train_x.shape[0] + tab.test_x.shape[0] == 100


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_nonfinite_feature_tokens_rejected_with_count(tmp_path, token):
    path = tmp_path / "nonfinite.csv"
    rows = [[i * 0.1, np.sin(i), i * 0.01] for i in range(100)]
    rows[7][1] = token
    rows[40][0] = token
    _write_csv(path, ["a", "b", "y"], rows)
    with pytest.raises(DataError, match="2 of 100 numeric rows have a non-finite feature"):
        ingest_csv(path, ["a", "b"], "y")


def test_missing_column_and_file_errors(tmp_path):
    path = tmp_path / "f.csv"
    _write_csv(path, ["a", "y"], [[1.0, 2.0], [2.0, 3.0], [3.0, 1.0], [0.5, 0.1]])
    with pytest.raises(DataError, match="not in header"):
        ingest_csv(path, ["missing"], "y")
    with pytest.raises(DataError):
        ingest_csv(tmp_path / "nope.csv", ["a"], "y")
    with pytest.raises(DataError):
        ingest_csv(path, ["a"], "y", split=1.5)


def test_split_determinism(toy_csv):
    t1 = ingest_csv(toy_csv, ["f1", "f2", "f3"], "y", seed=7)
    t2 = ingest_csv(toy_csv, ["f1", "f2", "f3"], "y", seed=7)
    assert np.array_equal(t1.train_x, t2.train_x)
    t3 = ingest_csv(toy_csv, ["f1", "f2", "f3"], "y", seed=8)
    assert not np.array_equal(t1.train_y, t3.train_y)
