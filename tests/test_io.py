import numpy as np
import pytest

from sada import Dataset, ParseError, SchemaError
from sada.io import (
    format_human_table,
    load_dataset_csv,
    write_dataset_csv,
    write_efficiency_svg,
    write_sim_table,
)
from sada.simulate import CurveRow


GOOD_CSV = """x_1,y,yhat_1,yhat_2
1.0,2.5,2.4,2.0
2.0,,3.1,3.0
3.0,1.5,1.6,1.2
4.0,,0.9,1.1
"""


def test_load_two_labeled_of_four(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(GOOD_CSV)
    loaded = load_dataset_csv(path)
    ds = loaded.dataset
    assert (ds.n, ds.N, ds.K, ds.d) == (2, 4, 2, 1)
    # labeled rows first, stable order, traceable to source rows
    assert np.allclose(ds.labels, [2.5, 1.5])
    assert np.allclose(ds.features[:, 0], [1.0, 3.0, 2.0, 4.0])
    assert list(loaded.original_rows) == [0, 2, 1, 3]
    assert loaded.prediction_columns == ("yhat_1", "yhat_2")


def test_missing_prediction_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,y\n1.0,2.0\n")
    with pytest.raises(SchemaError):
        load_dataset_csv(path)


def test_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,yhat_1\n1.0,2.0\n")
    with pytest.raises(SchemaError):
        load_dataset_csv(path)


def test_duplicate_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,yhat_1,yhat_1\n1.0,2.0,2.0\n")
    with pytest.raises(SchemaError):
        load_dataset_csv(path)


def test_non_numeric_label_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,y,yhat_1\n1.0,2.0,2.0\n1.0,abc,2.0\n")
    with pytest.raises(ParseError, match=r"row 3 column y.*'abc'"):
        load_dataset_csv(path)


def test_empty_prediction_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,y,yhat_1\n1.0,2.0,\n1.0,,2.0\n")
    with pytest.raises(ParseError, match="row 2 column yhat_1"):
        load_dataset_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,y,yhat_1\n1.0,2.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset_csv(path)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    y = rng.standard_normal(9)
    ds = Dataset.from_arrays(
        rng.standard_normal((9, 2)), y[:4], rng.standard_normal((9, 3))
    )
    path = tmp_path / "written.csv"
    write_dataset_csv(ds, path)
    assert load_dataset_csv(path).dataset == ds


def test_csv_without_features_is_fine(tmp_path):
    path = tmp_path / "nox.csv"
    path.write_text("y,yhat_1\n1.0,1.1\n,0.9\n")
    ds = load_dataset_csv(path).dataset
    assert ds.d == 0 and ds.n == 1 and ds.N == 2


def rows_fixture():
    return [
        CurveRow(0.0, "naive", 1.0, 0.95, 0.13, 0.5, 0.0, 0),
        CurveRow(0.0, "sada", 0.55, 0.94, 0.07, 0.5, 0.0, 0),
        CurveRow(1.0, "naive", 1.0, 0.95, 0.13, 0.5, 0.0, 0),
        CurveRow(1.0, "sada", 0.56, 0.93, 0.07, 0.5, 0.0, 0),
    ]


def test_sim_table_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sim_table(rows_fixture(), a)
    write_sim_table(rows_fixture(), b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("gamma,method,rel_efficiency,coverage")


def test_sim_table_flags_degenerate_sd(tmp_path):
    rows = [CurveRow(0.0, "sada", float("nan"), float("nan"), 0.0, 0.5, 0.0, 0)]
    path = tmp_path / "one.csv"
    write_sim_table(rows, path)
    assert "degenerate_sd" in path.read_text()


def test_svg_contains_curves_and_legend(tmp_path):
    path = tmp_path / "plot.svg"
    write_efficiency_svg(rows_fixture(), path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "sada" in text and "naive" in text


def test_human_table_uses_four_significant_digits():
    table = format_human_table(["method", "value"], [["sada", 0.123456789]])
    assert "0.1235" in table
    assert "0.123456789" not in table


def test_byte_order_mark_keeps_the_first_column(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    text = "x_1,x_2,y,yhat_1\n1.0,0.5,2.5,2.4\n1.0,-0.3,,3.1\n1.0,1.2,1.5,1.6\n1.0,0.1,,0.9\n"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    loaded = load_dataset_csv(bom)
    assert loaded.feature_columns == ("x_1", "x_2")
    assert loaded.dataset == load_dataset_csv(plain).dataset
