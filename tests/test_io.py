import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sada.io
from sada import Dataset, NoLabeledRows, NonFiniteValue, ParseError, SadaError, SchemaError
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


# --- the loadtxt reader and the per-cell reader agree ---

def outcome(path):
    """What loading gives: every array of the result with its dtype and shape,
    or the class and message of the error."""
    try:
        loaded = load_dataset_csv(path)
    except SadaError as exc:
        return type(exc), str(exc)
    ds = loaded.dataset
    arrays = (ds.features, ds.labels, ds.predictions, loaded.original_rows)
    columns = (loaded.feature_columns, loaded.prediction_columns)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], columns


def per_cell_outcome(path, monkeypatch):
    """``outcome`` with the loadtxt step forced to raise, so the per-cell reader reads every file."""
    def broken(*args, **kwargs):
        raise ValueError("loadtxt forced to fail")

    with monkeypatch.context() as patch:
        patch.setattr(sada.io.np, "loadtxt", broken)
        return outcome(path)


H = "x_1,y,yhat_1\n"
READER_CASES = {
    # name: (file bytes, None if it loads, else the error class and a part of its message)
    "quoted_and_padded": (H + '"1.0", 2.5 ," 2.4 "\n 2.0 ,,3.1\n"3.0" ,"", 1e3\n', None),
    "underscore_separator": (H + "1_000,2.5,2.4\n2.0,,3.1\n", None),
    "non_ascii_digits": (H + "\u0661\u0662,2.5,2.4\n2.0,,\u0663\n", None),
    "nan_feature": (H + "nan,2.5,2.4\n2.0,,3.1\n", (NonFiniteValue, "features")),
    "inf_prediction": (H + "1.0,2.5,-inf\n2.0,,3.1\n", (NonFiniteValue, "predictions")),
    "nan_label_is_not_unlabeled": (H + "1.0,2.5,2.4\n2.0,nan,3.1\n3.0,,1.0\n", (NonFiniteValue, "labels")),
    "whitespace_label_is_unlabeled": (H + "1.0,2.5,2.4\n2.0,   ,3.1\n", None),
    "quoted_empty_label_is_unlabeled": (H + '1.0,2.5,2.4\n2.0,"",3.1\n', None),
    "blank_line_in_the_middle": (H + "1.0,2.5,2.4\n\n2.0,,3.1\n", (ParseError, "row 3: expected 3 cells, got 0")),
    "blank_line_at_the_end": (H + "1.0,2.5,2.4\n2.0,,3.1\n\n", (ParseError, "row 4: expected 3 cells, got 0")),
    "blank_first_line": (H + "\n1.0,2.5,2.4\n2.0,,3.1\n", (ParseError, "row 2: expected 3 cells, got 0")),
    "blank_lines_only": (H + "\n\n", (ParseError, "row 2: expected 3 cells, got 0")),
    "whitespace_only_line": (H + "1.0,2.5,2.4\n   \n2.0,,3.1\n", (ParseError, "row 3: expected 3 cells, got 1")),
    "hash_cell": (H + "1.0,2.5,#\n2.0,,3.1\n", (ParseError, "row 2 column yhat_1: could not parse '#'")),
    "hash_line": (H + "1.0,2.5,2.4\n# note\n2.0,,3.1\n", (ParseError, "row 3: expected 3 cells, got 1")),
    "ragged_short_row": (H + "1.0,2.5,2.4\n2.0,3.1\n", (ParseError, "row 3: expected 3 cells, got 2")),
    "ragged_long_row": (H + "1.0,2.5,2.4\n2.0,,3.1,4.0\n", (ParseError, "row 3: expected 3 cells, got 4")),
    "every_row_short": (H + "1.0,2.5\n2.0,\n", (ParseError, "row 2: expected 3 cells, got 2")),
    "columns_in_any_order": ("yhat_2,y,x_2,yhat_1,x_1\n0.5,2.5,1.0,2.4,3.0\n0.7,,2.0,3.1,4.0\n", None),
    "extra_text_columns": ('id,x_1,y,yhat_1,note\na7,1.0,2.5,2.4,"b, c"\n,2.0,,3.1,d\n', None),
    "extra_column_missing": (
        "x_1,y,yhat_1,note\n1.0,2.5,2.4,a\n2.0,,3.1\n", (ParseError, "row 3: expected 4 cells, got 3")
    ),
    "crlf": (H.replace("\n", "\r\n") + "1.0,2.5,2.4\r\n2.0,,3.1\r\n", None),
    "cr": (H.replace("\n", "\r") + "1.0,2.5,2.4\r2.0,,3.1\r", None),
    "quoted_line_break": (H + '1.0,2.5,"2.4\n"\n2.0,,3.1\n', None),
    "byte_order_mark": ("\ufeff" + H + "1.0,2.5,2.4\n2.0,,3.1\n", None),
    "header_only": (H, (NoLabeledRows, "no labeled rows")),
    "not_utf8": (H.encode() + b"1.0,2.5,2.4\n2.0,,\xff3.1\n", (ParseError, "not UTF-8 text")),
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_loadtxt_and_per_cell_readers_agree(tmp_path, monkeypatch, name):
    content, error = READER_CASES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body with no rows
        shipped = outcome(path)
    assert shipped == per_cell_outcome(path, monkeypatch)
    if error is None:
        assert isinstance(shipped[0], list), shipped
    else:
        assert shipped[0] is error[0] and error[1] in shipped[1], shipped


@pytest.mark.parametrize(
    "name", ["quoted_and_padded", "columns_in_any_order", "extra_text_columns", "crlf", "byte_order_mark"]
)
def test_clean_files_never_reach_the_per_cell_reader(tmp_path, monkeypatch, name):
    def unused(*args):
        raise AssertionError("the per-cell reader ran")

    monkeypatch.setattr(sada.io, "_per_cell_body", unused)
    path = tmp_path / "data.csv"
    path.write_text(READER_CASES[name][0], encoding="utf-8")
    load_dataset_csv(path)


CELLS = st.sampled_from(
    ["1", "-2.5", " 3 ", '"4"', '" 5e-1 "', "1_000", "nan", "-inf", "1e999",
     "", "  ", '""', "#", "a", '"1,2"', '"1"2', ' "1"', "0x1", "\u0661"]
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    rows=st.lists(st.lists(CELLS, min_size=3, max_size=3) | st.lists(CELLS, max_size=4), max_size=6),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_both_readers_agree_on_any_cells(tmp_path_factory, rows, eol):
    path = tmp_path_factory.mktemp("cells") / "data.csv"
    path.write_text(eol.join(["x_1,y,yhat_1"] + [",".join(r) for r in rows]) + eol, encoding="utf-8")
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert outcome(path) == per_cell_outcome(path, monkeypatch)


def test_loadtxt_returns_the_doubles_written_at_17_digits(tmp_path, monkeypatch):
    # the shape of the benchmark's estimate input (N = 5e4, d = 3, K = 5),
    # with labeled rows spread through the file
    rng = np.random.default_rng(12)
    N = 50_000
    X = np.column_stack([np.ones(N), rng.standard_normal((N, 2))])
    y = X @ np.array([1.0, 0.5, -0.25]) + rng.standard_normal(N)
    preds = np.array([1.0, 10.0, 0.1, 3.0, 1.0]) * (y[:, None] + rng.standard_normal((N, 5)))
    labeled = rng.random(N) < 0.1
    lines = ["x_1,x_2,x_3,y,yhat_1,yhat_2,yhat_3,yhat_4,yhat_5"]
    for i in range(N):
        label = "%.17g" % y[i] if labeled[i] else ""
        lines.append(",".join(["%.17g" % v for v in X[i]] + [label] + ["%.17g" % v for v in preds[i]]))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_dataset_csv(path)
    order = np.concatenate([np.flatnonzero(labeled), np.flatnonzero(~labeled)])
    assert np.array_equal(loaded.original_rows, order)
    assert loaded.original_rows.dtype == np.array([0]).dtype
    ds = loaded.dataset
    assert ds.features.tobytes() == X[order].tobytes()
    assert ds.labels.tobytes() == y[labeled].tobytes()
    assert ds.predictions.tobytes() == preds[order].tobytes()
    assert outcome(path) == per_cell_outcome(path, monkeypatch)
