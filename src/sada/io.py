"""CSV ingestion and report/table/plot emission.

CSV schema: feature columns are prefixed ``x_``, the label column is ``y``
(an empty cell marks an unlabeled row), prediction columns are prefixed
``yhat_`` and their lexical order defines k = 1..K.  Files are UTF-8 (a BOM
is skipped), comma-separated, header row required, ``.`` decimal point.

Machine tables carry full precision (17 significant digits); human tables
use 4.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .data import Dataset
from .errors import ParseError, SchemaError
from .estimators import EstimateReport
from .simulate import CurveRow


def _fmt(x: float, digits: int = 17) -> str:
    """x to ``digits`` significant digits; the default, full precision,
    round-trips doubles exactly."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{float(x):.{digits}g}"


@dataclass(frozen=True)
class LoadedCsv:
    """A validated dataset plus traceability back to the source file."""

    dataset: Dataset
    original_rows: np.ndarray  # position in the reordered dataset -> source data-row index (0-based)
    feature_columns: tuple[str, ...]
    prediction_columns: tuple[str, ...]


def load_dataset_csv(path: str | Path) -> LoadedCsv:
    """Parse a CSV file into a validated, labeled-rows-first dataset.

    The body is read by one ``np.loadtxt`` call.  Where that call fails, or
    the file holds a line it would skip or join, the per-cell reader reads the
    file again: it accepts the same values plus the rest of Python's float
    syntax (``1_000``, non-ASCII digits), or raises the ParseError that names
    the row and column.

    Raises:
        SchemaError: missing header, no yhat_ column, or duplicated names.
        ParseError: a non-numeric or empty x_/yhat_ cell (with location), a
            line that ``csv.reader`` rejects (with its line number), or a file
            that is not UTF-8 text.
        Validation errors from the dataset layer (all rows labeled, etc.).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(_csv_rows(path, fh))
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header")
        feature_cols = sorted(h for h in header if h.startswith("x_"))
        pred_cols = sorted(h for h in header if h.startswith("yhat_"))
        if not pred_cols:
            raise SchemaError(f"{path}: no yhat_ prediction columns found")
        if "y" not in header:
            raise SchemaError(f"{path}: no y label column found")
        # Table columns: the features, the predictions, then y.
        columns = [header.index(name) for name in feature_cols + pred_cols + ["y"]]
        table = _loadtxt_body(fh, len(header), columns)

    if table is None:
        table, labeled = _per_cell_body(path, header, columns)
    else:
        labeled = ~np.isnan(table[:, -1])
    order = np.concatenate([np.flatnonzero(labeled), np.flatnonzero(~labeled)])
    table = table[order]
    d = len(feature_cols)
    dataset = Dataset.from_arrays(
        features=table[:, :d],
        labels=table[: np.count_nonzero(labeled), -1],
        predictions=table[:, d:-1],
    )
    return LoadedCsv(
        dataset=dataset,
        original_rows=order,
        feature_columns=tuple(feature_cols),
        prediction_columns=tuple(pred_cols),
    )


def _loadtxt_body(fh, width: int, columns: list[int]) -> np.ndarray | None:
    """The rest of ``fh`` as one table over ``columns``, y (last) NaN where
    unlabeled, or None where the per-cell reader has to decide.

    None means a cell ``loadtxt`` cannot parse, a non-finite label, a byte
    that is not UTF-8, a row whose cell count is not the header's, or a line
    that ``loadtxt`` skips (an empty one) or joins to the next (a quoted line
    break).  ``loadtxt`` checks that every row has as many cells as the
    first, and the shape check compares the first to the header.  Cells
    outside the schema therefore convert to 0 rather than being dropped by
    ``usecols``, which turns that per-row check off.
    """
    lines = 0

    def body():
        nonlocal lines
        for lines, line in enumerate(fh, start=1):
            yield line

    rows = body()
    first = next(rows, "")
    if not first.strip():  # no rows, or a blank first line
        return None
    converters = {j: (lambda cell: 0.0) for j in range(width) if j not in columns}
    converters[columns[-1]] = _label_cell
    try:
        table = np.loadtxt(
            chain([first], rows), delimiter=",", quotechar='"', comments=None, ndmin=2,
            converters=converters,
        )
    except (ValueError, UnicodeDecodeError):
        return None
    return table[:, columns] if table.shape == (lines, width) else None


def _label_cell(cell: str) -> float:
    """An empty y cell is NaN, for unlabeled; a non-finite label raises, so it never reads as unlabeled."""
    if not cell.strip():
        return math.nan
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite label {cell!r}")
    return value


def _per_cell_body(path: Path, header: list[str], columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The body cell by cell with ``csv.reader`` and ``float``: the table of
    ``_loadtxt_body`` and the labeled-row mask, or a ParseError that names the
    row and column."""
    rows, labeled = [], []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(path, fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            values = [_parse_cell(path, line_no, header[j], row[j]) for j in columns[:-1]]
            y_cell = row[columns[-1]].strip()
            labeled.append(y_cell != "")
            values.append(_parse_cell(path, line_no, "y", y_cell) if y_cell else math.nan)
            rows.append(values)
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return table, np.array(labeled, dtype=bool)


def _csv_rows(path: Path, fh) -> Iterator[list[str]]:
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_cell(path: Path, line_no: int, column: str, cell: str) -> float:
    cell = cell.strip()
    if cell == "":
        raise ParseError(f"{path}: row {line_no} column {column}: empty cell")
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: row {line_no} column {column}: could not parse {cell!r}"
        ) from None


def write_dataset_csv(
    ds: Dataset,
    path: str | Path,
    feature_names: Sequence[str] | None = None,
    prediction_names: Sequence[str] | None = None,
) -> None:
    """Write a dataset in the input schema (empty y cells on unlabeled rows)."""
    feature_names = list(feature_names or (f"x_{j + 1}" for j in range(ds.d)))
    prediction_names = list(prediction_names or (f"yhat_{k}" for k in range(1, ds.K + 1)))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(feature_names + ["y"] + prediction_names)
        for i in range(ds.N):
            row = [_fmt(v) for v in ds.features[i]]
            row.append(_fmt(ds.labels[i]) if i < ds.n else "")
            row.extend(_fmt(v) for v in ds.predictions[i])
            writer.writerow(row)


def write_sim_table(rows: Sequence[CurveRow], path: str | Path) -> None:
    """Long-format efficiency table, deterministic byte-for-byte."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["gamma", "method", "rel_efficiency", "coverage", "sd", "mean", "bias", "failures", "flags"]
        )
        for r in rows:
            flags = "degenerate_sd" if math.isnan(r.rel_efficiency) else ""
            writer.writerow(
                [
                    _fmt(r.gamma),
                    r.method,
                    _fmt(r.rel_efficiency),
                    _fmt(r.coverage),
                    _fmt(r.sd),
                    _fmt(r.mean),
                    _fmt(r.bias),
                    str(r.failures),
                    flags,
                ]
            )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def write_efficiency_svg(rows: Sequence[CurveRow], path: str | Path) -> None:
    """Minimal vector rendering of the relative-efficiency curves."""
    methods = list(dict.fromkeys(r.method for r in rows))
    width, height, ml, mr, mt, mb = 640, 420, 60, 150, 20, 45
    finite = [r.rel_efficiency for r in rows if not math.isnan(r.rel_efficiency)]
    y_max = max(1.1, max(finite) * 1.05) if finite else 1.1
    gammas = sorted({r.gamma for r in rows})
    g_min, g_max = min(gammas), max(gammas)
    span = (g_max - g_min) or 1.0

    def sx(g):
        return ml + (g - g_min) / span * (width - ml - mr)

    def sy(v):
        return mt + (1.0 - v / y_max) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{sy(0)}" x2="{width - mr}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{sy(1.0):.2f}" x2="{width - mr}" y2="{sy(1.0):.2f}" '
        'stroke="grey" stroke-dasharray="4 3"/>',
    ]
    for g in gammas:
        parts.append(
            f'<text x="{sx(g):.2f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{g:g}</text>'
        )
    ticks = 5
    for t in range(ticks + 1):
        v = y_max * t / ticks
        parts.append(
            f'<text x="{ml - 8}" y="{sy(v):.2f}" font-size="11" text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 8}" font-size="12" '
        'text-anchor="middle">gamma</text>'
    )
    for idx, method in enumerate(methods):
        pts = [
            (r.gamma, r.rel_efficiency)
            for r in rows
            if r.method == method and not math.isnan(r.rel_efficiency)
        ]
        if not pts:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(g):.2f},{sy(v):.2f}" for g, v in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = mt + 16 * (idx + 1)
        parts.append(f'<line x1="{width - mr + 10}" y1="{ly}" x2="{width - mr + 34}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{width - mr + 40}" y="{ly + 4}" font-size="11">{method}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _report_record(report: EstimateReport) -> dict:
    record = {
        "method": report.method,
        "theta_hat": [float(v) for v in report.theta_hat],
        "diagnostics": _jsonable(report.diagnostics),
    }
    if report.intervals is not None:
        record["ci_lower"] = [float(v) for v in report.intervals.lower]
        record["ci_upper"] = [float(v) for v in report.intervals.upper]
        record["level"] = report.intervals.level
    if report.covariance is not None:
        record["covariance"] = [[float(v) for v in row] for row in np.atleast_2d(report.covariance)]
    if report.weights is not None:
        record["weights"] = [[float(v) for v in row] for row in np.atleast_2d(report.weights)]
    return record


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def write_estimate_reports(
    entries: Sequence[tuple[str, EstimateReport]],
    out_dir: str | Path,
    meta: dict,
) -> tuple[Path, Path]:
    """Write ``report.json`` (the structured report) and ``estimates.csv`` (flat) to out_dir.

    ``entries`` pairs each report with the method token that produced it;
    ``estimates.csv`` names its rows by token, so ``ppi:1`` and ``ppi:2`` differ.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    payload = dict(meta)
    payload["records"] = [_report_record(r) for _, r in entries]
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    csv_path = out_dir / "estimates.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "component", "estimate", "stderr", "ci_lower", "ci_upper"])
        for token, r in entries:
            n = meta.get("n_labeled")
            for j, est in enumerate(r.theta_hat):
                se = ""
                if r.covariance is not None and n:
                    se = _fmt(math.sqrt(max(float(np.atleast_2d(r.covariance)[j, j]), 0.0) / n))
                lo = _fmt(r.intervals.lower[j]) if r.intervals is not None else ""
                hi = _fmt(r.intervals.upper[j]) if r.intervals is not None else ""
                writer.writerow([token, str(j + 1), _fmt(est), se, lo, hi])
    return json_path, csv_path


def write_compare_table(
    entries: Sequence[tuple[str, EstimateReport, float]],
    out_dir: str | Path,
) -> Path:
    """Write ``compare.csv``: method by method, sorted by estimated variance (ascending)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "compare.csv"
    p = len(entries[0][1].theta_hat)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["method", "est_variance"]
        for j in range(1, p + 1):
            header += [f"estimate_{j}", f"ci_lower_{j}", f"ci_upper_{j}"]
        header.append("weights")
        writer.writerow(header)
        for token, report, variance in entries:
            row = [token, _fmt(variance)]
            for j in range(p):
                row.append(_fmt(report.theta_hat[j]))
                row.append(_fmt(report.intervals.lower[j]) if report.intervals else "")
                row.append(_fmt(report.intervals.upper[j]) if report.intervals else "")
            weights = ""
            if report.weights is not None:
                weights = ";".join(_fmt(v) for v in np.asarray(report.weights).ravel())
            row.append(weights)
            writer.writerow(row)
    return path


def format_human_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table with 4-significant-digit numbers."""
    cells = [[_fmt(c, 4) if isinstance(c, float) else str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
