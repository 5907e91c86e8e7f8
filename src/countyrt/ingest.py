"""Loading, validation, and country aggregation of case-count CSVs.

Canonical format: long CSV with header ``region_id,date,cases``, ISO
dates, UTF-8. Foreign schemas are handled by remapping column names.
Rows are aggregated by (region, date), gaps are zero-filled so the panel
is contiguous, and regions are sorted by id for determinism.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass, field

import numpy as np

from .model import IncidencePanel


class PanelFormatError(ValueError):
    """Raised when an input file cannot be parsed into a panel."""


@dataclass
class ValidationReport:
    rows_read: int = 0
    duplicates_merged: int = 0
    negatives_clamped: int = 0
    warnings: list = field(default_factory=list)


def _first_seen(values) -> tuple:
    """Distinct values in order of first appearance, and each value's index among them."""
    lookup: dict = {}
    inverse = [lookup.setdefault(v, len(lookup)) for v in values]
    return list(lookup), np.array(inverse, dtype=np.intp)


def _stripped_index(values) -> tuple:
    """Distinct stripped values and each value's index among them.

    Each distinct raw string is stripped once.
    """
    raw, raw_of = _first_seen(values)
    stripped, of_raw = _first_seen([v.strip() for v in raw])
    return stripped, of_raw[raw_of]


def _region_index(rows, ri: int) -> tuple:
    """Stripped region ids, each row's index among them, and the rows with none."""
    ids, of = _stripped_index([row[ri] for row in rows])
    return ids, of, np.flatnonzero(np.array([not r for r in ids], dtype=bool)[of])


def _parse_column(values, parse) -> tuple:
    """parse(value.strip()) for every row, each distinct string parsed once.

    Rows that fail to parse get 0. Also returns the index and raw string of
    the first row that fails, or None when every row parses.
    """
    raw, of = _first_seen(values)
    parsed, failed = [], []
    for k, value in enumerate(raw):
        try:
            parsed.append(parse(value.strip()))
        except ValueError:
            parsed.append(0)
            failed.append(k)
    # distinct strings are numbered in order of first appearance, so the
    # first one that fails also fails on the earliest row
    bad = None if not failed else (int(np.argmax(of == failed[0])), raw[failed[0]])
    return np.array(parsed, dtype=np.int64)[of], bad


def _is_blank(row) -> bool:
    return all(not f.strip() for f in row)


def load_panel(
    path,
    region_col: str = "region_id",
    date_col: str = "date",
    cases_col: str = "cases",
    delimiter: str = ",",
):
    """Read a long CSV into an (IncidencePanel, ValidationReport) pair.

    Duplicate (region, date) rows are summed; negative counts are clamped
    to zero and tallied in the report. Blank rows are skipped. The first
    invalid row of the file raises PanelFormatError with its line number:
    a repeated header, too few fields, an empty region id, an invalid
    date or an invalid case count, checked in that order within a row.

    The rows are read in one csv pass and then handled a column at a time:
    each distinct region, date and count string is stripped and parsed
    once, the region ids are sorted with ``np.unique`` and the cells are
    summed with ``np.add.at``.
    """
    report = ValidationReport()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        try:
            ri = header.index(region_col)
            di = header.index(date_col)
            ci = header.index(cases_col)
        except ValueError:
            raise PanelFormatError(
                f"{path}: header {header} lacks required columns "
                f"({region_col}, {date_col}, {cases_col})"
            ) from None
        rows = list(reader)

    # (line, rule order, message) of the first row that breaks each rule
    errors = []
    # rows[j] is on line j + 2; rows with too few fields are blank or invalid
    width = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    full = width > max(ri, di, ci)
    too_few = [j for j in np.flatnonzero(~full) if not _is_blank(rows[j])]
    if too_few:
        errors.append((too_few[0] + 2, 1, f"too few fields: {rows[too_few[0]]}"))
    data = np.flatnonzero(full)  # the file row of each row kept
    if data.size < len(rows):
        rows = [rows[j] for j in data]

    region_ids, region_of, no_region = _region_index(rows, ri)
    blank = [j for j in no_region if _is_blank(rows[j])]
    if blank:
        kept = np.setdiff1d(np.arange(len(rows)), blank)
        rows, data = [rows[j] for j in kept], data[kept]
        region_ids, region_of, no_region = _region_index(rows, ri)
    if no_region.size:
        errors.append((data[no_region[0]] + 2, 2, "empty region id"))
    is_header = np.array([r == header[ri] for r in region_ids], dtype=bool)
    for j in np.flatnonzero(is_header[region_of]):
        if [f.strip() for f in rows[j]] == header:
            errors.append((data[j] + 2, 0, "duplicate header row"))
            break

    day, bad = _parse_column(
        [row[di] for row in rows], lambda v: datetime.date.fromisoformat(v).toordinal()
    )
    if bad is not None:
        errors.append((data[bad[0]] + 2, 3, f"invalid date {bad[1]!r}"))
    cases, bad = _parse_column([row[ci] for row in rows], int)
    if bad is not None:
        errors.append((data[bad[0]] + 2, 4, f"invalid case count {bad[1]!r}"))

    if errors:
        lineno, _, message = min(errors)
        raise PanelFormatError(f"{path}:{lineno}: {message}")
    if not rows:
        raise PanelFormatError(f"{path}: no data rows")

    negative = cases < 0
    report.negatives_clamped = int(negative.sum())
    cases[negative] = 0
    if report.negatives_clamped:
        report.warnings.append(
            f"clamped {report.negatives_clamped} negative counts to 0"
        )
    report.rows_read = len(rows)

    regions, region_index = np.unique(
        np.array(region_ids, dtype=object), return_inverse=True
    )
    d_min = datetime.date.fromordinal(int(day.min()))
    n_days = int(day.max()) - d_min.toordinal() + 1
    cell = region_index.ravel()[region_of] * n_days + (day - d_min.toordinal())
    report.duplicates_merged = len(rows) - int(np.count_nonzero(np.bincount(cell)))
    counts = np.zeros(len(regions) * n_days, dtype=np.int64)
    np.add.at(counts, cell, cases)
    dates = tuple(d_min + datetime.timedelta(days=i) for i in range(n_days))
    return (
        IncidencePanel(tuple(regions.tolist()), dates, counts.reshape(len(regions), n_days)),
        report,
    )


def write_panel(panel: IncidencePanel, path) -> None:
    """Write the canonical long CSV (region-major, then date)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region_id", "date", "cases"])
        for c, region in enumerate(panel.region_ids):
            for t, day in enumerate(panel.dates):
                writer.writerow([region, day.isoformat(), int(panel.counts[c, t])])


def aggregate_country(panel: IncidencePanel) -> IncidencePanel:
    """Sum over regions into a single-region panel with id "ALL"."""
    return IncidencePanel(
        ("ALL",), panel.dates, panel.counts.sum(axis=0, keepdims=True)
    )
