"""Loading, validation, and country aggregation of case-count CSVs.

Canonical format: long CSV with header ``region_id,date,cases``, ISO
dates, UTF-8 with or without a byte-order mark. Foreign schemas are
handled by remapping column names. Rows are aggregated by (region, date),
gaps are zero-filled so the panel is contiguous, and regions are sorted
by id for determinism. The file is read in one streaming pass over its
rows.

``write_csv`` also writes every CSV the CLI produces, so the output
dialect is decided here, next to the reader.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path

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


def load_panel(
    path,
    region_col: str = "region_id",
    date_col: str = "date",
    cases_col: str = "cases",
):
    """Read a long CSV into an (IncidencePanel, ValidationReport) pair.

    Duplicate (region, date) rows are summed, and a sum outside int64
    raises PanelFormatError; negative counts are clamped to zero and
    tallied in the report. Blank rows are skipped. The first
    invalid row of the file raises PanelFormatError with its line number:
    a repeated header, too few fields, an empty region id, an invalid
    date or a case count that is not an int64, checked in that order
    within a row.

    Three caches map a raw region, date or count field of a row that
    passed these checks to its parsed value; a row whose three fields are
    all cached is taken unchecked. A region field that strips to nothing
    or to the header's name is never cached, and a short row fails the
    lookup, so no cached row can break a rule.
    """
    report = ValidationReport()
    ids: dict = {}  # stripped region id -> index, in order of first appearance
    region_of, day_of, count_of = {}, {}, {}  # raw field -> index, date ordinal, count
    row_region, row_day, row_cases = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        try:
            ri, di, ci = (header.index(n) for n in (region_col, date_col, cases_col))
        except ValueError:
            raise PanelFormatError(
                f"{path}: header {header} lacks required columns "
                f"({region_col}, {date_col}, {cases_col})"
            ) from None
        for lineno, row in enumerate(reader, start=2):
            try:
                r, d, c = region_of[row[ri]], day_of[row[di]], count_of[row[ci]]
            except (KeyError, IndexError):
                at, fields = f"{path}:{lineno}", [f.strip() for f in row]
                if not any(fields):
                    continue
                if fields == header:
                    raise PanelFormatError(f"{at}: duplicate header row") from None
                if len(row) <= max(ri, di, ci):
                    raise PanelFormatError(f"{at}: too few fields: {row}") from None
                if not fields[ri]:
                    raise PanelFormatError(f"{at}: empty region id") from None
                try:
                    d = datetime.date.fromisoformat(fields[di]).toordinal()
                except ValueError:
                    raise PanelFormatError(f"{at}: invalid date {row[di]!r}") from None
                try:
                    c = int(fields[ci])
                    if not -(2**63) <= c < 2**63:  # int64
                        raise ValueError
                except ValueError:
                    raise PanelFormatError(f"{at}: invalid case count {row[ci]!r}") from None
                r = ids.setdefault(fields[ri], len(ids))
                if fields[ri] != header[ri]:
                    region_of[row[ri]] = r
                day_of[row[di]], count_of[row[ci]] = d, c
            row_region.append(r)
            row_day.append(d)
            row_cases.append(c)
    if not row_region:
        raise PanelFormatError(f"{path}: no data rows")

    cases, day = np.array(row_cases, dtype=np.int64), np.array(row_day, dtype=np.int64)
    negative = cases < 0
    report.negatives_clamped = int(negative.sum())
    cases[negative] = 0
    if report.negatives_clamped:
        report.warnings.append(f"clamped {report.negatives_clamped} negative counts to 0")
    report.rows_read = len(row_region)

    names, name_of = np.unique(np.array(list(ids), dtype=object), return_inverse=True)
    d_min = datetime.date.fromordinal(int(day.min()))
    n_days = int(day.max()) - d_min.toordinal() + 1
    cell = name_of.ravel()[row_region] * n_days + (day - d_min.toordinal())
    report.duplicates_merged = len(row_region) - int(np.count_nonzero(np.bincount(cell)))
    counts = np.zeros(len(names) * n_days, dtype=np.int64)
    np.add.at(counts, cell, cases)
    if report.duplicates_merged:  # a sum that wrapped past int64 is 2**64 off its float sum
        approx = np.bincount(cell, weights=cases, minlength=counts.size)
        wrapped = np.flatnonzero(np.abs(approx - counts) > 2.0**62)
        if wrapped.size:
            region, t = divmod(int(wrapped[0]), n_days)
            raise PanelFormatError(
                f"{path}: summed case count of region {names[region]!r} on "
                f"{d_min + datetime.timedelta(days=t)} is outside int64"
            )
    dates = tuple(d_min + datetime.timedelta(days=i) for i in range(n_days))
    panel = IncidencePanel(tuple(names.tolist()), dates, counts.reshape(len(names), n_days))
    return panel, report


def csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` writes it in a row, quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def write_csv(path, header, row_format: str, blocks) -> None:
    """Write ``header`` and each block of rows to ``path``, creating its directory.

    The bytes are ``csv.writer``'s: commas, ``"\r\n"`` line ends, a field quoted
    only where it must be. Each row is ``row_format % row``, so a caller quotes its
    string fields with ``csv_field``; each block (an iterable of rows) is one write.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_field, header)) + "\r\n")
        fh.writelines("".join(map(row_format.__mod__, rows)) for rows in blocks)


def write_panel(panel: IncidencePanel, path) -> None:
    """Write the canonical long CSV (region-major, then date), one block per region."""
    days = [day.isoformat() for day in panel.dates]
    blocks = (
        zip(itertools.repeat(csv_field(region)), days, counts)
        for region, counts in zip(panel.region_ids, panel.counts.tolist())
    )
    write_csv(path, ("region_id", "date", "cases"), "%s,%s,%d\r\n", blocks)


def aggregate_country(panel: IncidencePanel) -> IncidencePanel:
    """Sum over regions into a single-region panel with id "ALL"."""
    return IncidencePanel(
        ("ALL",), panel.dates, panel.counts.sum(axis=0, keepdims=True)
    )
