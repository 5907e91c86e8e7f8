import csv
import datetime
import io

import numpy as np
import pytest

from countyrt import aggregate_country, ingest, load_panel, write_panel
from countyrt.ingest import PanelFormatError
from countyrt.model import IncidencePanel


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPanel:
    def test_basic_load_sorted_regions(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "b,2020-03-01,2\n"
            "a,2020-03-01,1\n"
            "a,2020-03-02,3\n"
            "b,2020-03-02,4\n",
        )
        panel, report = load_panel(path)
        assert panel.region_ids == ("a", "b")
        np.testing.assert_array_equal(panel.counts, [[1, 3], [2, 4]])
        assert report.rows_read == 4

    def test_blank_rows_skipped(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n\na,2020-03-01,1\n , ,\n,,\nb,2020-03-01,2\n\n",
        )
        panel, report = load_panel(path)
        assert panel.region_ids == ("a", "b")
        np.testing.assert_array_equal(panel.counts, [[1], [2]])
        assert report.rows_read == 2

    def test_duplicates_summed(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,3\n"
            "a,2020-03-01,4\n"
            "b,2020-03-01,0\n",
        )
        panel, report = load_panel(path)
        assert panel.counts[0, 0] == 7
        assert report.duplicates_merged == 1

    def test_zero_fill_missing_cells(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,5\n"
            "b,2020-03-03,2\n",
        )
        panel, _ = load_panel(path)
        assert panel.n_days == 3  # contiguous over [min, max]
        np.testing.assert_array_equal(panel.counts, [[5, 0, 0], [0, 0, 2]])

    def test_date_gap_becomes_zero_day(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,1\n"
            "a,2020-03-04,1\n",
        )
        panel, _ = load_panel(path)
        assert [d.day for d in panel.dates] == [1, 2, 3, 4]
        np.testing.assert_array_equal(panel.counts, [[1, 0, 0, 1]])

    def test_negative_counts_clamped(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,-3\n"
            "b,2020-03-01,2\n",
        )
        panel, report = load_panel(path)
        assert panel.counts[0, 0] == 0
        assert report.negatives_clamped == 1
        assert report.warnings

    def test_column_mapping(self, tmp_path):
        path = write_csv(
            tmp_path,
            "Landkreis,Meldedatum,AnzahlFall\n"
            "LK1,2020-03-01,7\n"
            "LK2,2020-03-01,1\n",
        )
        panel, _ = load_panel(
            path,
            region_col="Landkreis",
            date_col="Meldedatum",
            cases_col="AnzahlFall",
        )
        assert panel.region_ids == ("LK1", "LK2")
        assert panel.counts[0, 0] == 7

    def test_region_named_like_the_header_loads(self, tmp_path):
        text = (
            "region_id,date,cases\n"
            "region_id,2020-03-01,4\n"
            "a,2020-03-01,1\n"
            "region_id,2020-03-02,2\n"
        )
        panel, report = load_panel(write_csv(tmp_path, text))
        assert panel.region_ids == ("a", "region_id")
        np.testing.assert_array_equal(panel.counts, [[1, 0], [4, 2]])
        assert report.rows_read == 3
        with pytest.raises(PanelFormatError, match=r"panel.csv:5: duplicate header row"):
            load_panel(write_csv(tmp_path, text + "region_id,date,cases\n"))
        # header names that parse as a date and a count: every field of the
        # repeated header has been seen on a data row before it
        text = "id,2020-03-01,0\nid,2020-03-01,3\nb,2020-03-02,0\nid,2020-03-02,0\n"
        columns = {"region_col": "id", "date_col": "2020-03-01", "cases_col": "0"}
        panel, _ = load_panel(write_csv(tmp_path, text), **columns)
        np.testing.assert_array_equal(panel.counts, [[0, 0], [3, 0]])
        with pytest.raises(PanelFormatError, match=r"panel.csv:5: duplicate header row"):
            load_panel(write_csv(tmp_path, text + "id,2020-03-01,0\n"), **columns)

    def test_seen_fields_do_not_excuse_a_bad_row(self, tmp_path):
        good = "region_id,date,cases\na,2020-03-01,7\nb,2020-03-01,7\n"
        for region in ("", "  "):
            path = write_csv(tmp_path, good + f"{region},2020-03-01,7\n")
            with pytest.raises(PanelFormatError, match=r"panel.csv:4: empty region id"):
                load_panel(path)
        path = write_csv(tmp_path, good + "a,2020-03-01\n")
        with pytest.raises(PanelFormatError, match=r"panel.csv:4: too few fields"):
            load_panel(path)

    def test_padded_fields_share_a_cell(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,5\n"
            " a ,2020-03-01, 5 \n"
            "a ,2020-03-01,5\n"
            "b, 2020-03-01 ,5\n"
            "b,2020-03-01,-5\n"
            " b,2020-03-01, -5\n",
        )
        panel, report = load_panel(path)
        assert panel.region_ids == ("a", "b")
        np.testing.assert_array_equal(panel.counts, [[15], [5]])
        assert report.rows_read == 6
        assert report.duplicates_merged == 4
        assert report.negatives_clamped == 2

    def test_errors(self, tmp_path):
        with pytest.raises(PanelFormatError):
            load_panel(write_csv(tmp_path, "", "empty.csv"))
        with pytest.raises(PanelFormatError):
            load_panel(write_csv(tmp_path, "region_id,date,cases\n", "norows.csv"))
        with pytest.raises(PanelFormatError, match="3"):
            load_panel(
                write_csv(
                    tmp_path,
                    "region_id,date,cases\na,2020-03-01,1\na,notadate,2\n",
                    "baddate.csv",
                )
            )
        with pytest.raises(PanelFormatError, match="duplicate header"):
            load_panel(
                write_csv(
                    tmp_path,
                    "region_id,date,cases\na,2020-03-01,1\nregion_id,date,cases\n",
                    "duphdr.csv",
                )
            )
        with pytest.raises(PanelFormatError):
            load_panel(
                write_csv(
                    tmp_path,
                    "region_id,date,cases\na,2020-03-01,x\n",
                    "badcount.csv",
                )
            )
        with pytest.raises(PanelFormatError):
            load_panel(
                write_csv(tmp_path, "wrong,header,names\na,2020-03-01,1\n", "hdr.csv")
            )

        # deep in a long file the error still names its own line, and the
        # first bad line wins whatever rule it breaks
        base = datetime.date(2020, 3, 1)
        lines = ["region_id,date,cases"] + [
            f"r{n % 97},{base + datetime.timedelta(days=n // 97)},{n % 13}"
            for n in range(6000)
        ]

        def broken(*edits):
            text = list(lines)
            for lineno, line in edits:
                text[lineno - 1] = line
            return write_csv(tmp_path, "\n".join(text) + "\n", "long.csv")

        load_panel(broken())
        cases = [
            ([(5003, "r1,2020-13-01,4")], "5003: invalid date '2020-13-01'"),
            ([(5417, "r2,2020-03-02,4.5")], "5417: invalid case count '4.5'"),
            ([(5999, "region_id,date,cases")], "5999: duplicate header row"),
            ([(5200, "r3,2020-03-02,x"), (5100, "r3,someday,1")], "5100: invalid date"),
            ([(5100, "r3,2020-03-02,x"), (5200, "r3,someday,1")], "5100: invalid case count"),
            ([(5050, " ,2020-03-02,1"), (5060, "r1,2020-03-02")], "5050: empty region id"),
        ]
        for edits, message in cases:
            with pytest.raises(PanelFormatError, match=f"long.csv:{message}"):
                load_panel(broken(*edits))


class TestRoundTrip:
    def test_canonical_round_trip_is_byte_identical(self, tmp_path):
        messy = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "b,2020-03-02,4\n"
            "a,2020-03-01,1\n"
            "a,2020-03-01,2\n"
            "b,2020-03-01,0\n",
        )
        panel, _ = load_panel(messy)
        out1 = tmp_path / "canonical.csv"
        write_panel(panel, out1)
        panel2, _ = load_panel(out1)
        out2 = tmp_path / "canonical2.csv"
        write_panel(panel2, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_quoted_region_ids_match_csv_writer_and_round_trip(self, tmp_path):
        ids = ("plain", "comma, county", 'say "hi"', "inner  spaces", "100%")
        dates = tuple(datetime.date(2020, 2, 28) + datetime.timedelta(days=i) for i in range(3))
        counts = np.arange(15).reshape(5, 3) * 1000
        panel = IncidencePanel(ids, dates, counts)
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["region_id", "date", "cases"])
        for c, region in enumerate(ids):
            for t, day in enumerate(dates):
                writer.writerow([region, day.isoformat(), int(counts[c, t])])
        assert path.read_bytes() == want.getvalue().encode("utf-8")
        loaded, _ = load_panel(path)
        by_id = sorted(zip(ids, counts.tolist()))
        assert loaded.region_ids == tuple(region for region, _ in by_id)
        assert loaded.dates == dates
        assert loaded.counts.tolist() == [row for _, row in by_id]

    def test_write_csv_quotes_the_header_and_creates_the_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "out.csv"
        header = ("id", 'say "hi"', "a,b")
        blocks = [[("x", 1, 2.5)], [], [(ingest.csv_field("y,z"), 2, 0.1), ("w", 3, 1e20)]]
        ingest.write_csv(path, header, "%s,%d,%.10g\r\n", blocks)
        want = io.StringIO(newline="")
        csv.writer(want).writerows([header, ["x", 1, 2.5], ["y,z", 2, 0.1], ["w", 3, "1e+20"]])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_byte_order_mark_is_accepted(self, tmp_path):
        text = (
            "region_id,date,cases\n"
            "b,2020-03-02,4\n"
            "a,2020-03-01,1\n"
            "a,2020-03-01,-2\n"
            "b,2020-03-01,0\n"
        )
        plain = write_csv(tmp_path, text)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (panel, report), (bom_panel, bom_report) = load_panel(plain), load_panel(marked)
        assert bom_report == report and report.warnings
        assert (bom_panel.region_ids, bom_panel.dates) == (panel.region_ids, panel.dates)
        assert bom_panel.counts.tolist() == panel.counts.tolist()
        write_panel(bom_panel, tmp_path / "out.csv")  # written without a mark
        assert not (tmp_path / "out.csv").read_bytes().startswith(b"\xef\xbb\xbf")

    def test_total_cases_preserved(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,3\n"
            "a,2020-03-01,4\n"
            "b,2020-03-03,5\n",
        )
        panel, _ = load_panel(path)
        assert panel.counts.sum() == 12


class TestAggregateCountry:
    def test_per_day_sum(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\n"
            "a,2020-03-01,1\n"
            "b,2020-03-01,2\n",
        )
        panel, _ = load_panel(path)
        country = aggregate_country(panel)
        assert country.region_ids == ("ALL",)
        assert country.counts[0, 0] == 3

    def test_all_zero(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,date,cases\na,2020-03-01,0\nb,2020-03-02,0\n",
        )
        panel, _ = load_panel(path)
        assert aggregate_country(panel).counts.sum() == 0

    def test_conservation(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = ["region_id,date,cases"]
        base = datetime.date(2020, 3, 1)
        for r in range(4):
            for d in range(6):
                rows.append(
                    f"r{r},{base + datetime.timedelta(days=d)},{rng.integers(0, 9)}"
                )
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        panel, _ = load_panel(path)
        assert aggregate_country(panel).counts.sum() == panel.counts.sum()
