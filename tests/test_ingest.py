import datetime

import numpy as np
import pytest

from countyrt import aggregate_country, load_panel, write_panel
from countyrt.ingest import PanelFormatError


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
