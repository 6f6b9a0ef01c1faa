"""Tests for the Table-1 reporting layer (on a fast circuit subset)."""

import pytest

from repro.pipeline import Pipeline, PipelineConfig
from repro.report import (Table1Row, format_rows, render_report,
                          run_battery, summarize)

FAST = ["half", "hazard", "chu133"]


@pytest.fixture(scope="module")
def rows():
    pipeline = Pipeline(PipelineConfig(libraries=(2,), with_siegel=True))
    return [pipeline.run(name).row for name in FAST]


class TestRow:
    def test_row_fields(self, rows):
        row = rows[0]
        assert row.name == "half"
        assert len(row.histogram) == 6
        assert 2 in row.inserted

    def test_cells_shape(self, rows):
        # columns follow the libraries the row actually ran: name +
        # 6 histogram + one i=k column per library + [12] + 2 costs
        for row in rows:
            cells = row.cells()
            assert cells[0] == row.name
            assert len(cells) == 11
            assert row.libraries == (2,)

    def test_cells_full_battery(self):
        row = Table1Row("fake", [0] * 6, {2: 1, 3: 0, 4: 0}, None,
                        (10, 2), (12, 2))
        assert len(row.cells()) == 13

    def test_na_rendering(self):
        row = Table1Row("fake", [0] * 6, {2: None}, None, (10, 2), None)
        cells = row.cells()
        assert "n.i." in cells
        assert "-" in cells

    def test_not_run_is_not_ni(self):
        """A library that never ran renders '-', not 'n.i.'."""
        row = Table1Row("fake", [0] * 6, {3: 2}, None, (10, 2), None)
        cells = row.cells((2, 3, 4))
        k_cells = cells[7:10]
        assert k_cells == ["-", "2", "-"]
        assert "n.i." not in k_cells

    def test_siegel_not_run_is_not_ni(self):
        """Same distinction for the [12] baseline column."""
        ran = Table1Row("a", [0] * 6, {2: 1}, None, (10, 2), None,
                        siegel_ran=True)
        skipped = Table1Row("b", [0] * 6, {2: 1}, None, (10, 2), None,
                            siegel_ran=False)
        assert ran.cells()[8] == "n.i."
        assert skipped.cells()[8] == "-"
        assert "[12]" not in summarize([skipped])

    def test_csc_column_only_on_request(self):
        """The auxiliary csc column must not perturb the legacy cell
        layout: it only appears with ``with_csc`` and renders '-' for
        rows whose run skipped the CSC stage."""
        solved = Table1Row("a", [0] * 6, {2: 1}, None, (10, 2), None,
                           csc_signals=2)
        skipped = Table1Row("b", [0] * 6, {2: 1}, None, (10, 2), None)
        assert len(solved.cells()) == len(skipped.cells()) == 11
        assert solved.cells(with_csc=True)[-1] == "2"
        assert skipped.cells(with_csc=True)[-1] == "-"


class TestFormatting:
    def test_format_rows_aligns(self, rows):
        text = format_rows(rows)
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("circuit")
        assert len(lines) == len(rows) + 2  # header + rule

    def test_format_rows_header_follows_libraries(self, rows):
        # rows ran k=2 only: exactly the i=2 column, no phantom i=3/i=4
        header = format_rows(rows).splitlines()[0]
        assert "i=2" in header
        assert "i=3" not in header and "i=4" not in header

    def test_format_rows_csc_column_follows_rows(self):
        plain = Table1Row("a", [0] * 6, {2: 1}, None, (10, 2), None)
        solved = Table1Row("b", [0] * 6, {2: 1}, None, (10, 2), None,
                           csc_signals=3)
        assert "csc" not in format_rows([plain]).splitlines()[0]
        with_csc = format_rows([plain, solved]).splitlines()
        assert with_csc[0].rstrip().endswith("csc")
        # the row that never ran the stage renders '-'
        assert with_csc[2].rstrip().endswith("-")
        assert with_csc[3].rstrip().endswith("3")

    def test_summarize_mentions_claims(self, rows):
        text = summarize(rows)
        assert "2-literal" in text
        assert "[12]" in text

    def test_summarize_follows_smallest_library(self):
        row = Table1Row("fake", [0] * 6, {3: 1}, None, (10, 2), (11, 2))
        assert "3-literal" in summarize([row])

    def test_summarize_skips_rows_that_never_ran_smallest(self):
        """Heterogeneous rows: a k=3-only row is not 'n.i. at k=2'."""
        ran_k2 = Table1Row("a", [0] * 6, {2: 1}, None, (10, 2), (11, 2))
        only_k3 = Table1Row("b", [0] * 6, {3: 1}, None, (10, 2),
                            (11, 2))
        text = summarize([ran_k2, only_k3])
        assert "1 of 1 circuits implemented with 2-literal" in text


class TestTable1Driver:
    def test_subset_run(self):
        items = run_battery(["half", "hazard"], libraries=(2,),
                            with_siegel=False)
        rows = [item.record.row for item in items]
        text = render_report(rows)
        assert len(rows) == 2
        assert "half" in text and "hazard" in text
