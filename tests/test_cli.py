"""Command-line interface: parsing, output determinism, exit codes."""

import io
import json
import re

import pytest

from covmin.cli import (
    EXIT_BUDGET,
    EXIT_FAILED_CHECK,
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from covmin.oracle import covering_radius
from covmin.polytope import Polytope


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def table_rows(text):
    """Cells of a printed table, split on the two-space column gaps."""
    return [re.split(r"\s{2,}", line) for line in text.splitlines()]


class TestBasicCommands:
    def test_gauge(self):
        code, text = run_cli("gauge", "--family", "cube", "--d", "2",
                             "--point", "1/2,-3/4")
        assert code == EXIT_OK
        assert text.strip() == "gauge = 3/4"

    def test_width_from_vertices(self):
        code, text = run_cli(
            "width", "--body", '{"vertices":[["-1","-1"],["1","0"],["0","1"]]}'
        )
        assert code == EXIT_OK
        assert "width = 2" in text
        assert "witness = (" in text

    def test_covering_radius_terminal(self):
        code, text = run_cli("covering-radius", "--family", "terminal", "--d", "2",
                             "--tol", "1/10000")
        assert code == EXIT_OK
        lines = dict(
            line.split(" in ") if " in " in line else line.split(" = ")
            for line in text.strip().splitlines()
        )
        lo, hi = lines["covering radius"].strip("[]").split(", ")
        from fractions import Fraction
        assert Fraction(lo) <= 1 <= Fraction(hi)
        assert Fraction(hi) - Fraction(lo) <= Fraction(1, 10000)

    def test_table_rows(self):
        code, text = run_cli("table", "--d", "3..4", "--i", "2..3")
        assert code == EXIT_OK
        assert "3  2  5/4         5/4           5/4    1" in text

    def test_table_csv(self):
        code, text = run_cli("table", "--d", "3..3", "--i", "2..2", "--csv")
        assert code == EXIT_OK
        assert "3,2,5/4,5/4,5/4,1" in text

    def test_plot_data(self, tmp_path):
        target = tmp_path / "plot.dat"
        code, _ = run_cli("table", "--d", "3..3", "--i", "2..2",
                          "--plot-data", str(target))
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert "3 2 projection 5/4" in lines
        assert "3 2 conjectured 1" in lines

    def test_minima_crosspolytope(self):
        code, text = run_cli("minima", "--family", "crosspolytope", "--d", "3",
                             "--i", "1..3")
        assert code == EXIT_OK
        assert "3/2" in text and "exact" in text

    def test_bounds_reports(self):
        code, text = run_cli("bounds", "--family", "terminal", "--d", "3",
                             "--i", "2", "--tol", "1/100")
        assert code == EXIT_OK
        assert "INTERSECTION_THM" in text
        assert "5/4" in text

    def test_family_weighted(self):
        code, text = run_cli("family", "--family", "weighted", "--omega", "1/2,1,1")
        assert code == EXIT_OK
        assert "(-1/2, -1/2)" in text
        assert "5/4" in text

    def test_bounds_render_enclosures(self):
        vertices = [["-1", "-1"], ["2", "0"], ["0", "1"], ["-1", "1"]]
        code, text = run_cli("bounds", "--body", json.dumps({"vertices": vertices}))
        assert code == EXIT_OK
        cr = covering_radius(Polytope(vertices)).interval
        assert cr.lo < cr.hi
        rows = table_rows(text)[1:]
        monotone = [row[2] for row in rows if row[1] == "MONOTONE"]
        assert monotone == [f"[{cr.lo}, {cr.hi}]"] * 2
        assert ["1", "KL_LEMMA", "1/2", "width"] in rows

    def test_family_renders_conjectured_entry(self):
        code, text = run_cli("family", "--family", "weighted", "--omega", "1/2,1,1,1")
        assert code == EXIT_OK
        row = table_rows(text)[-2]
        assert row[:2] == ["2", "5/4"]
        assert row[2].endswith(" (conjectured)")

    def test_family_box_from_vertices(self):
        body = {"vertices": [[a, b] for a in ("-1", "1") for b in ("-1/2", "3/2")]}
        code, text = run_cli("family", "--body", json.dumps(body))
        assert code == EXIT_OK
        rows = text.splitlines()[-3:]
        assert [row.split()[:2] for row in rows] == [["0", "0"], ["1", "1/2"], ["2", "1/2"]]
        assert "box reciprocal side formula" in rows[-1]

    def test_family_segment_off_origin(self):
        code, text = run_cli("family", "--family", "segment", "--a", "1", "--b", "2")
        assert code == EXIT_OK
        assert text.splitlines()[-1].split()[:2] == ["1", "1"]

    def test_weighted_with_conjectured_rows(self):
        code, text = run_cli("family", "--family", "terminal", "--d", "3")
        assert code == EXIT_OK
        assert "(conjectured)" in text

    def test_verify_suite(self):
        code, text = run_cli("verify", "kl", "--tol", "1/100")
        assert code == EXIT_OK
        assert text.strip().splitlines()[-1].endswith("checks passed")
        assert "FAIL" not in text

    def test_verify_direct_sum_suite(self):
        code, text = run_cli("verify", "direct-sum")
        assert code == EXIT_OK
        assert "FAIL" not in text
        # every index of every pair: 1 table check + 3 + 5 * 2 per-index checks
        assert text.count("PASS") == 14

    def test_verify_direct_sum_catches_min_plus(self, monkeypatch):
        import covmin.families
        import covmin.oracle
        from covmin.families import DIRECT_SUM, TableEntry

        def min_plus(A, B, i):
            js = range(max(0, i - B.d), min(A.d, i) + 1)
            lo = min(A[j].lo + B[i - j].lo for j in js)
            hi = min(A[j].hi + B[i - j].hi for j in js)
            return TableEntry(lo, hi, DIRECT_SUM), js[0]

        monkeypatch.setattr(covmin.families, "combine_direct_sum", min_plus)
        monkeypatch.setattr(covmin.oracle, "combine_direct_sum", min_plus)
        code, text = run_cli("verify", "direct-sum")
        assert code == EXIT_FAILED_CHECK
        assert "FAIL segment sum seed 1 at index 1" in text


    def test_minima_first_index_is_reciprocal_width(self):
        body = ('{"vertices":[["-2","-1","-1"],["-1","-2","-1"],["-1","-1","-2"],'
                '["0","-1","1"],["0","-1","2"],["2","2","1"]]}')
        code, text = run_cli("minima", "--body", body, "--i", "1")
        assert code == EXIT_OK
        assert table_rows(text)[1] == [
            "1", "1/2", "1/2", "exact", "reciprocal lattice width", "reciprocal lattice width"]


class TestDeterminism:
    def test_identical_runs(self):
        first = run_cli("minima", "--family", "terminal", "--d", "2", "--i", "1..2",
                        "--tol", "1/100")
        second = run_cli("minima", "--family", "terminal", "--d", "2", "--i", "1..2",
                         "--tol", "1/100")
        assert first == second


class TestErrors:
    def test_floats_rejected(self):
        code, _ = run_cli("width", "--body", '{"vertices":[[0.5, 1]]}')
        assert code == EXIT_INPUT

    def test_malformed_json(self, capsys):
        code, _ = run_cli("width", "--body", '{"vertices": [[')
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_body(self):
        code, _ = run_cli("width")
        assert code == EXIT_INPUT

    def test_unknown_family(self):
        code, _ = run_cli("width", "--family", "dodecahedron")
        assert code == EXIT_INPUT

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setenv("COVMIN_BUDGET", "3")
        code, _ = run_cli("covering-radius", "--family", "terminal", "--d", "2")
        assert code == EXIT_BUDGET

    def test_inconsistent_maps_to_exit_4(self, monkeypatch):
        from covmin import cli as cli_mod
        from covmin.errors import Inconsistent

        def boom(args, out):
            raise Inconsistent("forced")

        monkeypatch.setattr(cli_mod, "_cmd_width", boom)
        code = cli_mod.main(["width", "--family", "cube", "--d", "2"])
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ("minima", "--family", "cube", "--d", "2", "--i", "abc"),
        ("minima", "--family", "cube", "--d", "2", "--i", "1..x"),
        ("table", "--d", "3..x", "--i", "2"),
        ("width", "--body", '{"family": "terminal", "params": {}}'),
        ("width", "--body", '{"family": "terminal", "params": {"d": "3/2"}}'),
        ("width", "--body", '{"family": "crosspolytope", "params": {"d": null}}'),
        ("width", "--body", '{"family": "weighted", "params": {}}'),
        ("width", "--body", '{"family": "segment", "params": {"a": "1"}}'),
        ("width", "--body", '{"family": "terminal", "params": [3]}'),
        ("width", "--body", "3"),
        ("width", "--body", '{"vertices": [1, 2]}'),
        ("width", "--family", "cube", "--d", "2", "--lattice", '{"bases": [[1, 0], [0, 1]]}'),
        ("width", "--family", "cube", "--d", "2", "--lattice", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"),
        ("gauge", "--family", "cube", "--d", "2", "--point", "1"),
        ("minima", "--family", "cube", "--d", "2", "--i", "1", "--projection", '[["1"]]'),
    ])
    def test_malformed_input_exits_2(self, argv):
        code, _ = run_cli(*argv)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("argv", [
        ("table", "--d", "2..2", "--i", "5"),
        ("table", "--d", "0..1", "--i", "1..1"),
    ])
    def test_table_without_valid_pairs_exits_2(self, argv, capsys):
        code, text = run_cli(*argv)
        assert code == EXIT_INPUT
        assert text == ""
        assert "no index pair" in capsys.readouterr().err

    def test_internal_error_is_not_an_input_error(self, monkeypatch):
        from covmin import cli as cli_mod

        def boom(args, out):
            raise KeyError("forced")

        monkeypatch.setattr(cli_mod, "_cmd_width", boom)
        with pytest.raises(KeyError):
            cli_mod.main(["width", "--family", "cube", "--d", "2"])
