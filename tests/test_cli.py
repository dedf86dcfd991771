import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lissbraid.algebra import frieze_w
from lissbraid.classify import LevelSlope, level_slope_of, type_of
from lissbraid import cli, lissajous
from lissbraid.cli import main
from lissbraid.lissajous import build_H, normalize
from lissbraid.report import build_report
from lissbraid.surd import cf_expand, dilatation, far_endpoint
from lissbraid.syzygy import omega, syzygy_sequence

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_worked_example(capsys):
    code, out, _ = run(capsys, "classify", "--type", "4,-5", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["level"] == 2
    assert d["slope"] == "0/1"
    assert d["friezeW"] == "dbdpqp"
    assert d["matrix"] == [[10, 3], [3, 1]]


def test_classify_second_example(capsys):
    code, out, _ = run(capsys, "classify", "--type", "-11,16", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["level"] == 1
    assert d["slope"] == "2/3"
    assert d["matrix"] == [[586, -741], [-741, 937]]


def test_classify_golden_schema(capsys):
    code, out, _ = run(capsys, "classify", "--type", "4,-5", "--json")
    assert code == 0
    golden = json.loads((DATA / "golden_classify_4_-5.json").read_text())
    assert json.loads(out) == golden


def test_classify_golden_text(capsys):
    code, out, _ = run(capsys, "classify", "--type", "-11,16")
    assert code == 0
    assert out == (DATA / "golden_classify_-11_16.txt").read_text(encoding="utf-8")


def test_classify_collision_exits_2(capsys):
    code, out, _ = run(capsys, "classify", "--type", "-5,7", "--json")
    assert code == 2
    d = json.loads(out)
    assert d["collision_free"] is False


def test_classify_divisible_by_three_exits_1(capsys):
    code, _, err = run(capsys, "classify", "--type", "3,2")
    assert code == 1
    assert "DivisibleByThree" in err


def test_classify_bad_type_exits_1(capsys):
    code, _, err = run(capsys, "classify", "--type", "four")
    assert code == 1


def test_usage_error_exits_1(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 1
    code, _, _ = run(capsys, "classify")
    assert code == 1


def test_help_exits_0(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_from_label_examples(capsys):
    code, out, _ = run(capsys, "from-label", "--level", "1", "--slope", "2/3", "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["p0"]["m"], d["p0"]["n"]) == (-11, 16)

    code, out, _ = run(capsys, "from-label", "--level", "2", "--slope", "0/1", "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["p0"]["m"], d["p0"]["n"]) == (4, -5)


def test_from_label_invalid_exits_1(capsys):
    code, _, err = run(capsys, "from-label", "--level", "1", "--slope", "1/2")
    assert code == 1
    assert "InvalidLabel" in err


def test_cf_command(capsys):
    code, out, _ = run(capsys, "cf", "--type", "4,-5")
    assert code == 0
    assert "(3+√13)/2" in out
    assert "(3)" in out


def test_syzygy_command_grouped(capsys):
    code, out, _ = run(capsys, "syzygy", "--type", "-8,13", "--periods", "1", "--group")
    assert code == 0
    dotted = "1231312.3123231.2312123.1231312.3123231.2312123"
    assert dotted in out


def test_syzygy_command_rejects_zero_periods(capsys):
    # and more than 1000 periods, which could exhaust memory
    for periods in ("0", "1001"):
        code, out, err = run(capsys, "syzygy", "--type", "4,-5", "--periods", periods)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--periods" in err and len(err.splitlines()) == 1


def test_syzygy_command_caps_its_output(capsys, monkeypatch):
    # 6 * |omega| * periods = 6 * 100021 * 1000 letters: rejected before
    # omega or the walk is built; one period of the same type still prints
    def fail(*args, **kwargs):
        raise AssertionError("built before the cap was checked")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "omega", fail)
        patch.setattr(cli, "syzygy_sequence", fail)
        code, out, err = run(capsys, "syzygy", "--type", "-100031,200032", "--periods", "1000")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "600126000" in err and len(err.splitlines()) == 1
    code, out, err = run(capsys, "syzygy", "--type", "-100031,200032", "--periods", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines[0]) == len("omega:  ") + 100021 and len(lines[1]) == len("syzygy: ") + 600126


def test_syzygy_command_json(capsys):
    code, out, _ = run(capsys, "syzygy", "--type", "4,-5", "--periods", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "omega": omega(level_slope_of(4, -5)),
        "syzygy": syzygy_sequence(4, -5, periods=2),
        "periods": 2,
    }


def test_cf_and_syzygy_beyond_float_range(capsys):
    # the dilatation of (-740,1477) is above 2**1024; neither command prints it
    far = far_endpoint(build_report(-740, 1477).matrix)
    code, out, _ = run(capsys, "cf", "--type", "-740,1477", "--json")
    assert code == 0
    assert json.loads(out) == {"farEndpoint": str(far), "cf": cf_expand(far).to_json_dict()}
    code, out, _ = run(capsys, "syzygy", "--type", "-740,1477")
    assert code == 0
    assert out.startswith("omega:")


def test_classify_and_from_label_beyond_float_range(capsys):
    # dilatations above 2**1024 have no float: JSON carries null, text the exact form only
    exact = str(build_report(-740, 1477).dilatation_exact)
    code, out, err = run(capsys, "classify", "--type", "-740,1477", "--json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["dilatation"] == {"exact": exact, "approx": None}
    code, out, err = run(capsys, "classify", "--type", "-740,1477")
    assert code == 0 and "Traceback" not in err
    assert f"dilatation:   {exact}\n" in out
    code, out, err = run(capsys, "from-label", "--level", "1", "--slope", "1/1000", "--json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["dilatation"]["approx"] is None


def test_report_commands_cap_their_size(capsys, monkeypatch, tmp_path):
    # the label (10**7, 1/4) has |omega| = |ell| of p0 = 99999997, so one syzygy
    # period is 599999982 letters: rejected before any report is built
    def fail(*args, **kwargs):
        raise AssertionError("built before the cap was checked")

    m, n = type_of(LevelSlope(10**7, 4, 1))
    commands = [("from-label", "--level", "10000000", "--slope", "1/4"),
                ("classify", "--type", f"{m},{n}"), ("cf", "--type", f"{m},{n}"),
                ("plot", "--type", f"{m},{n}", "--kind", "halfplane",
                 "--out", str(tmp_path / "h.svg"))]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_report", fail)
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error:") and "599999982" in err and len(err.splitlines()) == 1


def test_classify_ell_one_type_at_10_to_12(capsys):
    code, out, err = run(capsys, "classify", "--type", "1000000000000,999999999997", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["p0"] == {"m": 1, "n": -2}


def test_reports_print_past_the_int_digit_limit(capsys):
    # the dilatation's D of (1, 1/10000) has more than 4300 digits; the limit
    # is lifted while the report prints, then restored
    label = LevelSlope(1, 10000, 1)
    m, n = type_of(label)
    _, mat = frieze_w(build_H(normalize(m, n)))
    far = far_endpoint(mat)
    assert dilatation(mat).D > 10**4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "from-label", "--level", "1", "--slope", "1/10000", "--json")
    assert code == 0 and err == "" and sys.get_int_max_str_digits() == limit
    code, cf_out, err = run(capsys, "cf", "--type", f"{m},{n}", "--json")
    assert code == 0 and err == "" and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        body, cf_body = json.loads(out), json.loads(cf_out)
        assert body["matrix"] == mat.to_rows()
        assert body["cf"] == cf_body["cf"] == cf_expand(far).to_json_dict()
        assert cf_body["farEndpoint"] == body["farEndpoint"] == str(far)
    finally:
        sys.set_int_max_str_digits(limit)


def test_enumerate_types(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-m", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["m"], r["n"]) for r in rows] == [(1, -2), (4, -5)]
    assert rows[1]["level"] == 2


def test_enumerate_labels(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-sum", "5", "--max-level", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["slope"] for r in rows} == {"0/1", "1/4", "2/3", "3/2", "4/1"}


def test_enumerate_prints_json_dumps_rows(capsys):
    # byte for byte the lines json.dumps gives the row dicts, on both paths
    from lissbraid.classify import enumerate_labels, enumerate_p0

    types = [json.dumps({"m": m, "n": n, **level_slope_of(m, n).to_json_dict()})
             for m, n in enumerate_p0(200)]
    labels = [json.dumps({**ls.to_json_dict(), **dict(zip("mn", type_of(ls)))})
              for ls in enumerate_labels(40, 6)]
    for argv, rows in ((["--max-m", "200"], types), (["--max-sum", "40", "--max-level", "6"], labels)):
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0 and len(rows) > 500 and out == "".join(row + "\n" for row in rows)


def test_enumerate_needs_a_bound(capsys):
    # bounds that select nothing are input errors too, as in verify
    # and bounds above the caps, checked before anything is built
    for bounds, reason in (
            ([], "enumerate wants --max-m or --max-sum"),
            (["--max-m", "0"], "the bounds select no types"),
            (["--max-sum", "5", "--max-level", "0"], "the bounds select no labels"),
            (["--max-m", "100000"], "--max-m must be at most 2000, got 100000"),
            (["--max-sum", "100000", "--max-level", "10"], "--max-sum must be at most 200, got 100000"),
            (["--max-sum", "5", "--max-level", "31"], "--max-level must be at most 30, got 31")):
        code, out, err = run(capsys, "enumerate", *bounds)
        assert code == 1
        assert out == ""
        assert err == f"error: LissbraidError: {reason}\n"


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijection", "--max-m", "30",
                       "--max-sum", "20", "--max-level", "3")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_suite_syzygy(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "syzygy", "--max-m", "8")
    assert code == 0
    assert out.strip().endswith("cases pass")


def test_verify_empty_selection_exits_1(capsys):
    code, out, err = run(capsys, "verify", "--suite", "cluster", "--max-m", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("bounds", [("--max-m", "0", "--max-sum", "0"), ("--max-m", "0"),
                                    ("--max-sum", "0"), ("--max-level", "0"),
                                    ("--max-m", "100000"), ("--max-sum", "201")])
def test_verify_bijection_over_empty_set_exits_1(capsys, bounds):
    code, out, err = run(capsys, "verify", "--suite", "bijection", *bounds)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [("--suite", "collision", "--max-m", "2"),
                                  ("--suite", "cf", "--max-sum", "3")])
def test_verify_bound_the_suite_does_not_take_exits_1(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and argv[-2] in err and len(err.splitlines()) == 1


def test_verify_bound_the_suite_takes_still_runs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "epsilon", "--max-m", "5")
    assert code == 0
    assert "FAIL" not in out and out.strip().endswith("cases pass")


def test_plot_shape_svg(tmp_path, capsys):
    out_path = tmp_path / "s.svg"
    code, out, _ = run(capsys, "plot", "--type", "4,-5", "--out", str(out_path))
    assert code == 0
    assert out_path.exists() and out_path.stat().st_size > 0
    text = out_path.read_text()
    assert text.startswith("<svg") and "level=2" in text


def test_plot_shape_csv(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "plot", "--type", "4,-5", "--out", str(out_path),
                     "--format", "csv", "--steps", "50")
    assert code == 0
    assert out_path.read_text().startswith("t,re_psi,im_psi")


def test_plot_halfplane(tmp_path, capsys):
    out_path = tmp_path / "h.svg"
    code, _, _ = run(capsys, "plot", "--type", "4,-5", "--kind", "halfplane",
                     "--out", str(out_path), "--max-denominator", "3")
    assert code == 0
    assert "<svg" in out_path.read_text()


@pytest.mark.parametrize("ratio", ["2", "nan", "0"])
def test_plot_rejects_ratio_outside_unit_interval(tmp_path, capsys, ratio):
    out_path = tmp_path / "s.svg"
    code, out, err = run(capsys, "plot", "--type", "4,-5", "--ratio", ratio,
                         "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and "--ratio" in err


# and more than 10**6 steps, which could exhaust memory
@pytest.mark.parametrize("steps", ["-3", "0", "1", "1000001"])
def test_plot_rejects_fewer_than_two_steps(tmp_path, capsys, steps):
    out_path = tmp_path / "s.csv"
    code, out, err = run(capsys, "plot", "--type", "4,-5", "--steps", steps,
                         "--format", "csv", "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and "--steps" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("max_denominator", ["0", "-2"])
def test_plot_rejects_max_denominator_below_one(tmp_path, capsys, max_denominator):
    out_path = tmp_path / "h.svg"
    code, out, err = run(capsys, "plot", "--type", "4,-5", "--kind", "halfplane",
                         "--max-denominator", max_denominator, "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and "--max-denominator" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("max_denominator", ["101", "1000"])
def test_plot_rejects_max_denominator_above_100(tmp_path, capsys, max_denominator):
    # the Farey edge count grows like N^2, so the bound caps the figure's cost
    out_path = tmp_path / "h.svg"
    code, out, err = run(capsys, "plot", "--type", "4,-5", "--kind", "halfplane",
                         "--max-denominator", max_denominator, "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and "--max-denominator" in err and len(err.splitlines()) == 1


def test_plot_rejects_halfplane_above_its_edge_cap(tmp_path, capsys):
    # the axis of (59998,-59999) spans [-2, 40001]: 43 Farey edges per unit
    # at --max-denominator 8 would write about 180 MB
    out_path = tmp_path / "h.svg"
    code, out, err = run(capsys, "plot", "--type", "59998,-59999", "--kind", "halfplane",
                         "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and "Farey edges" in err and len(err.splitlines()) == 1


def test_plot_rejects_csv_halfplane(tmp_path, capsys):
    out_path = tmp_path / "h.csv"
    code, out, err = run(capsys, "plot", "--type", "4,-5", "--kind", "halfplane",
                         "--format", "csv", "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and "--format" in err and len(err.splitlines()) == 1


def test_plot_unwritable_out_exits_1(tmp_path, capsys):
    for out_path in (tmp_path / "missing" / "s.svg", tmp_path):
        code, out, err = run(capsys, "plot", "--type", "4,-5", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Error" in err


def test_plot_shape_beyond_float_time_exits_1(tmp_path, capsys, monkeypatch):
    # 600 |m ell| of (10**400 + 4, -5) exceeds the largest float: the start
    # time has no float, which is rejected before the label is computed
    def fail(*args, **kwargs):
        raise AssertionError("reduced before the float range was checked")

    monkeypatch.setattr(lissajous, "reduce_to_p0", fail)
    for fmt in ("svg", "csv"):
        out_path = tmp_path / f"s.{fmt}"
        code, out, err = run(capsys, "plot", "--type", f"{10**400 + 4},-5", "--format", fmt,
                             "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error:") and "float" in err and len(err.splitlines()) == 1
    monkeypatch.undo()
    code, out, err = run(capsys, "plot", "--type", f"{10**20 + 4},-5", "--steps", "50",
                         "--out", str(tmp_path / "s.svg"))
    assert code == 0 and err == ""


def test_text_and_json_agree(capsys):
    _, text_out, _ = run(capsys, "classify", "--type", "-11,16")
    _, json_out, _ = run(capsys, "classify", "--type", "-11,16", "--json")
    d = json.loads(json_out)
    for token in (d["slope"], d["friezeH"], str(d["trace"]), d["farEndpoint"], d["omega"]):
        assert token in text_out


def test_report_round_trip(capsys):
    # feeding the normalized type back reproduces the report (input aside)
    _, out1, _ = run(capsys, "classify", "--type", "2,5", "--json")
    d1 = json.loads(out1)
    nm, nn = d1["normalized"]["m"], d1["normalized"]["n"]
    _, out2, _ = run(capsys, "classify", "--type", f"{nm},{nn}", "--json")
    d2 = json.loads(out2)
    d1.pop("input")
    d2.pop("input")
    assert d1 == d2


frequencies = st.integers(-5000, 5000)


@settings(max_examples=40, deadline=None)
@given(st.tuples(frequencies, frequencies).filter(lambda mn: gcd(*mn) == 1))
def test_cli_answers_every_coprime_type_without_traceback(mn):
    m, n = mn
    for argv in (["classify", "--type", f"{m},{n}", "--json"],
                 ["cf", "--type", f"{m},{n}"],
                 ["syzygy", "--type", f"{m},{n}"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
