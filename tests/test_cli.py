import io
import json
import subprocess
import sys

import pytest
from oracle import record_from_dict

from quadforge.classify import registry_hash
from quadforge.cli import main

# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_verify_known_tag_exits_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "case4-case8", "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["registry_hash"] == registry_hash()
    assert report["outcome"]["ok"] is True


def test_verify_unknown_tag_exits_two(capsys):
    assert main(["verify", "--lemma", "not-a-tag"]) == 2


def _exits_two(argv) -> bool:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


def test_flags_a_subcommand_does_not_read_exit_two(capsys):
    assert _exits_two(["verify", "--lemma", "case4-case8", "--budget", "10000"])
    assert _exits_two(["tables", "--workers", "2"])
    assert _exits_two(["build-w2", "--workers", "2"])
    assert _exits_two(["export", "--format", "json"])


def test_verify_and_scan_take_workers(tmp_path, capsys):
    verify_argv = ["verify", "--lemma", "case4-case8"]
    range_argv = [*verify_argv, "--range", "37..866"]
    for argv in (verify_argv, range_argv):
        out = tmp_path / "r.json"
        assert main([*argv, "--workers", "2", "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["workers"] == 2
        assert _exits_two([*argv, "--workers", "0"])
        assert "worker count must be >= 1" in capsys.readouterr().err


def test_range_rejected_where_no_range_applies(capsys):
    assert main(["verify", "--lemma", "theorem", "--range", "1..5"]) == 2
    assert main(["verify", "--lemma", "case3-case5", "--range", "1..5"]) == 2
    assert main(["verify", "--lemma", "case9-q41", "--range", "1..5"]) == 2
    assert "--range applies only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tag, rng",
    [("case1-excluded", "10..20"), ("case7-equal", "1..2"), ("case8-case9", "1..3"), ("case3-case8", "20..22")],
)
def test_range_that_tests_nothing_is_refused(tmp_path, capsys, tag, rng):
    out = tmp_path / "r.json"
    assert main(["verify", "--lemma", tag, "--range", rng, "--format", "json", "--out", str(out)]) == 2
    assert f"--range {rng} tests nothing for {tag}" in capsys.readouterr().err
    assert not out.exists()


def test_qmax_rejected_outside_theorem(capsys):
    assert main(["verify", "--lemma", "case4-case8", "--qmax", "50"]) == 2
    assert main(["verify", "--lemma", "theorem", "--qmax", "-5"]) == 2
    assert "--qmax applies only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lemma", "case3-case5", "--out"],
        ["tables", "--out"],
        ["export", "--out"],
        ["build-w2", "--export"],
    ],
)
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    # a path under a missing directory, and a directory: both exit 2 with
    # one line, not 1 (a mismatch) with a traceback
    for path in (tmp_path / "missing" / "x", tmp_path):
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1 and out == ""


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_unwritable_output_path_is_refused_before_any_work(monkeypatch, tmp_path, capsys, where):
    # the run would take seconds (verify) or write and read back the
    # incidence file first (build-w2): the path is judged before either
    from quadforge import cli

    def boom(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "verify", boom)
    monkeypatch.setattr(cli, "build_w2", boom)
    bad = tmp_path / "missing" / "x" if where == "missing" else tmp_path
    good = tmp_path / "w2.inc"
    for argv in (
        ["verify", "--lemma", "theorem", "--qmax", "2100000", "--out", str(bad)],
        ["build-w2", "--export", str(good), "--out", str(bad)],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"cannot write {bad}: ") and err.count("\n") == 1 and out == ""
        assert not good.exists() and not (tmp_path / "missing").exists()


def test_failed_check_reports_mismatch_and_exits_one(monkeypatch, capsys):
    from types import SimpleNamespace

    from quadforge import classify

    monkeypatch.setattr(
        classify, "_feasible_orders", lambda nP, nL: [SimpleNamespace(s=2, t=4)]
    )
    assert main(["verify", "--lemma", "case7-case8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MISMATCH: n=2-solved (q = 16:") and "Traceback" not in err


def test_failed_group_guard_reports_mismatch_and_exits_one(monkeypatch, capsys):
    from quadforge import subgroups

    build = subgroups._subfield_ids
    # one element short: build_case's order/index guard must catch it
    monkeypatch.setattr(subgroups, "_subfield_ids", lambda *a, **k: build(*a, **k)[1:])
    assert main(["verify", "--lemma", "w2-construction"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MISMATCH: subgroup-order (constructed order 23") and "Traceback" not in err


def test_build_w2_requires_a_unique_selection(monkeypatch, capsys):
    from quadforge import cli

    build = cli.build_w2

    def two_selections():
        res = build()
        res.all_selections = res.all_selections * 2
        return res

    monkeypatch.setattr(cli, "build_w2", two_selections)
    assert cli.main(["build-w2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MISMATCH: selection-unique (2 axiom-passing") and "Traceback" not in err


def test_usage_error_exits_two(capsys):
    assert _exits_two(["verify", "--lemma", "case3-case8", "--range", "notarange"])
    # `verify --lemma caseI-caseJ|caseN-equal --range A..B` runs every scan
    assert _exits_two(["scan", "--pair", "3,8", "--range", "4..100"])
    assert "invalid choice: 'scan'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_case9_equal_pipeline(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["verify", "--lemma", "case9-equal", "--range", "4..2000",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    tags = [r["lemma_tag"] for r in report["records"]]
    assert tags == ["case9-equal", "case9-q41"]
    assert report["records"][0]["inputs"]["q_hi"] == 2000
    assert report["records"][0]["survivors"] == [[41, 9, 9]]
    assert report["records"][1]["verdict"] == "eliminated"


def test_verify_theorem_small(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "theorem", "--qmax", "50", "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outcome"]["final_verdict"] == "confirmed-example"


# ---------------------------------------------------------------------------
# verify over a range: the scans of a pair or an equal case
# ---------------------------------------------------------------------------


def test_scan_pair_in_window(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "case4-case8", "--range", "37..866",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [r["survivors"] for r in report["records"]] == [[]]


def test_scan_beyond_guard(capsys):
    # a range past the pair's published bound is scanned like any other:
    # there is no guard to lift, and no --beyond flag to lift it with
    assert main(["verify", "--lemma", "case4-case8", "--range", "37..2000"]) == 0
    assert _exits_two(["verify", "--lemma", "case4-case8", "--range", "37..1000", "--beyond"])
    assert "unrecognized arguments: --beyond" in capsys.readouterr().err


def test_scan_equal_2(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "case2-equal", "--range", "3..97",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["records"][0]["survivors"] == [[9, 2, 2]]


def test_scan_equal_9_includes_survivor(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "case9-equal", "--range", "4..50",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["records"][0]["survivors"] == [[41, 9, 9]]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_json_report_roundtrips_records(tmp_path):
    out = tmp_path / "r.json"
    main(["verify", "--lemma", "case5-case8", "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    for rec_dict in report["records"]:
        rec = record_from_dict(rec_dict)
        assert rec.to_dict() == rec_dict


def test_reports_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--lemma", "case4-case9", "--format", "json", "--out", str(a)])
    main(["verify", "--lemma", "case4-case9", "--format", "json", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_csv_and_text_formats(tmp_path):
    for fmt in ("csv", "text"):
        out = tmp_path / f"r.{fmt}"
        code = main(["verify", "--lemma", "case4-case8", "--format", fmt, "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "case4-case8" in body
    assert "lemma_tag,verdict" in (tmp_path / "r.csv").read_text()


# ---------------------------------------------------------------------------
# build-w2 and export
# ---------------------------------------------------------------------------


def test_build_w2_and_export_file(tmp_path):
    inc = tmp_path / "w2.inc"
    rep = tmp_path / "w2.json"
    code = main(
        ["build-w2", "--export", str(inc), "--all-selections",
         "--format", "json", "--out", str(rep)]
    )
    assert code == 0
    lines = inc.read_text().splitlines()
    assert lines[0] == "GQ 15 15 2 2"
    assert len(lines) == 46  # header + 45 flags
    report = json.loads(rep.read_text())
    assert report["outcome"]["points"] == 15
    assert report["outcome"]["order"] == [2, 2]
    assert len(report["outcome"]["selections"]) == 1


def test_export_to_stdout(capsys):
    code = main(["export"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "GQ 15 15 2 2"
    assert len(lines) == 46


def test_export_to_file(tmp_path):
    inc = tmp_path / "w2.inc"
    assert main(["export", "--out", str(inc)]) == 0
    assert inc.read_text().startswith("GQ 15 15 2 2\n")


def _drop_a_flag(flags):
    return flags[1:]


def _swap_points_0_and_1(flags):
    # an isomorphic copy: the reader accepts it, but its flags differ
    swap = {"0": "1", "1": "0"}
    return [f"{swap.get(p, p)} {l}" for p, l in (f.split() for f in flags)]


@pytest.mark.parametrize(
    "change, why",
    [(_drop_a_flag, "not every point on 3 lines"), (_swap_points_0_and_1, "flags are not the geometry's")],
)
@pytest.mark.parametrize("argv", [["export"], ["export", "--out"], ["build-w2", "--export"]])
def test_export_reads_back_what_it_wrote(monkeypatch, capsys, tmp_path, argv, change, why):
    from quadforge import cli, geometry

    def export(geom, stream, s, t):
        buf = io.StringIO()
        geometry.export_incidence(geom, buf, s, t)
        header, *flags = buf.getvalue().splitlines()
        stream.write("".join(f"{line}\n" for line in [header, *change(flags)]))

    monkeypatch.setattr(cli, "export_incidence", export)
    if argv[-1].startswith("--"):
        argv = [*argv, str(tmp_path / "w2.inc")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("MISMATCH: export-readback (") and why in err and "Traceback" not in err
    assert out == ""  # nothing is printed that was not read back


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_tables_json(tmp_path):
    out = tmp_path / "t.json"
    assert main(["tables", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())["tables"]
    assert set(data) == {"1", "2", "3", "4", "5"}
    assert len(data["1"]) == 10
    assert len(data["2"]) == 9
    assert data["2"][7]["index"] == "q(q+1)/2"
    assert len(data["4"]) == 6 and len(data["5"]) == 6


def test_tables_single(capsys):
    assert main(["tables", "--table", "1"]) == 0
    out = capsys.readouterr().out
    assert "PGL(2,11)" in out and "D_20" in out


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "quadforge", "--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_budget_error_exits_three(monkeypatch, capsys):
    from quadforge import cli
    from quadforge.errors import BudgetExceededError

    def boom():
        raise BudgetExceededError("simulated")

    monkeypatch.setattr(cli, "build_w2", boom)
    assert cli.main(["build-w2"]) == 3
    assert "simulated" in capsys.readouterr().err


def test_verify_theorem_q100(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "theorem", "--qmax", "100",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    w2 = [r for r in report["records"] if r["lemma_tag"] == "w2-construction"]
    assert len(w2) == 1 and w2[0]["verdict"] == "confirmed-example"


def test_scan_pair_3_9_full_window(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--lemma", "case3-case9", "--range", "11..107995",
                 "--workers", "4", "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["records"][0]["survivors"] == []
    assert report["records"][0]["scan_size"] > 5000
