import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ldbfn import ChannelParams, cli, schemes
from ldbfn.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, *argv):
    """Exit 2 with exactly one error: line on stderr and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    return err


def assert_error_line(code, out, err):
    """Exit 2, nothing on stdout, one error: line on stderr and no traceback."""
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err


# One valid command per integer flag, the flag followed by its value.
INTEGER_FLAGS = {
    **dict.fromkeys(["--nc", "--ns", "--nr", "--nf"], ["region", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1"]),
    "--nf-max": ["netgain", "--nc", "2", "--ns", "3", "--nr", "1", "--nf-max", "1"],
    **dict.fromkeys(["--r1", "--r2", "--blocks", "--seed"], [
        "simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--r1", "1", "--r2", "1", "--blocks", "3", "--seed", "1"]),
    "--max": ["sweep", "--max", "0"],
}


@pytest.mark.parametrize("flag", INTEGER_FLAGS)
@pytest.mark.parametrize("text", ["\u0663", "1_0", "+1", " 2"])
def test_integer_flags_read_ascii_digits_only(capsys, flag, text):
    argv = list(INTEGER_FLAGS[flag])
    argv[argv.index(flag) + 1] = text
    err = assert_usage_error(capsys, *argv)
    assert f"argument {flag}: invalid int value: {text!r}" in err


def test_integer_flags_take_a_leading_minus(capsys):
    code, _, err = run_cli(capsys, "simulate", "--nc", "2", "--ns", "3", "--nr", "1",
                           "--r1", "0", "--r2", "-1", "--seed", "-5")
    assert code == 1 and "outside the achievable region" in err


class TestRegion:
    def test_showcase_with_feedback(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["equal"] is True
        assert payload["regime"] == "D"
        assert payload["outer_bound"]["corners"] == [[0, 0], [0, 2], [1, 2], [2, 1], [2, 0]]

    def test_showcase_without_feedback_is_unit_box(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["outer_bound"]["corners"] == [[0, 0], [0, 1], [1, 1], [1, 0]]

    def test_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--nc", "0", "--ns", "0", "--nr", "0")
        assert code == 0
        assert json.loads(out)["outer_bound"]["corners"] == [[0, 0]]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--nc", "2"])
        assert exc.value.code == 2

    def test_negative_level_is_usage_error(self, capsys):
        err = assert_usage_error(capsys, "region", "--nc", "-1", "--ns", "1", "--nr", "1")
        assert "--nc" in err


class TestSimulate:
    def test_feedback_corner(self, capsys, tmp_path):
        trace = tmp_path / "run.trace"
        code, out, _ = run_cli(
            capsys, "simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1",
            "--r1", "2", "--r2", "1", "--blocks", "16", "--seed", "9",
            "--trace", str(trace),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["errors"] == 0
        assert payload["achieved"] == ["16/9", "8/9"]
        assert trace.read_text().startswith("# ldbfn trace v1")

    def test_infeasible_target_lists_halfspace(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1",
            "--r1", "3", "--r2", "0",
        )
        assert code == 1
        assert "1*R1 + 0*R2 <= 2" in err

    def test_trivial_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1",
            "--r1", "0", "--r2", "0", "--blocks", "8",
        )
        assert code == 0
        assert json.loads(out)["delivered_bits"] == [0, 0]

    def test_too_few_blocks_is_usage_error(self, capsys):
        err = assert_usage_error(
            capsys, "simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1",
            "--r1", "1", "--r2", "1", "--blocks", "2",
        )
        assert "--blocks" in err

    @pytest.mark.parametrize("flag", ["--trace", "--scheme-json"])
    def test_unwritable_output_fails_before_the_run(self, capsys, tmp_path, monkeypatch, flag):
        def no_run(*args, **kwargs):
            raise AssertionError("the scheme ran before its output path was checked")

        monkeypatch.setattr(cli, "run", no_run)
        code, out, err = run_cli(
            capsys, "simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1",
            "--r1", "2", "--r2", "1", flag, str(tmp_path / "no" / "file"),
        )
        assert_error_line(code, out, err)


class TestSweep:
    def test_81_rows_all_true(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == 81
        assert all(row["thm2_equal"] == "True" for row in rows)

    def test_header_contract(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--max", "0")
        header = out.splitlines()[0]
        assert header == "nc,ns,nr,nf,regime,sum_capacity,net_gain,thm2_equal,corners"

    def test_oracle_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max", "1", "--oracle")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert all(row["fm_oracle_equal"] == "True" for row in rows)

    def test_one_unequal_region_exits_one(self, capsys, monkeypatch):
        # Only the first tuple's Theorem 2 check fails, so the exit code must read every row.
        calls, regions_equal = [], cli.regions_equal
        monkeypatch.setattr(cli, "regions_equal",
                            lambda a, b: bool(calls.append(a)) or len(calls) > 1 and regions_equal(a, b))
        code, out, _ = run_cli(capsys, "sweep", "--max", "1", "--oracle")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 1 and len(rows) == 16
        assert [row["thm2_equal"] for row in rows] == ["False"] + ["True"] * 15
        assert all(row["fm_oracle_equal"] == "True" for row in rows)

    def test_one_disagreeing_oracle_exits_one(self, capsys, monkeypatch):
        enumerated_points = cli.enumerated_points
        monkeypatch.setattr(cli, "enumerated_points", lambda regime, p: enumerated_points(regime, p)
                            | ({(9, 9)} if p == ChannelParams(0, 0, 0, 0) else set()))
        code, out, _ = run_cli(capsys, "sweep", "--max", "1", "--oracle")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 1 and len(rows) == 16
        assert [row["fm_oracle_equal"] for row in rows] == ["False"] + ["True"] * 15
        assert all(row["thm2_equal"] == "True" for row in rows)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--max", "0", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0].startswith("nc,ns,nr,nf")

    def test_unwritable_out_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--max", "0", "--out", str(tmp_path / "no" / "x.csv"))
        assert_error_line(code, out, err)

    def test_closed_stdout_exits_one_without_traceback(self):
        # [0,6]^4 prints about 118 KB, more than a pipe holds, so the sweep writes after the close.
        env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
        with subprocess.Popen([sys.executable, "-m", "ldbfn.cli", "sweep", "--max", "6"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline().startswith("nc,ns,nr,nf,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err


SHOWCASE_RUN = ["simulate", "--nc", "2", "--ns", "3", "--nr", "1", "--nf", "1", "--r1", "2", "--r2", "1", "--blocks", "8"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("argv, to_stdout", [
    pytest.param(["sweep", "--max", "1", "--out", "/dev/full"], False, id="sweep-out"),
    pytest.param(SHOWCASE_RUN + ["--trace", "/dev/full"], False, id="simulate-trace"),
    pytest.param(SHOWCASE_RUN + ["--scheme-json", "/dev/full"], False, id="simulate-scheme-json"),
    pytest.param(["region", "--nc", "2", "--ns", "3", "--nr", "1"], True, id="region-stdout"),
    pytest.param(["sweep", "--max", "3"], True, id="sweep-stdout"),
])
def test_failed_write_exits_two_without_traceback(argv, to_stdout):
    # With stdout buffered a short output fails at main's flush, unbuffered at its first print.
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"), PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ldbfn.cli", *argv], env=env, timeout=60, text=True,
                                  stdout=full if to_stdout else subprocess.DEVNULL, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n"), unbuffered


class TestNetGain:
    def test_showcase_table(self, capsys):
        code, out, _ = run_cli(capsys, "netgain", "--nc", "6", "--ns", "3", "--nr", "1", "--nf-max", "2")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["nf", "sum_capacity", "r_f", "eta"]
        assert rows[1] == ["0", "2", "0", "-"]
        assert rows[2] == ["1", "4", "1", "2"]
        assert rows[3] == ["2", "6", "2", "2"]

    def test_feedback_irrelevant_when_relay_strong(self, capsys):
        _, out, _ = run_cli(capsys, "netgain", "--nc", "2", "--ns", "1", "--nr", "3", "--nf-max", "2")
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[3] for r in rows[1:]] == ["-", "0", "0"]

    def test_no_scheme_and_one_allocation_per_row_with_feedback(self, capsys, monkeypatch):
        built, allocated, allocate = [], [], schemes.allocate
        monkeypatch.setattr(schemes, "build_scheme", lambda *args: built.append(args))
        monkeypatch.setattr(schemes, "allocate", lambda *args: allocated.append(args) or allocate(*args))
        code, out, _ = run_cli(capsys, "netgain", "--nc", "6", "--ns", "3", "--nr", "1", "--nf-max", "4")
        assert code == 0
        assert built == [] and len(allocated) == 4
        assert out.splitlines()[2:] == ["1,4,1,2", "2,6,2,2", "3,6,2,2", "4,6,2,2"]

    def test_sweep_net_gain_builds_no_scheme(self, capsys, monkeypatch):
        def no_scheme(*args):
            raise AssertionError("the sweep built a scheme")

        allocated, allocate = [], schemes.allocate
        monkeypatch.setattr(schemes, "build_scheme", no_scheme)
        monkeypatch.setattr(schemes, "allocate", lambda *args: allocated.append(args) or allocate(*args))
        code, out, _ = run_cli(capsys, "sweep", "--max", "3", "--oracle")
        assert code == 0
        golden = (GOLDEN / "sweep_max4_oracle.csv").read_text().splitlines()
        # The golden's header and its rows of [0,3]^4, in lattice order.
        expected = golden[:1] + [row for row in golden[1:] if "4" not in row.split(",")[:4]]
        assert out.splitlines() == expected
        # One allocation per row with a gain, none where feedback adds nothing.
        assert len(allocated) == sum(row.split(",")[6] != "0" for row in expected[1:])

    def test_negative_nf_max_is_usage_error(self, capsys):
        err = assert_usage_error(capsys, "netgain", "--nc", "2", "--ns", "1", "--nr", "3", "--nf-max", "-1")
        assert "--nf-max" in err


class TestFmCheck:
    @pytest.mark.parametrize("name", [
        "regime_a_nc2_ns1_nr3.txt",
        "regime_b_nc1_ns2_nr3.txt",
        "regime_d_nc2_ns3_nr1_nf1.txt",
    ])
    def test_shipped_fixtures_verify_equal(self, capsys, name):
        code, out, _ = run_cli(capsys, "fm-check", "--system", str(FIXTURES / name))
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_corrupted_fixture_reports_unequal(self, capsys):
        code, out, _ = run_cli(capsys, "fm-check", "--system", str(FIXTURES / "corrupted_regime_a.txt"))
        payload = json.loads(out)
        assert code == 1
        assert payload["equal"] is False
        extra = {tuple(p) for p in payload["projection_integer_points"]} - {
            tuple(p) for p in payload["oracle_points"]
        }
        assert extra  # the projection gained unreachable integer points

    def test_infeasible_system_exit_one(self, capsys, tmp_path):
        fixture = tmp_path / "infeasible.txt"
        fixture.write_text("x + y <= -1\nR1 = x\nR2 = y\n")
        assert run_cli(capsys, "fm-check", "--system", str(fixture)) == (1, '{"infeasible": true}\n', "")

    @pytest.mark.parametrize("text, line", [
        ("nonsense line\n", 1),
        ("x <= 1.5\nR1 = x\nR2 = x\n", 1),
        ("x <= 1\nR3 = x\nR1 = x\nR2 = x\n", 2),
        ("x <= 1\nR1 = x\nR2 = x\nR1 = x\n", 4),
        ("x <= 1_0\ny <= 3\nR1 = x\nR2 = y\n", 1),
        ("x <= +1\nR1 = x\nR2 = x\n", 1),
        ("x <= 1\ny <= \u0663\nR1 = x\nR2 = y\n", 2),  # ARABIC-INDIC DIGIT THREE
        ("x <= 1\ny <= 3\nR1 = x\nR2 = \u0662*y\n", 4),  # ARABIC-INDIC DIGIT TWO
        ("x <= 1\fy <= 1_0\nR1 = x\nR2 = y\n", 1),  # a form feed does not end a line
        ("x <= 1\nR1 = x\n", None),  # no one line is at fault
    ], ids=["unrecognized-statement", "non-integer-bound", "defines-R3", "R1-defined-twice",
            "underscore-bound", "plus-signed-bound", "non-ascii-bound", "non-ascii-coefficient",
            "form-feed-inside-a-line", "missing-R2"])
    def test_parse_error_exit_two(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "fm-check", "--system", str(bad))
        assert_error_line(code, out, err)
        assert (f"{bad}: line {line}:" if line else f"{bad}: missing definition for R2") in err

    def test_all_zero_left_side_exit_two(self, capsys, tmp_path):
        fixture = tmp_path / "zero.txt"
        fixture.write_text("x <= 1\n0*x <= 3\nR1 = x\nR2 = x\n")
        code, out, err = run_cli(capsys, "fm-check", "--system", str(fixture))
        assert_error_line(code, out, err)
        assert f"{fixture}: line 2:" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "fm-check", "--system", "/nonexistent/x.txt")
        assert code == 2

    def test_non_utf8_file_exit_two(self, capsys, tmp_path):
        fixture = tmp_path / "latin1.txt"
        fixture.write_bytes(b"x <= 1\n\xff\xfe\nR1 = x\nR2 = x\n")
        code, out, err = run_cli(capsys, "fm-check", "--system", str(fixture))
        assert_error_line(code, out, err)
        assert f"{fixture}: 'utf-8' codec can't decode" in err

    def test_empty_system_is_origin(self, capsys, tmp_path):
        fixture = tmp_path / "empty.txt"
        fixture.write_text("R1 = 0\nR2 = 0\n")
        code, out, _ = run_cli(capsys, "fm-check", "--system", str(fixture))
        payload = json.loads(out)
        assert code == 0
        assert payload["projection"]["corners"] == [[0, 0]]
        assert payload["oracle_points"] == [[0, 0]]

    def test_unbounded_projection_exit_two(self, capsys, tmp_path):
        fixture = tmp_path / "unbounded.txt"
        fixture.write_text("x + y <= 3\nR1 = x\nR2 = z\n")
        code, out, err = run_cli(capsys, "fm-check", "--system", str(fixture))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "unbounded" in err

    def test_enumeration_limit_exit_two(self, capsys, tmp_path):
        fixture = tmp_path / "wide.txt"
        fixture.write_text("a + b + c + d + e + f + g + h + i <= 10\nR1 = a\nR2 = b\n")
        code, out, err = run_cli(capsys, "fm-check", "--system", str(fixture))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "combinations" in err

    def test_point_limit_exit_two_before_the_oracle(self, capsys, tmp_path, monkeypatch):
        def no_list(*args, **kwargs):
            raise AssertionError("fm-check listed points past the limit")

        fixture = tmp_path / "line.txt"
        fixture.write_text("x <= 200000\nR1 = x\nR2 = x\n")
        with monkeypatch.context() as m:
            m.setattr(cli, "enumerate_integer_projection", no_list)
            m.setattr(cli, "integer_points", no_list)
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "fm-check", "--system", str(fixture))
            assert time.perf_counter() - start < 0.5
        assert_error_line(code, out, err)
        assert err == f"error: {fixture}: the projection has more than {cli.FM_CHECK_POINT_LIMIT} integer points\n"
        # Exactly the limit still runs: x = 0..9999 is 10,000 points.
        fixture.write_text(f"x <= {cli.FM_CHECK_POINT_LIMIT - 1}\nR1 = x\nR2 = x\n")
        code, out, _ = run_cli(capsys, "fm-check", "--system", str(fixture))
        assert code == 0 and len(json.loads(out)["oracle_points"]) == cli.FM_CHECK_POINT_LIMIT

    def test_oracle_bound_is_usage_error(self, capsys):
        # The oracle's bound is always the largest inequality bound, which is exact for the fixture grammar.
        err = assert_usage_error(
            capsys, "fm-check", "--system", str(FIXTURES / "regime_a_nc2_ns1_nr3.txt"),
            "--oracle-bound", "5",
        )
        assert "--oracle-bound" in err

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.txt")))
    def test_output_matches_golden(self, capsys, name):
        codes = json.loads((GOLDEN / "fm_check_exit_codes.json").read_text())
        code, out, _ = run_cli(capsys, "fm-check", "--system", str(FIXTURES / name))
        assert code == codes[name]
        assert out.encode() == (GOLDEN / f"fm_check_{name.removesuffix('.txt')}.stdout").read_bytes()


# One scheme per regime at a corner that runs its full pipeline; the
# goldens were captured with N=8 and seed 1.
SIMULATE_GOLDEN_CASES = {
    "a": ((2, 1, 3, 0), (1, 1)),
    "b": ((1, 2, 3, 0), (1, 2)),
    "c": ((6, 3, 1, 1), (2, 2)),
    "d": ((2, 3, 1, 1), (1, 2)),
}


class TestGoldenOutputs:
    """Byte-for-byte comparison against outputs captured from earlier code."""

    def test_sweep_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--max", "4", "--oracle", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == (GOLDEN / "sweep_max4_oracle.csv").read_bytes()

    @pytest.mark.parametrize("levels", [(6, 3, 1, 1), (2, 3, 1, 1)])
    def test_region_matches_golden(self, capsys, levels):
        nc, ns, nr, nf = levels
        code, out, _ = run_cli(
            capsys, "region", "--nc", str(nc), "--ns", str(ns), "--nr", str(nr), "--nf", str(nf),
        )
        assert code == 0
        assert out.encode() == (GOLDEN / f"region_nc{nc}_ns{ns}_nr{nr}_nf{nf}.stdout").read_bytes()

    def test_netgain_matches_golden(self, capsys):
        # (2,2,1) spends feedback for no gain, so r_f is computed where eta is 0;
        # (3,3,1) gains 1 at every nf, so eta falls as r_f grows.
        for nc, ns, nr, nf_max in ((6, 3, 1, 4), (2, 2, 1, 3), (3, 3, 1, 3)):
            code, out, _ = run_cli(
                capsys, "netgain", "--nc", str(nc), "--ns", str(ns), "--nr", str(nr), "--nf-max", str(nf_max),
            )
            assert code == 0
            assert out.encode() == (GOLDEN / f"netgain_nc{nc}_ns{ns}_nr{nr}_nfmax{nf_max}.stdout").read_bytes()

    @pytest.mark.parametrize("regime", sorted(SIMULATE_GOLDEN_CASES))
    def test_simulate_matches_golden(self, capsys, tmp_path, regime):
        (nc, ns, nr, nf), (r1, r2) = SIMULATE_GOLDEN_CASES[regime]
        trace, scheme = tmp_path / "run.trace", tmp_path / "scheme.json"
        code, out, _ = run_cli(
            capsys, "simulate", "--nc", str(nc), "--ns", str(ns), "--nr", str(nr), "--nf", str(nf),
            "--r1", str(r1), "--r2", str(r2), "--blocks", "8", "--seed", "1",
            "--trace", str(trace), "--scheme-json", str(scheme),
        )
        assert code == 0
        stem = GOLDEN / f"simulate_regime_{regime}"
        assert out.encode() == stem.with_suffix(".stdout").read_bytes()
        assert trace.read_bytes() == stem.with_suffix(".trace").read_bytes()
        assert scheme.read_bytes() == stem.with_suffix(".scheme.json").read_bytes()
