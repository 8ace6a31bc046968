"""End-to-end checks of the command-line surface: formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paradirac import cli
from paradirac.verify import SUITE_NAMES
from paradirac.algebra import ELECTRON_MASS, ELEMENTARY_CHARGE, FINE_STRUCTURE
from paradirac.scattering import mott_dcs, mott_ratio

REPO = Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "algebra"], capsys)
        assert code == 0
        assert out.count("anticommutator") == 16
        assert out.rstrip().endswith("verify: PASS")

    def test_all_suites_deterministic(self, capsys):
        code1, out1, _ = run_cli(["verify", "--suite", "all"], capsys)
        code2, out2, _ = run_cli(["verify", "--suite", "all"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        for name in ("algebra", "spinors", "propagate", "twobody", "currents"):
            assert f"[{name}]" in out1

    def test_hopeless_tolerance_fails(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "spinors", "--tol", "1e-30"], capsys)
        assert code == 1
        assert out.rstrip().endswith("verify: FAIL")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2


class TestMottCommand:
    def test_table_shape_and_values(self, capsys):
        code, out, _ = run_cli(["mott"], capsys)
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "kappa_deg,dcs,ratio_to_rutherford"
        assert lines[-1] == ""
        rows = lines[1:-1]
        assert len(rows) == 50
        kappa = float(rows[0].split(",")[0])
        assert abs(kappa - 3.6) <= 1e-12
        # every row reproduces the library values at full printed precision
        grid = np.linspace(3.6, 176.4, 50)
        for deg, row in list(zip(grid, rows))[::7]:
            _, dcs_s, ratio_s = row.split(",")
            kap = float(np.radians(deg))
            assert dcs_s == f"{mott_dcs(ELECTRON_MASS, kap, 1.0):.12e}"
            assert ratio_s == f"{mott_ratio(ELECTRON_MASS, kap, 1.0):.12e}"

    def test_ratio_at_right_angle(self, capsys):
        # |p| = m: beta^2 = 1/2, so the right-angle ratio is 1 - 1/4
        code, out, _ = run_cli(["mott", "--angles", "90"], capsys)
        assert code == 0
        ratio = float(out.split("\n")[1].split(",")[2])
        assert abs(ratio - 0.75) <= 1e-12

    def test_charge_scaling(self, capsys):
        _, out1, _ = run_cli(["mott", "--angles", "30,60"], capsys)
        _, out2, _ = run_cli(["mott", "--angles", "30,60", "--Z", "2"], capsys)
        for row1, row2 in zip(out1.split("\n")[1:3], out2.split("\n")[1:3]):
            d1, r1 = float(row1.split(",")[1]), float(row1.split(",")[2])
            d2, r2 = float(row2.split(",")[1]), float(row2.split(",")[2])
            assert abs(d2 - 4.0 * d1) <= 1e-12 * d2
            assert r1 == r2

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "mott.csv"
        code, out, _ = run_cli(["mott", "--angles", "10:170:9"], capsys)
        code2 = cli.main(["mott", "--angles", "10:170:9", "--out", str(target)])
        capsys.readouterr()
        assert code == code2 == 0
        assert target.read_bytes() == out.encode()
        assert b"\r" not in target.read_bytes()

    def test_long_grid_runs_in_slices(self, monkeypatch, capsys):
        # a long grid is traced a slice at a time and prints the rows of
        # a single trace over the whole grid
        count = 2 * cli._MOTT_BATCH + 7
        sizes = []

        def recording(p_mag, kappa, z):
            sizes.append(np.size(kappa))
            return mott_dcs(p_mag, kappa, z)

        monkeypatch.setattr(cli, "mott_dcs", recording)
        code, out, _ = run_cli(["mott", "--angles", f"1:179:{count}"], capsys)
        assert code == 0
        assert sizes == [cli._MOTT_BATCH, cli._MOTT_BATCH, 7]
        grid = np.linspace(1.0, 179.0, count)
        dcs, ratio = mott_dcs(ELECTRON_MASS, np.radians(grid), 1.0), mott_ratio(
            ELECTRON_MASS, np.radians(grid), 1.0)
        assert out.split("\n")[1:-1] == [f"{deg:.6f},{d:.12e},{r:.12e}"
                                         for deg, d, r in zip(grid, dcs, ratio)]

    @pytest.mark.parametrize("bad", ["0:10:4", "190", "abc", "10,,20", ""])
    def test_bad_angle_grids_rejected(self, bad):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mott", "--angles", bad])
        assert excinfo.value.code == 2


class TestJsonCommands:
    def test_uehling_record(self, capsys):
        code, out, _ = run_cli(["uehling", "--Z", "1", "--state", "2s"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["quantity"] == "uehling_shift_n2_l0_Z1"
        assert record["units"] == "MHz"
        assert -100.0 < record["value"] < -10.0
        assert list(record) == sorted(record)

    def test_uehling_unknown_state(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["uehling", "--state", "3d"])
        assert excinfo.value.code == 2

    def test_g2_record(self, capsys):
        code, out, _ = run_cli(["g2"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["quantity"] == "a_e"
        expect = FINE_STRUCTURE / (2.0 * np.pi)
        assert abs(record["value"] - expect) <= 1e-6 * expect

    def test_anomaly_orthogonal_is_plus_zero(self, capsys):
        code, out, _ = run_cli(["anomaly", "--E", "0,0,1", "--B", "0,1,0"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 0.0
        assert "-0.0" not in out

    def test_anomaly_parallel_value(self, capsys):
        code, out, _ = run_cli(["anomaly", "--E", "0,0,2", "--B", "0,0,1"], capsys)
        assert code == 0
        expect = ELEMENTARY_CHARGE**2 * 2.0 / (2.0 * np.pi**2)
        value = json.loads(out)["value"]
        assert abs(value - expect) <= 1e-14 * expect

    def test_anomaly_malformed_triple(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["anomaly", "--E", "0,0", "--B", "0,0,1"])
        assert excinfo.value.code == 2


class TestPropagateDemo:
    def test_record_contents(self, capsys):
        code, out, _ = run_cli(
            ["propagate-demo", "--seed", "7", "--dtau", "0.5", "--modes", "6"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["modes_in"] == 6
        assert record["modes_out"] == len(record["survivors"])
        assert 0 < record["modes_out"] <= 6
        assert record["kernel_conjugation_residual"] == 0.0
        # which=+1 with dtau>0 keeps only forward-subspace modes: frequency > 0
        assert all(s["frequency"] > 0.0 for s in record["survivors"])
        for s in record["survivors"]:
            assert abs(np.hypot(*s["coefficient"])) > 0.0

    def test_backward_selector(self, capsys):
        code, out, _ = run_cli(["propagate-demo", "--seed", "7", "--which", "-1"], capsys)
        assert code == 0
        record = json.loads(out)
        assert all(s["frequency"] < 0.0 for s in record["survivors"])

    def test_byte_determinism(self, capsys):
        argv = ["propagate-demo", "--seed", "3", "--dtau", "2.0"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestConsoleScript:
    def test_installed_entry_point(self, capsys):
        # The contract is the [project.scripts] target. Run it the way pip's
        # generated launcher does: import the target, call it, and hand the
        # return value to sys.exit.
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["paradirac"]
        module, _, func = target.partition(":")
        launcher = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
        runs = [[sys.executable, "-c", launcher, "g2"]]
        # An installed script is also run, but only the running interpreter's:
        # a `paradirac` elsewhere on PATH may belong to another environment.
        installed = shutil.which("paradirac", path=sysconfig.get_path("scripts"))
        if installed is not None:
            runs.append([installed, "g2"])

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        _, inproc, _ = run_cli(["g2"], capsys)
        for argv in runs:
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, f"{argv}: {proc.stderr}"
            assert proc.stdout == inproc, argv


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["g2", "--alpha", "inf"],
        ["mott", "--p-mag", "inf"],
        ["mott", "--Z", "inf"],
        ["mott", "--angles", "nan"],
        ["propagate-demo", "--dtau", "nan"],
        ["propagate-demo", "--dtau", "inf"],
        ["verify", "--tol", "inf"],
        ["anomaly", "--E", "inf,0,0", "--B", "1,1,1"],
        # finite arguments whose contraction overflows
        ["anomaly", "--E", "1e300,0,0", "--B", "1e300,0,0"],
        # finite arguments whose result overflows, or underflows to 0/0
        ["mott", "--p-mag", "1e300", "--angles", "90"],
        ["mott", "--Z", "1e300", "--angles", "90"],
        ["mott", "--Z", "1e-300", "--angles", "90"],
        ["uehling", "--Z", "1e300"],
        ["propagate-demo", "--modes", "0"],
        ["propagate-demo", "--modes", "-3"],
    ], ids=" ".join)
    def test_rejected_with_exit_2(self, argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err

    @pytest.mark.parametrize("electric, magnetic", [
        ("1e200,0,0", "1e200,0,0"),  # E.B overflows to inf
        ("1e200,1e200,0", "1e200,-1e200,0"),  # inf - inf in the index sums
    ])
    def test_anomaly_overflow_names_the_contraction(self, electric, magnetic):
        code, out, err = _main_captured(["anomaly", "--E", electric, "--B", magnetic])
        assert (code, out) == (2, "")
        assert err == "paradirac anomaly: the contraction eps^{mnrs} F_mn F_rs overflows\n"


# +-10^U(-300, 300): signs that argparse must refuse, magnitudes whose
# results overflow or underflow, and everything between
_magnitude = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                       st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0))
# finite degrees, some outside (0, 180], with the grazing and backward ends
_angle = st.one_of(st.floats(-90.0, 270.0), st.floats(1e-12, 1e-3),
                   st.sampled_from([0.0, 1e-9, 179.999999, 180.0]))


class TestMottArgvContract:
    @settings(max_examples=300)
    @given(_magnitude, _magnitude, st.lists(_angle, min_size=1, max_size=5))
    def test_finite_csv_or_one_line_exit_2(self, p_mag, z, angles):
        argv = ["mott", f"--p-mag={p_mag!r}", f"--Z={z!r}",
                "--angles=" + ",".join(map(repr, angles))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), argv
        if code == 2:
            assert out == ""
            assert err.endswith("\n") and err.count("\n") == 1, err
            return
        assert err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kappa_deg", "dcs", "ratio_to_rutherford"]
        assert len(rows) == 1 + len(angles)
        for row in rows[1:]:
            assert len(row) == 3 and all(math.isfinite(float(v)) for v in row), row


class TestStartupImports:
    def test_scipy_loaded_only_by_quadrature_commands(self):
        # A fresh process: scipy must stay out of sys.modules through every
        # command, the quadrature commands (uehling, g2) included.
        script = (
            "import contextlib, io, json, sys\n"
            "import paradirac, paradirac.cli\n"
            "steps = [['import', 0, 'scipy' in sys.modules]]\n"
            "for argv in (['verify', '--suite', 'all'], ['mott'],\n"
            "             ['anomaly', '--E', '1,2,3', '--B', '0.5,-1,2'],\n"
            "             ['propagate-demo'], ['uehling'], ['g2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = paradirac.cli.main(argv)\n"
            "    steps.append([argv[0], code, 'scipy' in sys.modules])\n"
            "print(json.dumps(steps))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            ["import", 0, False],
            ["verify", 0, False],
            ["mott", 0, False],
            ["anomaly", 0, False],
            ["propagate-demo", 0, False],
            ["uehling", 0, False],
            ["g2", 0, False],
        ]

    def test_numpy_polynomial_not_loaded(self):
        # numpy 2 loads numpy.polynomial on first use, at several ms a cold
        # run; the Gauss-Legendre rules of uehling and g2 are built without it.
        script = (
            "import contextlib, io, json, sys\n"
            "import paradirac.cli\n"
            "steps = []\n"
            "for argv in (['uehling'], ['g2'], ['verify', '--suite', 'all'], ['mott']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = paradirac.cli.main(argv)\n"
            "    steps.append([argv[0], code, 'numpy.polynomial' in sys.modules])\n"
            "print(json.dumps(steps))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            ["uehling", 0, False], ["g2", 0, False], ["verify", 0, False], ["mott", 0, False],
        ]

    def test_runs_with_scipy_blocked(self):
        # A None entry in sys.modules makes every `import scipy` raise, so a
        # stray scipy import anywhere on these paths fails the run.
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import paradirac.cli\n"
            "from paradirac import radiative\n"
            "steps = []\n"
            "for argv in (['verify', '--suite', 'all'], ['mott'], ['uehling'], ['g2'],\n"
            "             ['anomaly', '--E', '1,2,3', '--B', '0.5,-1,2'],\n"
            "             ['propagate-demo']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        steps.append([argv[0], paradirac.cli.main(argv)])\n"
            "r = 1.0 / radiative.ELECTRON_MASS\n"
            "signs = [radiative.uehling_ratio(r) > 0.0,\n"
            "         radiative.uehling_potential_hyperbolic(r, 1.0) < 0.0,\n"
            "         radiative.uehling_shift_fixed_grid(2, 0, 1.0) < 0.0,\n"
            "         radiative.f2_anomalous_moment() > 0.0]\n"
            "print(json.dumps([steps, [bool(s) for s in signs]]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            [["verify", 0], ["mott", 0], ["uehling", 0], ["g2", 0], ["anomaly", 0],
             ["propagate-demo", 0]],
            [True, True, True, True],
        ]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserBuiltOnce:
    def test_repeated_main_calls(self, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            stream = [["mott"], ["propagate-demo", "--modes", "8", "--which", "-1", "--dtau", "-0.7"],
                      ["anomaly", "--E", "1,2,3", "--B", "0.5,-1,2"], ["mott", "--angles", "0"]]
            first = [_main_captured(argv) for argv in stream]
            again = [_main_captured(argv) for argv in stream]
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
        assert again == first
        assert [code for code, _, _ in first] == [0, 0, 0, 2]
        # the argument error leaves one line and no output
        _, out, err = first[-1]
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")


class TestRutherfordRange:
    def test_mott_beyond_p4_overflow(self):
        # 4 p^4 overflows above |p| of about 1e77 MeV; the squared ratio does not
        code, out, err = _main_captured(["mott", "--p-mag=1e77", "--angles=90"])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kappa_deg", "dcs", "ratio_to_rutherford"]
        assert abs(float(rows[1][2]) - 0.5) <= 1e-9
        assert 0.0 < float(rows[1][1]) < math.inf


class TestPropagateDemoArgvContract:
    @settings(max_examples=200)
    @given(st.integers(-3, 2**64), st.one_of(_magnitude, st.just(0.0)),
           st.sampled_from([1, -1, 0, 2]), st.integers(-2, 64))
    def test_strict_json_or_one_line_exit_2(self, seed, dtau, which, modes):
        argv = ["propagate-demo", f"--seed={seed}", f"--dtau={dtau!r}", f"--which={which}",
                f"--modes={modes}"]
        code, out, err = _main_captured(argv)
        assert code in (0, 2), argv
        if code == 2:
            assert out == ""
            assert err.endswith("\n") and err.count("\n") == 1, err
            return
        assert err == ""
        record = _strict_json(out)
        assert record["modes_in"] == modes
        assert record["modes_out"] == len(record["survivors"]) <= modes


# float arguments: +-10^U(-300, 300), signed zeros and the non-finite spellings
_float_arg = st.one_of(_magnitude, st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
_triple = st.lists(_float_arg, min_size=3, max_size=3).map(lambda v: ",".join(map(repr, v)))


def _rejected(code, out, err):
    """Whether the run exited 2, which it must do with no output and one line."""
    if code != 2:
        return False
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    return True


class TestArgvContract:
    """verify, uehling, g2 and anomaly on argv drawn from the parser's grammar:
    exit 0 with strict JSON or a full report, exit 2 with no output and one
    line on stderr, or, for verify only, exit 1 with a full report ending in
    `verify: FAIL`.  Never a traceback."""

    @settings(max_examples=40)
    @given(st.sampled_from(("all",) + SUITE_NAMES), st.integers(-(2**70), 2**70),
           st.one_of(st.none(), _float_arg))
    @example("all", -1, None)
    @example("spinors", 2**64 + 1, 1e-30)
    def test_verify(self, suite, seed, tol):
        argv = ["verify", f"--suite={suite}", f"--seed={seed}"]
        argv += [] if tol is None else [f"--tol={tol!r}"]
        code, out, err = _main_captured(argv)
        assert code in (0, 1, 2), argv
        if _rejected(code, out, err):
            return
        assert err == ""
        lines = out.splitlines()
        assert lines[-1] == ("verify: PASS" if code == 0 else "verify: FAIL")
        summaries = [re.fullmatch(r"\[(\w+)\] (\d+)/(\d+) checks passed", line) for line in lines]
        summaries = [match.groups() for match in summaries if match]
        assert [name for name, _, _ in summaries] == list(SUITE_NAMES if suite == "all" else (suite,))
        assert len(lines) == 1 + sum(1 + int(total) for _, _, total in summaries)
        assert all(passed == total for _, passed, total in summaries) == (code == 0)

    @settings(max_examples=100)
    @given(_float_arg, st.sampled_from(sorted(cli._STATE_LABELS)))
    def test_uehling(self, z, state):
        self.assert_json_record(["uehling", f"--Z={z!r}", f"--state={state}"])

    @settings(max_examples=100)
    @given(_float_arg)
    def test_g2(self, alpha):
        self.assert_json_record(["g2", f"--alpha={alpha!r}"])

    @settings(max_examples=100)
    @given(_triple, _triple)
    def test_anomaly(self, electric, magnetic):
        self.assert_json_record(["anomaly", f"--E={electric}", f"--B={magnetic}"])

    @staticmethod
    def assert_json_record(argv):
        code, out, err = _main_captured(argv)
        assert code in (0, 2), argv
        if _rejected(code, out, err):
            return
        assert err == ""
        record = _strict_json(out)
        assert math.isfinite(record["value"]) and math.isfinite(record["est_error"])
