import numpy as np
import pytest

from oracles import SMOOTHING_STEPS
from stmg import lfa
from stmg.cli import main
from stmg.core import SIGMA_MAX
from stmg.core import CoarseningStrategy as CS
from stmg.smoother import optimal_omega


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def split_csv(text):
    """Config comment lines, header and data rows, checking their order."""
    lines = text.splitlines()
    n_config = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert n_config > 0
    assert not any(line.startswith("#") for line in lines[n_config:])
    config = dict(line[2:].split(" = ", 1) for line in lines[:n_config])
    header = lines[n_config].split(",")
    rows = [line.split(",") for line in lines[n_config + 1:]]
    assert all(len(row) == len(header) for row in rows)
    return config, header, rows


class TestSolve:
    def test_original_defaults(self, capsys):
        code, out, _ = run(capsys, "solve", "--nx", "15", "--nt", "64",
                           "--strategy", "original", "--iters", "3")
        assert code == 0
        config, header, rows = split_csv(out)
        assert header == ["iteration", "error_LinfL2", "cumulative_block_solves",
                          "wall_time_s"]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert (config["eta1"], config["eta2"]) == ("3", "3")

    def test_new_strategy_default_etas_run(self, capsys):
        code, out, _ = run(capsys, "solve", "--nx", "15", "--nt", "64",
                           "--strategy", "new", "--iters", "2", "--depth", "2")
        assert code == 0
        config, _, rows = split_csv(out)
        assert len(rows) == 3
        assert (config["eta1"], config["eta2"]) == ("0", "0")
        assert float(rows[-1][1]) < float(rows[0][1])

    def test_new_strategy_rejects_explicit_eta(self, capsys):
        code, out, err = run(capsys, "solve", "--nx", "15", "--nt", "64",
                             "--strategy", "new", "--eta1", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("nx,nt,strategy", [(3, 16, "new"), (15, 8, "original")])
    def test_too_small_grid(self, capsys, nx, nt, strategy):
        code, out, err = run(capsys, "solve", "--nx", str(nx), "--nt", str(nt),
                             "--strategy", strategy)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too small" in err

    def test_grid_checked_before_numeric_omega(self, capsys, monkeypatch):
        def search(*args):
            raise AssertionError("omega search ran before the grid check")
        monkeypatch.setattr(lfa, "omega_opt_numeric", search)
        code, out, err = run(capsys, "solve", "--nx", "3", "--nt", "16",
                             "--strategy", "new", "--omega", "numeric")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too small" in err

    def test_zero_depth(self, capsys):
        code, _, err = run(capsys, "solve", "--nx", "15", "--nt", "64",
                           "--strategy", "new", "--depth", "0")
        assert code == 2
        assert "depth must be at least 1" in err

    def test_negative_iters(self, capsys, monkeypatch):
        def search(*args):
            raise AssertionError("omega search ran before the iteration check")
        monkeypatch.setattr(lfa, "omega_opt_numeric", search)
        for omega in ("0.5", "numeric"):
            code, out, err = run(capsys, "solve", "--nx", "15", "--nt", "64",
                                 "--strategy", "new", "--iters", "-3", "--omega", omega)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--iters must be nonnegative" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "solve.csv"
        code, out, _ = run(capsys, "solve", "--nx", "7", "--nt", "16",
                           "--strategy", "new", "--iters", "1", "--output", str(path))
        assert code == 0 and out == ""
        _, _, rows = split_csv(path.read_text())
        assert len(rows) == 2


class TestLfa:
    def test_smoothing(self, capsys):
        code, out, _ = run(capsys, "lfa-smoothing", "--strategy", "full",
                           "--sigma-range", "0.1:10:3", "--omega", "both")
        assert code == 0
        config, header, rows = split_csv(out)
        assert config["sigma_range"] == "0.1:10:3"
        assert header == ["sigma", "omega_used", "mu_S", "mu_S_half", "efficiency"]
        assert len(rows) == 3

    @pytest.mark.parametrize("name", SMOOTHING_STEPS)
    def test_smoothing_names_map_to_steps(self, capsys, name):
        # 17 significant digits round-trip, so the rows compare exactly
        step = SMOOTHING_STEPS[name]
        code, out, _ = run(capsys, "lfa-smoothing", "--strategy", name,
                           "--sigma-range", "1e-3:1e3:13", "--omega", "theorem")
        assert code == 0
        _, _, rows = split_csv(out)
        assert len(rows) == 13
        for sigma, omega, mu in ([float(v) for v in row] for row in rows):
            assert omega == optimal_omega(step, sigma)
            assert mu == lfa.smoothing_factor(step, omega, sigma)

    @pytest.mark.parametrize("spelling", [["--sigma", "0.1:10:2"], ["--sigma-r=0.1:10:2"]])
    def test_sigma_range_echo_from_parsed_argument(self, capsys, spelling):
        # argparse accepts unambiguous prefixes and the '=' form
        code, out, _ = run(capsys, "lfa-smoothing", "--strategy", "full", *spelling)
        assert code == 0
        config, _, rows = split_csv(out)
        assert config["sigma_range"] == "0.1:10:2"
        assert len(rows) == 2

    @pytest.mark.parametrize("spec", ["0.1:10", "0:10:2", "nan:1:2", "1:inf:2"])
    def test_bad_sigma_range_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "lfa-rho", "--sigma-range", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["lfa-modes", "--strategy", "new", "--sigma", "nan"],
        ["lfa-modes", "--strategy", "original", "--sigma", "inf"],
        ["lfa-smoothing", "--strategy", "full", "--sigma-range", "nan:1:2"],
    ])
    def test_non_finite_sigma_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite and positive" in err

    @pytest.mark.parametrize("sigma", ["5e307", "1e308"])
    @pytest.mark.parametrize("argv", [
        ["lfa-modes", "--strategy", "new", "--resolution", "16", "--sigma", "{}"],
        ["lfa-smoothing", "--strategy", "new", "--sigma-range", "1e300:{}:2"],
        ["lfa-rho", "--resolution", "16", "--sigma-range", "1e300:{}:2"],
    ], ids=["modes", "smoothing", "rho"])
    def test_overflowing_sigma_exits_2(self, capsys, argv, sigma):
        # the symbols form 2 sigma mt, 8 sigma for (4, 2), before dividing by mx**2
        code, out, err = run(capsys, *(arg.format(sigma) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite and positive" in err

    @pytest.mark.filterwarnings("error")
    def test_largest_accepted_sigmas_run(self, capsys):
        top = repr(SIGMA_MAX)
        runs = [["lfa-modes", "--strategy", name, "--resolution", "16", "--sigma", top]
                for name in ("new", "original")]
        runs += [["lfa-smoothing", "--strategy", name, "--sigma-range", "1e307:2e307:3",
                  "--omega", "both"] for name in SMOOTHING_STEPS]
        runs += [["lfa-rho", "--resolution", "16", "--sigma-range", "1e307:2e307:2",
                  "--omega", omega] for omega in ("0.5", "theorem")]
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
            _, _, rows = split_csv(out)
            assert rows and np.isfinite(np.array(rows, dtype=float)).all(), argv

    def test_rho(self, capsys):
        code, out, _ = run(capsys, "lfa-rho", "--sigma-range", "0.1:10:2",
                           "--omega", "0.5", "--resolution", "16")
        assert code == 0
        _, header, rows = split_csv(out)
        assert header == ["sigma", "rho_original", "rho_new", "omega_original", "omega_new"]
        assert len(rows) == 2

    def test_modes(self, capsys):
        code, out, _ = run(capsys, "lfa-modes", "--strategy", "new", "--sigma", "1",
                           "--resolution", "16")
        assert code == 0
        _, header, rows = split_csv(out)
        assert header == ["theta_t", "theta_x", "coeff_modulus"]
        assert len(rows) == 8 * 16 * 16  # eight companions per sampled low frequency
        # the original cycle smooths its intermediate level at eta = (3, 3) by default
        code, out, _ = run(capsys, "lfa-modes", "--strategy", "original", "--sigma", "1",
                           "--resolution", "16")
        assert code == 0
        config, _, default_rows = split_csv(out)
        assert (config["eta1"], config["eta2"]) == ("3", "3")
        code, out, _ = run(capsys, "lfa-modes", "--strategy", "original", "--sigma", "1",
                           "--resolution", "16", "--eta1", "1", "--eta2", "1")
        assert code == 0
        config, _, rows = split_csv(out)
        assert (config["eta1"], config["eta2"]) == ("1", "1")
        assert rows != default_rows
        cfg = lfa.LfaConfig(sigma=1.0, omega=float(config["omega"]), eta1=1, eta2=1,
                            resolution=16)
        want = lfa.low_mode_action(CS.ORIGINAL, cfg).modulus
        assert np.array_equal(np.array([float(row[2]) for row in rows]), want)

    def test_modes_sweeps(self, capsys):
        code, out, _ = run(capsys, "lfa-modes", "--strategy", "new", "--sigma", "1",
                           "--nu1", "1", "--nu2", "1")
        assert code == 0
        config, _, rows = split_csv(out)
        assert (config["nu1"], config["nu2"]) == ("1", "1")
        assert len(rows) == 8 * 128 * 128  # the default resolution
        cfg = lfa.LfaConfig(sigma=1.0, omega=float(config["omega"]), nu1=1, nu2=1)
        want = lfa.low_mode_action(CS.NEW, cfg).modulus
        assert np.array_equal(np.array([float(row[2]) for row in rows]), want)
