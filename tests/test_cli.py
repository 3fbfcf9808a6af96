import argparse
import pathlib
import sys

import numpy as np
import pytest

from oracles import SMOOTHING_STEPS
from stmg import cli, lfa
from stmg.cli import main
from stmg.core import SIGMA_MAX
from stmg.core import CoarseningStrategy as CS
from stmg.lfa import optimal_omega


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


#: the sweep flags that ``solve``, ``lfa-rho`` and ``lfa-modes`` share, as parsed
SWEEP_DEFAULTS = {"nu1": 3, "nu2": 3, "eta1": None, "eta2": None}


class TestParser:
    """Each subcommand keeps exactly its own flags and defaults, shared parents included."""

    @pytest.mark.parametrize("argv,defaults", [
        (["solve", "--nx", "7", "--nt", "16", "--strategy", "new"],
         {"nx": 7, "nt": 16, "T": 0.1, "strategy": "new", "omega": "0.5", "iters": 10,
          "seed": 0, "depth": 1, "resolution": 64, **SWEEP_DEFAULTS}),
        (["lfa-smoothing", "--strategy", "full", "--sigma-range", "1:2:2"],
         {"strategy": "full", "sigma_range": "1:2:2", "omega": "0.5"}),
        (["lfa-rho", "--sigma-range", "1:2:2"],
         {"sigma_range": "1:2:2", "omega": "0.5", "resolution": 128, **SWEEP_DEFAULTS}),
        (["lfa-modes", "--strategy", "new", "--sigma", "1"],
         {"strategy": "new", "sigma": 1.0, "omega": "theorem", "resolution": 128,
          **SWEEP_DEFAULTS}),
    ], ids=["solve", "lfa-smoothing", "lfa-rho", "lfa-modes"])
    def test_flags_and_defaults(self, argv, defaults):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        options = {s for a in commands[argv[0]]._actions for s in a.option_strings}
        want = {"--" + dest.replace("_", "-") for dest in defaults}
        assert options == want | {"-h", "--help", "--output"}
        args = vars(parser.parse_args(argv))
        assert args.pop("func") is getattr(cli, "_cmd_" + argv[0].replace("-", "_"))
        assert args == {"command": argv[0], "output": None, **defaults}


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

    def test_huge_horizon_runs_without_overflow(self, capsys):
        # a RuntimeWarning from the residual history would fail this test
        code, out, _ = run(capsys, "solve", "--nx", "7", "--nt", "16", "--strategy", "new",
                           "--T", "1e300", "--iters", "2")
        _, _, rows = split_csv(out)
        assert code == 0 and len(rows) == 3

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

    def test_negative_seed(self, capsys, monkeypatch):
        def search(*args):
            raise AssertionError("omega search ran before the seed check")
        monkeypatch.setattr(lfa, "omega_opt_numeric", search)
        for omega in ("0.5", "numeric"):
            code, out, err = run(capsys, "solve", "--nx", "15", "--nt", "64",
                                 "--strategy", "new", "--seed", "-1", "--omega", omega)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--seed must be nonnegative, got -1" in err

    @pytest.mark.parametrize("strategy,omega,depth,nx,nt,stages", [
        ("new", "numeric", "2", "15", "64", 2),
        ("new", "theorem", "2", "15", "64", 2),
        ("new", "numeric", "5", "63", "1024", 4),
        ("original", "numeric", "3", "15", "64", 2),
        ("new", "numeric", "1", "15", "64", 0),     # one stage: the analysed cycle
        ("new", "numeric", "3", "7", "16", 0),      # only one stage fits
        ("original", "theorem", "3", "15", "16", 0),
        ("new", "0.5", "2", "15", "64", 0),         # a fixed value claims no prediction
        ("new", "0.9", "2", "15", "64", 0),
    ])
    def test_multi_stage_lfa_omega_warns(self, capsys, monkeypatch, strategy, omega, depth,
                                         nx, nt, stages):
        monkeypatch.setattr(lfa, "omega_opt_numeric", lambda strategy, cfg: (0.9, 0.5))
        argv = ["solve", "--nx", nx, "--nt", nt, "--strategy", strategy, "--depth", depth,
                "--iters", "1", "--omega", omega]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert len(split_csv(out)[2]) == 2
        if not stages:
            assert err == ""
            return
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert f"--omega {omega}" in err and f"{stages} coarsening stages" in err
        assert "not predicted and can diverge" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "solve.csv"
        code, out, _ = run(capsys, "solve", "--nx", "7", "--nt", "16",
                           "--strategy", "new", "--iters", "1", "--output", str(path))
        assert code == 0 and out == ""
        _, _, rows = split_csv(path.read_text())
        assert len(rows) == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--nx", "7", "--nt", "16", "--strategy", "new", "--iters", "1"],
        ["lfa-smoothing", "--strategy", "full", "--sigma-range", "0.1:1:2"],
    ], ids=["solve", "lfa-smoothing"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not path.parent.exists()


    @pytest.mark.parametrize("argv", [
        ["lfa-rho", "--sigma-range", "0.001:1000:7", "--omega", "numeric"],
        ["solve", "--nx", "7", "--nt", "16", "--strategy", "new", "--omega", "numeric"],
    ], ids=["lfa-rho", "solve"])
    @pytest.mark.parametrize("directory", ["missing", "file"])
    def test_output_checked_before_work(self, capsys, tmp_path, monkeypatch, argv, directory):
        # the path is rejected before the omega search or the solve starts
        def never(*args, **kwargs):
            raise AssertionError("the run started before --output was checked")

        for module, name in ((lfa, "omega_opt_numeric"), (cli, "omega_opt_numeric"),
                             (cli, "solve")):
            monkeypatch.setattr(module, name, never)
        if directory == "file":
            (tmp_path / directory).write_text("")
        before = sorted(tmp_path.rglob("*"))
        path = tmp_path / directory / "x.csv"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv", [
        ["solve", "--nx", "7", "--nt", "16", "--strategy", "new"],
        ["lfa-smoothing", "--strategy", "full", "--sigma-range", "0.1:1:2"],
        ["lfa-rho", "--sigma-range", "0.001:1000:7", "--omega", "numeric"],
        ["lfa-modes", "--strategy", "new", "--sigma", "1"],
    ], ids=["solve", "lfa-smoothing", "lfa-rho", "lfa-modes"])
    @pytest.mark.parametrize("kind", ["empty", "directory"])
    def test_output_file_path_checked_before_work(self, capsys, tmp_path, monkeypatch, argv,
                                                  kind):
        # '' and an existing directory name no file; both are rejected before any work
        def never(*args, **kwargs):
            raise AssertionError("the run started before --output was checked")

        for module, name in ((lfa, "omega_opt_numeric"), (cli, "omega_opt_numeric"),
                             (cli, "solve"), (cli, "smoothing_factor"), (cli, "optimal_omega"),
                             (cli, "rho_bar_details"), (cli, "resolve_omega"),
                             (cli, "low_mode_action")):
            monkeypatch.setattr(module, name, never)
        path = "" if kind == "empty" else str(tmp_path)
        code, out, err = run(capsys, *argv, "--output", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (path or "''") in err
        assert not any(tmp_path.iterdir())


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

    @pytest.mark.parametrize("command,omega,accepted", [
        ("lfa-smoothing", "numeric", "a number, 'theorem' or 'both'"),
        ("lfa-smoothing", "half", "a number, 'theorem' or 'both'"),
        ("lfa-rho", "both", "a number, 'theorem' or 'numeric'"),
        ("lfa-rho", "half", "a number, 'theorem' or 'numeric'"),
    ], ids=["smoothing-numeric", "smoothing-half", "rho-both", "rho-half"])
    def test_unknown_omega_names_accepted_values(self, capsys, command, omega, accepted):
        argv = ["--strategy", "new"] if command == "lfa-smoothing" else ["--resolution", "16"]
        code, out, err = run(capsys, command, *argv, "--sigma-range", "1:2:2", "--omega", omega)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert accepted in err and repr(omega) in err

    def test_rho(self, capsys):
        code, out, _ = run(capsys, "lfa-rho", "--sigma-range", "0.1:10:2",
                           "--omega", "0.5", "--resolution", "16")
        assert code == 0
        _, header, rows = split_csv(out)
        assert header == ["sigma", "rho_original", "rho_new", "omega_original", "omega_new"]
        assert len(rows) == 2

    def test_rho_eta_flags(self, capsys):
        # the eta counts smooth only the original strategy's intermediate level
        argv = ["lfa-rho", "--sigma-range", "0.1:10:3", "--resolution", "16"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        config, header, default_rows = split_csv(out)
        assert (config["eta1"], config["eta2"]) == ("3", "3")
        code, out, _ = run(capsys, *argv, "--eta1", "1", "--eta2", "2")
        assert code == 0
        assert "# eta1 = 1\n# eta2 = 2\n" in out
        _, _, rows = split_csv(out)
        original, new = header.index("rho_original"), header.index("rho_new")
        for row, default in zip(rows, default_rows):
            assert float(row[original]) != float(default[original])
            assert row[new] == default[new]

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

    def test_modes_new_strategy_default_etas(self, capsys):
        # the direct strategy has no intermediate level: eta defaults to 0, as in `solve`
        argv = ["lfa-modes", "--strategy", "new", "--sigma", "1", "--resolution", "16"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        config, _, _ = split_csv(out)
        assert (config["eta1"], config["eta2"]) == ("0", "0")
        code, explicit, _ = run(capsys, *argv, "--eta1", "0", "--eta2", "0")
        assert code == 0
        assert explicit == out

    @pytest.mark.parametrize("flag", ["--eta1", "--eta2"])
    def test_modes_new_strategy_rejects_explicit_eta(self, capsys, flag):
        code, out, err = run(capsys, "lfa-modes", "--strategy", "new", "--sigma", "1",
                             "--resolution", "16", flag, "1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

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


#: reference CSVs of the runs below, written by ``python tests/test_cli.py STEM...``
GOLDEN_DIR = pathlib.Path(__file__).parent / "data"


def golden_runs():
    """File stem -> argv of every run with a reference CSV under ``GOLDEN_DIR``."""
    runs = {f"lfa-rho-{omega}": ["lfa-rho", "--sigma-range", "0.01:100:3", "--resolution", "16",
                                 "--omega", omega] for omega in ("0.5", "theorem", "numeric")}
    runs.update({f"lfa-smoothing-{name}": ["lfa-smoothing", "--strategy", name, "--sigma-range",
                                           "1e-3:1e3:13", "--omega", "both"]
                 for name in SMOOTHING_STEPS})
    runs["lfa-modes-new"] = ["lfa-modes", "--strategy", "new", "--sigma", "0.01", "--omega",
                             "theorem", "--eta1", "0", "--eta2", "0", "--resolution", "16"]
    runs["lfa-modes-original"] = ["lfa-modes", "--strategy", "original", "--sigma", "1",
                                  "--omega", "0.5", "--resolution", "16"]
    for strategy in ("new", "original"):
        for depth in ("1", "3"):
            for omega in (["0.5"], ["numeric", "--resolution", "16"]):
                runs[f"solve-{strategy}-depth{depth}-{omega[0]}"] = [
                    "solve", "--nx", "15", "--nt", "64", "--strategy", strategy,
                    "--depth", depth, "--iters", "5", "--omega", *omega]
    return runs


class TestGoldenOutputs:
    """Every run reproduces its reference CSV.

    The comment lines, the header and the integer columns must match
    exactly, and the floats to a relative 1e-10, so that another BLAS
    build passes; ``wall_time_s`` is skipped.  Regenerate the references
    only for an intended change of output, and say why in CHANGES.md.
    """

    @pytest.mark.parametrize("stem,argv", golden_runs().items(), ids=list(golden_runs()))
    def test_matches_reference(self, capsys, stem, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got, want = out.splitlines(), (GOLDEN_DIR / f"{stem}.csv").read_text().splitlines()
        assert len(got) == len(want)
        n_head = next(i for i, line in enumerate(want) if not line.startswith("#")) + 1
        assert got[:n_head] == want[:n_head]
        header = want[n_head - 1].split(",")
        for got_row, want_row in zip(got[n_head:], want[n_head:]):
            for column, g, w in zip(header, got_row.split(","), want_row.split(",")):
                if column == "wall_time_s":
                    continue
                if w.lstrip("-").isdigit():
                    assert g == w, column
                else:
                    assert float(g) == pytest.approx(float(w), rel=1e-10, abs=0.0), column


def write_references(stems, directory=GOLDEN_DIR) -> int:
    """Rewrite ``directory/STEM.csv`` for each of ``stems``; list every stem if none is given.

    Returns an exit code: 2, with nothing written, if a stem is unknown,
    and 1 if a run fails.
    """
    runs = golden_runs()
    unknown = [stem for stem in stems if stem not in runs]
    if unknown:
        print(f"unknown stem(s): {' '.join(unknown)}; known stems:", file=sys.stderr)
        print("\n".join(runs), file=sys.stderr)
        return 2
    if not stems:
        print("\n".join(runs))
        return 0
    for stem in stems:
        if main([*runs[stem], "--output", str(directory / f"{stem}.csv")]) != 0:
            print(f"{stem}: {runs[stem]} failed", file=sys.stderr)
            return 1
    return 0


class TestWriteReferences:
    """``python tests/test_cli.py STEM...`` rewrites only the named references."""

    def test_no_stem_lists_every_stem(self, capsys, tmp_path):
        assert write_references([], tmp_path / "data") == 0
        out, _ = capsys.readouterr()
        assert out.splitlines() == list(golden_runs())
        assert not (tmp_path / "data").exists()

    def test_unknown_stem_writes_nothing(self, capsys, tmp_path):
        assert write_references(["lfa-smoothing-full", "no-such-run"], tmp_path) != 0
        _, err = capsys.readouterr()
        assert "no-such-run" in err
        assert not any(tmp_path.iterdir())

    def test_named_stem_only(self, capsys, tmp_path):
        assert write_references(["lfa-smoothing-full"], tmp_path) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["lfa-smoothing-full.csv"]
        _, printed, _ = run(capsys, *golden_runs()["lfa-smoothing-full"])
        assert (tmp_path / "lfa-smoothing-full.csv").read_text() == printed


if __name__ == "__main__":
    sys.exit(write_references(sys.argv[1:]))
