"""Command-line front end emitting CSV data for every experiment.

Every run echoes its command, the package version and its full
configuration as '#'-prefixed comment lines, followed by one header row;
floating point values carry 17 significant digits so runs are
reproducible byte for byte (wall time excepted).  The sweep flags that
``solve``, ``lfa-rho`` and ``lfa-modes`` share and the ``--output`` flag of
every command are each defined once, on a parent parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .core import CoarseningStrategy, SpaceTimeGrid, check_counts, check_sigma
from .cycles import CyclePlan, plan_levels, solve
from .heat import assemble_operator, assemble_rhs, heat_benchmark_problem
from .lfa import (LfaConfig, low_mode_action, omega_opt_numeric, optimal_omega, resolve_omega,
                  rho_bar_details, smoothing_factor)

#: the coarsening step (mt, mx) that each ``lfa-smoothing`` name analyses
_SMOOTHING_STEPS = {"time2": (2, 1), "time4": (4, 1), "space": (1, 2), "full": (2, 2),
                    "new": (4, 2)}

_CYCLE_STRATEGIES = {"new": CoarseningStrategy.NEW, "original": CoarseningStrategy.ORIGINAL}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _emit(args, config: dict, header: list[str], rows) -> None:
    """Write the run's echo, header and rows to ``--output``, or to stdout."""
    config = {"command": args.command, "stmg_version": __version__, **config}
    lines = [f"# {key} = {_fmt(val)}" for key, val in config.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sigma_range(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"expected MIN:MAX:COUNT for a log sigma grid, got {spec!r}") from None
    if count < 1:
        raise ValueError(f"sigma range count must be at least 1, got {spec!r}")
    check_sigma(lo)
    check_sigma(hi)
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _eta_sweeps(args, strategy) -> tuple[int, int]:
    """``--eta1``/``--eta2``, default 3; a one-step schedule has no intermediate
    level, so its counts default to 0 and no other count is accepted."""
    one_step = len(strategy) == 1
    for flag, value in (("--eta1", args.eta1), ("--eta2", args.eta2)):
        if one_step and value:
            raise ValueError(f"{flag} must be 0 for the {args.strategy} strategy, which has "
                             f"no intermediate level; got {value}")
    default = 0 if one_step else 3
    return tuple(default if value is None else value for value in (args.eta1, args.eta2))


def _lfa_config(args, sigma: float, eta1: int, eta2: int) -> LfaConfig:
    """The analysis at ``sigma`` with the sweep counts and ``--resolution`` of ``args``."""
    return LfaConfig(sigma=sigma, nu1=args.nu1, nu2=args.nu2, eta1=eta1, eta2=eta2,
                     resolution=args.resolution)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    strategy = _CYCLE_STRATEGIES[args.strategy]
    grid = SpaceTimeGrid(n_x=args.nx, n_t=args.nt, horizon=args.T)
    eta1, eta2 = _eta_sweeps(args, strategy)
    plan = CyclePlan(strategy=strategy, nu1=args.nu1, nu2=args.nu2,
                     eta1=eta1, eta2=eta2, depth=args.depth)
    levels, _ = plan_levels(grid, plan)
    check_counts(**{"--iters": args.iters, "--seed": args.seed})
    op = assemble_operator(grid)
    omega = resolve_omega(args.omega, strategy, _lfa_config(args, grid.sigma, eta1, eta2))
    plan = replace(plan, omega=omega)
    stages = len(levels) // len(strategy)
    if args.omega in ("theorem", "numeric") and stages > 1:
        print(f"warning: --omega {args.omega} is the one-stage LFA optimum {omega:.6g}; with "
              f"{stages} coarsening stages the run is not predicted and can diverge",
              file=sys.stderr)
    rhs = assemble_rhs(grid, heat_benchmark_problem(horizon=args.T))
    run = solve(op, rhs, plan, max_iters=args.iters, tol=0.0, seed=args.seed)

    iterations = np.arange(run.iterations + 1)
    cumulative = np.concatenate([[0], np.cumsum(run.block_solves)])
    seconds = np.concatenate([[0.0], run.wall_seconds])
    rows = zip(iterations, run.error_history, cumulative, seconds)
    config = {
        "strategy": args.strategy, "nx": args.nx, "nt": args.nt, "T": args.T,
        "h": grid.h, "tau": grid.tau, "sigma": grid.sigma,
        "omega_mode": args.omega, "omega": omega,
        "nu1": args.nu1, "nu2": args.nu2, "eta1": eta1, "eta2": eta2,
        "depth": args.depth, "iters": args.iters, "seed": args.seed,
        "resolution": args.resolution,
    }
    _emit(args, config, ["iteration", "error_LinfL2", "cumulative_block_solves", "wall_time_s"],
          rows)
    return 0


# ---------------------------------------------------------------------------
# lfa-smoothing
# ---------------------------------------------------------------------------

def _cmd_lfa_smoothing(args) -> int:
    step = _SMOOTHING_STEPS[args.strategy]
    sigmas = _sigma_range(args.sigma_range)
    both = args.omega == "both"
    if args.omega not in ("theorem", "both"):
        try:
            fixed = float(args.omega)
        except ValueError:
            raise ValueError(f"--omega must be a number, 'theorem' or 'both', "
                             f"got {args.omega!r}") from None
    rows = []
    for sigma in sigmas:
        omega_star = optimal_omega(step, sigma)
        if both:
            mu_star = smoothing_factor(step, omega_star, sigma)
            mu_half = smoothing_factor(step, 0.5, sigma)
            eff = 1.0 if mu_half >= 1.0 else np.log(mu_star) / np.log(mu_half)
            rows.append((sigma, omega_star, mu_star, mu_half, eff))
        else:
            omega = omega_star if args.omega == "theorem" else fixed
            rows.append((sigma, omega, smoothing_factor(step, omega, sigma)))
    config = {"strategy": args.strategy, "sigma_range": args.sigma_range,
              "omega_mode": args.omega}
    header = (["sigma", "omega_used", "mu_S", "mu_S_half", "efficiency"]
              if both else ["sigma", "omega_used", "mu_S"])
    _emit(args, config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# lfa-rho
# ---------------------------------------------------------------------------

def _cmd_lfa_rho(args) -> int:
    # the eta counts smooth the original strategy's intermediate level; new has none
    eta1, eta2 = _eta_sweeps(args, CoarseningStrategy.ORIGINAL)
    rows = []
    for sigma in _sigma_range(args.sigma_range):
        base = _lfa_config(args, sigma, eta1, eta2)
        values = {}
        for name, strategy in _CYCLE_STRATEGIES.items():
            if args.omega == "numeric":
                omega, rho = omega_opt_numeric(strategy, base)
            else:
                omega = resolve_omega(args.omega, strategy, base)
                rho = rho_bar_details(strategy, replace(base, omega=omega)).value
            values[name] = (omega, rho)
        rows.append((sigma, values["original"][1], values["new"][1],
                     values["original"][0], values["new"][0]))
    config = {
        "sigma_range": args.sigma_range, "omega_mode": args.omega,
        "nu1": args.nu1, "nu2": args.nu2, "eta1": eta1, "eta2": eta2,
        "resolution": args.resolution,
    }
    _emit(args, config, ["sigma", "rho_original", "rho_new", "omega_original", "omega_new"], rows)
    return 0


# ---------------------------------------------------------------------------
# lfa-modes
# ---------------------------------------------------------------------------

def _cmd_lfa_modes(args) -> int:
    strategy = _CYCLE_STRATEGIES[args.strategy]
    eta1, eta2 = _eta_sweeps(args, strategy)
    base = _lfa_config(args, args.sigma, eta1, eta2)
    omega = resolve_omega(args.omega, strategy, base)
    result = low_mode_action(strategy, replace(base, omega=omega))
    rows = zip(result.theta_t, result.theta_x, result.modulus)
    config = {
        "strategy": args.strategy, "sigma": args.sigma, "omega_mode": args.omega,
        "omega": omega, "nu1": args.nu1, "nu2": args.nu2,
        "eta1": eta1, "eta2": eta2, "resolution": args.resolution,
    }
    _emit(args, config, ["theta_t", "theta_x", "coeff_modulus"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmg",
        description="Space-time multigrid experiments for the 1D heat equation")
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write the CSV to this file, not stdout")
    sweeps = argparse.ArgumentParser(add_help=False)
    sweeps.add_argument("--nu1", type=int, default=3, help="fine-level pre-sweeps")
    sweeps.add_argument("--nu2", type=int, default=3, help="fine-level post-sweeps")
    for flag, kind in (("--eta1", "pre"), ("--eta2", "post")):
        sweeps.add_argument(flag, type=int, default=None,
                            help=f"intermediate-level {kind}-sweeps (original strategy only; "
                                 "default 3 for original, 0 for new)")
    omega_help = "damping: a number, 'theorem' or 'numeric'"

    ps = sub.add_parser("solve", parents=[sweeps, output],
                        help="run a heat solve with one strategy and emit its error curve")
    ps.add_argument("--nx", type=int, required=True, help="interior spatial unknowns, 2**k - 1")
    ps.add_argument("--nt", type=int, required=True, help="time steps, a power of two")
    ps.add_argument("--T", type=float, default=0.1, help="time horizon")
    ps.add_argument("--strategy", choices=sorted(_CYCLE_STRATEGIES), required=True)
    ps.add_argument("--omega", default="0.5", help=omega_help)
    ps.add_argument("--iters", type=int, default=10)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--depth", type=int, default=1, help="coarsening stages")
    ps.add_argument("--resolution", type=int, default=64,
                    help="frequency resolution when omega is 'numeric'")
    ps.set_defaults(func=_cmd_solve)

    pm = sub.add_parser("lfa-smoothing", parents=[output],
                        help="smoothing factors over a sigma grid")
    pm.add_argument("--strategy", choices=sorted(_SMOOTHING_STEPS), required=True)
    pm.add_argument("--sigma-range", required=True, metavar="MIN:MAX:COUNT")
    pm.add_argument("--omega", default="0.5",
                    help="a number, 'theorem', or 'both' for the efficiency column")
    pm.set_defaults(func=_cmd_lfa_smoothing)

    resolution_help = "frequency samples per axis of the low domain"
    pr = sub.add_parser("lfa-rho", parents=[sweeps, output],
                        help="two/three-grid convergence factors over sigma")
    pr.add_argument("--sigma-range", required=True, metavar="MIN:MAX:COUNT")
    pr.add_argument("--omega", default="0.5", help=omega_help)
    pr.add_argument("--resolution", type=int, default=128, help=resolution_help)
    pr.set_defaults(func=_cmd_lfa_rho)

    pl = sub.add_parser("lfa-modes", parents=[sweeps, output],
                        help="low-mode action map for heatmap plotting")
    pl.add_argument("--strategy", choices=sorted(_CYCLE_STRATEGIES), required=True)
    pl.add_argument("--sigma", type=float, required=True)
    pl.add_argument("--omega", default="theorem", help=omega_help)
    pl.add_argument("--resolution", type=int, default=128, help=resolution_help)
    pl.set_defaults(func=_cmd_lfa_modes)

    return parser


def _check_output(path: str | None) -> None:
    """Reject an ``--output`` path that cannot name a file, before any work.

    The file itself is written only after the work, so a failed run leaves none.
    """
    if path is None:
        return
    if not path:
        raise ValueError("cannot write --output '': the path is empty")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        raise ValueError(f"cannot write {path}: {out_dir} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
