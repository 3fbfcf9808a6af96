"""Command-line front end emitting CSV data for every experiment.

Every run echoes its full configuration as '#'-prefixed comment lines
followed by one header row; floating point values carry 17 significant
digits so runs are reproducible byte for byte (wall time excepted).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .core import SCHEDULES, SpaceTimeGrid, check_sigma
from .cycles import CyclePlan, check_grid, solve
from .heat import assemble_operator, assemble_rhs, heat_benchmark_problem
from .lfa import (LfaConfig, low_mode_action, omega_opt_numeric, resolve_omega,
                  rho_bar_details, smoothing_factor)
from .smoother import optimal_omega

#: the coarsening step (mt, mx) that each ``lfa-smoothing`` name analyses
_SMOOTHING_STEPS = {"time2": (2, 1), "time4": (4, 1), "space": (1, 2), "full": (2, 2),
                    "new": (4, 2)}

_CYCLE_STRATEGIES = {strategy.value: strategy for strategy in SCHEDULES}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _emit(output: str | None, config: dict, header: list[str], rows) -> None:
    lines = [f"# {key} = {_fmt(val)}" for key, val in config.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
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


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    strategy = _CYCLE_STRATEGIES[args.strategy]
    grid = SpaceTimeGrid(n_x=args.nx, n_t=args.nt, horizon=args.T)
    default_eta = 0 if len(SCHEDULES[strategy]) == 1 else 3
    eta1 = default_eta if args.eta1 is None else args.eta1
    eta2 = default_eta if args.eta2 is None else args.eta2
    plan = CyclePlan(strategy=strategy, nu1=args.nu1, nu2=args.nu2,
                     eta1=eta1, eta2=eta2, depth=args.depth)
    check_grid(grid, strategy)
    if args.iters < 0:
        raise ValueError(f"--iters must be nonnegative, got {args.iters}")
    op = assemble_operator(grid)
    cfg = LfaConfig(sigma=grid.sigma, nu1=args.nu1, nu2=args.nu2,
                    eta1=eta1, eta2=eta2, resolution=args.resolution)
    omega = resolve_omega(args.omega, strategy, cfg)
    plan = replace(plan, omega=omega)
    rhs = assemble_rhs(grid, heat_benchmark_problem(horizon=args.T))
    run = solve(op, rhs, plan, max_iters=args.iters, tol=0.0, seed=args.seed)

    iterations = np.arange(run.iterations + 1)
    cumulative = np.concatenate([[0], np.cumsum(run.block_solves)])
    seconds = np.concatenate([[0.0], run.wall_seconds])
    rows = zip(iterations, run.error_history, cumulative, seconds)
    config = {
        "command": "solve", "stmg_version": __version__,
        "strategy": args.strategy, "nx": args.nx, "nt": args.nt, "T": args.T,
        "h": grid.h, "tau": grid.tau, "sigma": grid.sigma,
        "omega_mode": args.omega, "omega": omega,
        "nu1": args.nu1, "nu2": args.nu2, "eta1": eta1, "eta2": eta2,
        "depth": args.depth, "iters": args.iters, "seed": args.seed,
        "resolution": args.resolution,
    }
    _emit(args.output, config,
          ["iteration", "error_LinfL2", "cumulative_block_solves", "wall_time_s"],
          rows)
    return 0


# ---------------------------------------------------------------------------
# lfa-smoothing
# ---------------------------------------------------------------------------

def _cmd_lfa_smoothing(args) -> int:
    step = _SMOOTHING_STEPS[args.strategy]
    sigmas = _sigma_range(args.sigma_range)
    both = args.omega == "both"
    rows = []
    for sigma in sigmas:
        omega_star = optimal_omega(step, sigma)
        if both:
            mu_star = smoothing_factor(step, omega_star, sigma)
            mu_half = smoothing_factor(step, 0.5, sigma)
            eff = 1.0 if mu_half >= 1.0 else np.log(mu_star) / np.log(mu_half)
            rows.append((sigma, omega_star, mu_star, mu_half, eff))
        else:
            omega = omega_star if args.omega == "theorem" else float(args.omega)
            rows.append((sigma, omega, smoothing_factor(step, omega, sigma)))
    config = {
        "command": "lfa-smoothing", "stmg_version": __version__,
        "strategy": args.strategy, "sigma_range": args.sigma_range,
        "omega_mode": args.omega,
    }
    header = (["sigma", "omega_used", "mu_S", "mu_S_half", "efficiency"]
              if both else ["sigma", "omega_used", "mu_S"])
    _emit(args.output, config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# lfa-rho
# ---------------------------------------------------------------------------

def _cmd_lfa_rho(args) -> int:
    rows = []
    for sigma in _sigma_range(args.sigma_range):
        base = LfaConfig(sigma=sigma, nu1=args.nu1, nu2=args.nu2,
                         eta1=args.eta1, eta2=args.eta2, resolution=args.resolution)
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
        "command": "lfa-rho", "stmg_version": __version__,
        "sigma_range": args.sigma_range, "omega_mode": args.omega,
        "nu1": args.nu1, "nu2": args.nu2, "eta1": args.eta1, "eta2": args.eta2,
        "resolution": args.resolution,
    }
    _emit(args.output, config,
          ["sigma", "rho_original", "rho_new", "omega_original", "omega_new"], rows)
    return 0


# ---------------------------------------------------------------------------
# lfa-modes
# ---------------------------------------------------------------------------

def _cmd_lfa_modes(args) -> int:
    strategy = _CYCLE_STRATEGIES[args.strategy]
    base = LfaConfig(sigma=args.sigma, nu1=args.nu1, nu2=args.nu2,
                     eta1=args.eta1, eta2=args.eta2, resolution=args.resolution)
    omega = resolve_omega(args.omega, strategy, base)
    result = low_mode_action(strategy, replace(base, omega=omega))
    rows = zip(result.theta_t, result.theta_x, result.modulus)
    config = {
        "command": "lfa-modes", "stmg_version": __version__,
        "strategy": args.strategy, "sigma": args.sigma, "omega_mode": args.omega,
        "omega": omega, "nu1": args.nu1, "nu2": args.nu2,
        "eta1": args.eta1, "eta2": args.eta2, "resolution": args.resolution,
    }
    _emit(args.output, config, ["theta_t", "theta_x", "coeff_modulus"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmg",
        description="Space-time multigrid experiments for the 1D heat equation")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run both-strategy heat solves and emit error curves")
    ps.add_argument("--nx", type=int, required=True, help="interior spatial unknowns, 2**k - 1")
    ps.add_argument("--nt", type=int, required=True, help="time steps, a power of two")
    ps.add_argument("--T", type=float, default=0.1, help="time horizon")
    ps.add_argument("--strategy", choices=sorted(_CYCLE_STRATEGIES), required=True)
    ps.add_argument("--omega", default="0.5",
                    help="damping: a number, 'theorem' or 'numeric'")
    ps.add_argument("--nu1", type=int, default=3)
    ps.add_argument("--nu2", type=int, default=3)
    ps.add_argument("--eta1", type=int, default=None,
                    help="intermediate-level pre-sweeps (original strategy only; "
                         "default 3 for original, 0 for new)")
    ps.add_argument("--eta2", type=int, default=None,
                    help="intermediate-level post-sweeps (original strategy only; "
                         "default 3 for original, 0 for new)")
    ps.add_argument("--iters", type=int, default=10)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--depth", type=int, default=1, help="coarsening stages")
    ps.add_argument("--resolution", type=int, default=64,
                    help="frequency resolution when omega is 'numeric'")
    ps.add_argument("--output", default=None)
    ps.set_defaults(func=_cmd_solve)

    pm = sub.add_parser("lfa-smoothing", help="smoothing factors over a sigma grid")
    pm.add_argument("--strategy", choices=sorted(_SMOOTHING_STEPS), required=True)
    pm.add_argument("--sigma-range", required=True, metavar="MIN:MAX:COUNT")
    pm.add_argument("--omega", default="0.5",
                    help="a number, 'theorem', or 'both' for the efficiency column")
    pm.add_argument("--output", default=None)
    pm.set_defaults(func=_cmd_lfa_smoothing)

    pr = sub.add_parser("lfa-rho", help="two/three-grid convergence factors over sigma")
    pr.add_argument("--sigma-range", required=True, metavar="MIN:MAX:COUNT")
    pr.add_argument("--omega", default="0.5",
                    help="a number, 'theorem' or 'numeric'")
    pr.add_argument("--nu1", type=int, default=3)
    pr.add_argument("--nu2", type=int, default=3)
    pr.add_argument("--eta1", type=int, default=3)
    pr.add_argument("--eta2", type=int, default=3)
    pr.add_argument("--resolution", type=int, default=128)
    pr.add_argument("--output", default=None)
    pr.set_defaults(func=_cmd_lfa_rho)

    pl = sub.add_parser("lfa-modes", help="low-mode action map for heatmap plotting")
    pl.add_argument("--strategy", choices=sorted(_CYCLE_STRATEGIES), required=True)
    pl.add_argument("--sigma", type=float, required=True)
    pl.add_argument("--omega", default="theorem")
    pl.add_argument("--nu1", type=int, default=3)
    pl.add_argument("--nu2", type=int, default=3)
    pl.add_argument("--eta1", type=int, default=3)
    pl.add_argument("--eta2", type=int, default=3)
    pl.add_argument("--resolution", type=int, default=128)
    pl.add_argument("--output", default=None)
    pl.set_defaults(func=_cmd_lfa_modes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
