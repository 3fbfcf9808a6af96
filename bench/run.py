"""Benchmark of `stmg`: time to tolerance of both cycles, and LFA curve time.

Run from the repository root:

    python3 bench/run.py --workload solve-twolevel --seed 1 --seconds 30 --trace 0

Each run repeats whole rounds of the same operations for about --seconds
and reports medians over the rounds.  The last line of
standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a run with
spans around every call into the `stmg` modules.  See README.md.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))
try:
    from stmg import core, cycles, heat, lfa
except ImportError as exc:
    sys.exit(f"error: cannot import stmg from {ROOT / 'src'}: {exc}")
if not Path(core.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: stmg was imported from {core.__file__}, not from {ROOT / 'src'}")

STRATEGIES = {"new": core.CoarseningStrategy.NEW,
              "original": core.CoarseningStrategy.ORIGINAL}
OMEGA, NU, ETA = 0.5, 3, 3
LFA_RES = 128          # the resolution `stmg lfa-rho` and `stmg lfa-modes` default to
RATE_TOL = 0.1         # |measured contraction - LFA rho_bar| allowed at depth 1
ROUNDOFF = 1e-10       # relative max difference allowed against the dense references
DENSE_GRID = (32, 16)  # torus (n_t, n_x) of the dense periodic cycle-matrix check

PROLONG_FAULT = ("transfer.prolong returns interpolation / mx, but the rediscretized "
                 "coarse rows (mt*tau) and the LFA need mt * interpolation, so the "
                 "(4,2) step applies about 1/8 of the correction")


@dataclass(frozen=True)
class Workload:
    n_x: int
    n_t: int
    horizon: float
    depth: int
    tol: float                 # L_inf(L2) error the solves iterate to
    cap: int                   # cycles allowed to reach it
    check_rate: bool           # compare the contraction with the LFA two-grid factor
    curve_sigmas: tuple        # rho_bar at omega 0.5, as `stmg lfa-rho --omega 0.5`
    omega_sigmas: tuple        # omega_opt_numeric, as `stmg lfa-rho --omega numeric`
    omega_res: int
    modes_sigmas: tuple        # low_mode_action, as `stmg lfa-modes`


# Every workload runs the solve and the LFA parts, since every run reports
# every metric; each stresses one part and keeps the others small.
WORKLOADS = {
    # depth 1, sigma = 1.6: the coarsest direct solve dominates each cycle,
    # and the LFA two-grid factor applies exactly
    "solve-twolevel": Workload(63, 256, 0.1, 1, 1e-5, 120, True,
                               (0.4, 1.6, 6.4), (1.6,), 16, (0.4, 1.6, 6.4)),
    # the deepest hierarchy at sigma = 0.1 (n_t = 4**6): Jacobi sweeps,
    # Thomas solves and transfers dominate, the coarsest solve is ~1 %
    "solve-deep": Workload(63, 4096, 0.1, 5, 1e-5, 40, False,
                           (0.025, 0.1, 0.4), (0.1,), 16, (0.025, 0.1, 0.4)),
    # LFA matrix builds and batched eigenvalues; the solve is a depth-1
    # solve on a smaller grid at sigma = 1.6
    "lfa-curves": Workload(31, 256, 0.4, 1, 1e-5, 120, False,
                           tuple(np.logspace(-2, 2, 5)), (1.6,), 32, (0.1, 1.0, 10.0)),
}


@dataclass
class Tally:
    """Operations attempted and failed, and checks of delivered outputs."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    reported: set = field(default_factory=set)

    def op(self, name: str, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.reported:
                self.reported.add(name)
                print(f"FAILED {name}: {why}; known fault: {PROLONG_FAULT}")

    def check(self, name: str, ok: bool, why: str = ""):
        if not ok:
            self.wrong.append(f"{name}: {why}")
            print(f"WRONG {name}: {why}")


@dataclass
class Context:
    w: Workload
    grid: core.SpaceTimeGrid
    seed: int
    ref_rhs: np.ndarray
    ref: np.ndarray
    predicted: dict
    rho_half: dict
    iters: dict = field(default_factory=dict)  # cycles per solve, once a round has run


def lfa_config(sigma, res):
    return lfa.LfaConfig(sigma=sigma, omega=OMEGA, nu1=NU, nu2=NU, eta1=ETA, eta2=ETA,
                         resolution=res)


def plan_for(name, depth):
    eta = ETA if name == "original" else 0
    return cycles.CyclePlan(strategy=STRATEGIES[name], omega=OMEGA, nu1=NU, nu2=NU,
                            eta1=eta, eta2=eta, depth=depth)


# ---------------------------------------------------------------------------
# operations of one round
# ---------------------------------------------------------------------------

def setup(ctx: Context, tally: Tally):
    """Everything `stmg solve` does before its first cycle; returns (op, rhs, seconds)."""
    w = ctx.w
    t0 = time.perf_counter()
    grid = core.SpaceTimeGrid(n_x=w.n_x, n_t=w.n_t, horizon=w.horizon)
    op = heat.assemble_operator(grid)
    rhs = heat.assemble_rhs(grid, heat.heat_benchmark_problem(horizon=w.horizon))
    u = heat.direct_solve(op, rhs)
    seconds = time.perf_counter() - t0
    d_rhs, d_u = checks.rel_max_diff(rhs, ctx.ref_rhs), checks.rel_max_diff(u, ctx.ref)
    tally.check("setup.rhs", d_rhs <= ROUNDOFF, f"assemble_rhs off by {d_rhs:.3g}")
    tally.check("setup.direct_solve", d_u <= ROUNDOFF,
                f"direct_solve off the dense time stepping by {d_u:.3g}")
    tally.op("setup", True)
    return op, rhs, seconds


def solve(ctx: Context, name: str, op, rhs, tally: Tally, out: dict):
    """Cycles from the seeded uniform guess until the error meets the tolerance.

    A generator: it yields after each timed cycle, so that the round can
    interleave it with the other operations.
    """
    w, g = ctx.w, ctx.grid
    plan = plan_for(name, w.depth)
    counter = cycles.CostCounter()
    u = core.random_field(g, np.random.default_rng(ctx.seed))
    errors = [checks.l_inf_l2(u - ctx.ref, g.h)]
    times = out[f"{name}.time_to_tol_s"] = []
    while errors[-1] > w.tol and len(times) < w.cap:
        t0 = time.perf_counter()
        u = cycles.run_cycle(op, u, rhs, plan, counter)
        times.append(time.perf_counter() - t0)
        errors.append(checks.l_inf_l2(u - ctx.ref, g.h))
        yield
    tally.check(f"{name}.solve", bool(np.isfinite(u).all()), "non-finite iterate")
    tally.op(f"{name}.solve", errors[-1] <= w.tol,
             f"error {errors[-1]:.3g} after the cap of {w.cap} cycles, tolerance {w.tol:g}")
    if w.check_rate:
        ratios = np.array(errors[1:]) / np.array(errors[:-1])
        rate = float(np.exp(np.log(ratios[len(ratios) // 2:]).mean()))
        pred = ctx.predicted[name]
        tally.op(f"{name}.rate", abs(rate - pred) <= RATE_TOL,
                 f"contraction {rate:.3f} over the last {len(ratios) - len(ratios) // 2} "
                 f"cycles, LFA rho_bar {pred:.3f}, tolerance {RATE_TOL}")
    out[f"{name}.iters"] = len(times)
    out[f"{name}.block_solves"] = counter.block_solves / len(times)
    out[f"{name}.transfer_blocks"] = counter.transfer_blocks / len(times)


def timed_calls(calls, times: list):
    """Run (fn, *args) calls, timing each and yielding after it; returns the results."""
    results = []
    for fn, *args in calls:
        t0 = time.perf_counter()
        results.append(fn(*args))
        times.append(time.perf_counter() - t0)
        yield
    return results


def lfa_curve(ctx: Context, tally: Tally, out: dict):
    calls = [(lfa.rho_bar_details, s, lfa_config(sigma, LFA_RES))
             for sigma in ctx.w.curve_sigmas for s in STRATEGIES.values()]
    results = yield from timed_calls(calls, out.setdefault("lfa.rho_curve_s", []))
    bad = [r.value for r in results if not 0.0 < r.value < 1.0]
    tally.check("lfa.curve", not bad, f"rho_bar outside (0, 1): {bad}")
    tally.op("lfa.curve", True)


def lfa_omega(ctx: Context, tally: Tally, out: dict):
    keys = [(sigma, name) for sigma in ctx.w.omega_sigmas for name in STRATEGIES]
    calls = [(lfa.omega_opt_numeric, STRATEGIES[name], lfa_config(sigma, ctx.w.omega_res))
             for sigma, name in keys]
    results = yield from timed_calls(calls, out.setdefault("lfa.omega_numeric_s", []))
    for key, (omega, rho) in zip(keys, results):
        tally.check("lfa.omega", 0.0 < omega <= 1.0 and rho <= ctx.rho_half[key] + 1e-12,
                    f"{key}: omega {omega}, rho {rho} against rho_bar(0.5) "
                    f"{ctx.rho_half[key]}")
    tally.op("lfa.omega", True)


def lfa_modes(ctx: Context, tally: Tally, out: dict):
    calls = [(lfa.low_mode_action, s, lfa_config(sigma, LFA_RES))
             for sigma in ctx.w.modes_sigmas for s in STRATEGIES.values()]
    results = yield from timed_calls(calls, out.setdefault("lfa.modes_s", []))
    size = 8 * LFA_RES * LFA_RES
    for m in results:
        ok = (len(m.modulus) == size and np.isfinite(m.modulus).all()
              and (m.modulus >= 0).all() and np.abs(m.theta_t).max() <= np.pi
              and np.abs(m.theta_x).max() <= np.pi)
        tally.check("lfa.modes", ok, "map has the wrong size, a bad value or angle")
    tally.op("lfa.modes", True)


def lfa_radii(ctx: Context, tracer):
    """Traced runs only: radii on the frequencies of one map, for the eigenvalue share."""
    tg, xg = lfa.low_frequency_grid(LFA_RES)
    tt, tx = (a.ravel() for a in np.meshgrid(tg, xg, indexing="ij"))
    cfg = lfa_config(ctx.w.modes_sigmas[0], LFA_RES)
    with tracer.phase("lfa.radii"):
        for s in STRATEGIES.values():
            lfa.spectral_radius_over_groups(s, cfg, tt, tx)


def run_round(ctx: Context, tally: Tally, tracer) -> dict:
    """One of each operation; a timed one records a list of per-call seconds.

    After set-up the operations run interleaved, the one least far along
    going next, so each metric samples the whole round, not one stretch
    of it: this machine switches between a fast and a slow speed for
    seconds at a time.
    """
    out = {}
    with tracer.phase("setup"):
        op, rhs, seconds = setup(ctx, tally)
    out["setup_s"] = [seconds]
    w = ctx.w
    streams = {f"{name}.solve": (solve(ctx, name, op, rhs, tally, out),
                                 ctx.iters.get(name, w.cap)) for name in STRATEGIES}
    streams["lfa.curve"] = (lfa_curve(ctx, tally, out), 2 * len(w.curve_sigmas))
    streams["lfa.omega"] = (lfa_omega(ctx, tally, out), 2 * len(w.omega_sigmas))
    streams["lfa.modes"] = (lfa_modes(ctx, tally, out), 2 * len(w.modes_sigmas))
    done = dict.fromkeys(streams, 0)
    while streams:
        phase = min(streams, key=lambda k: (done[k] + 0.5) / streams[k][1])
        with tracer.phase(phase):
            try:
                next(streams[phase][0])
                done[phase] += 1
            except StopIteration:
                del streams[phase]
    for name in STRATEGIES:
        ctx.iters[name] = out[f"{name}.iters"]
    if isinstance(tracer, Tracer):
        lfa_radii(ctx, tracer)
    return out


# ---------------------------------------------------------------------------
# once per run: independent references, dense check, warm-up
# ---------------------------------------------------------------------------

def prepare(w: Workload, seed: int, tally: Tally) -> Context:
    grid = core.SpaceTimeGrid(n_x=w.n_x, n_t=w.n_t, horizon=w.horizon)
    ref_rhs = checks.heat_rhs(w.n_x, w.n_t, w.horizon)
    ctx = Context(w, grid, seed, ref_rhs, checks.time_step(ref_rhs, grid.sigma), {}, {})

    n_t, n_x = DENSE_GRID
    tt, tx = checks.low_frequencies(n_t, n_x)
    for name, s in STRATEGIES.items():
        eta = ETA if name == "original" else 0
        m = checks.cycle_matrix(name, n_t, n_x, grid.sigma, OMEGA, NU, NU, eta, eta)
        dense = checks.radius_without_zero_group(m, n_t, n_x)
        radii, _ = lfa.spectral_radius_over_groups(s, lfa_config(grid.sigma, LFA_RES), tt, tx)
        d = abs(float(radii.max()) - dense) / dense
        tally.check(f"lfa.dense.{name}", d <= ROUNDOFF,
                    f"LFA max radius {radii.max()} against dense periodic {dense}")
        if w.check_rate:
            ctx.predicted[name] = lfa.rho_bar_details(s, lfa_config(grid.sigma, LFA_RES)).value
        for sigma in w.omega_sigmas:
            ctx.rho_half[(sigma, name)] = lfa.rho_bar_details(
                s, lfa_config(sigma, w.omega_res)).value

    # warm-up, untimed and uncounted: first calls of each path
    op = heat.assemble_operator(grid)
    rhs = heat.assemble_rhs(grid, heat.heat_benchmark_problem(horizon=w.horizon))
    for name in STRATEGIES:
        cycles.run_cycle(op, core.zero_field(grid), rhs, plan_for(name, w.depth))
        lfa.low_mode_action(STRATEGIES[name], lfa_config(1.0, 16))
    return ctx


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "lfa.rho_curve_s": "s", "lfa.omega_numeric_s": "s",
             "lfa.modes_s": "s"}
for _name in STRATEGIES:
    E2E_UNITS.update({f"{_name}.time_to_tol_s": "s", f"{_name}.cycle_s": "s",
                      f"{_name}.iters": "count"})

#: per strategy: metric suffix -> (span name, 'duration' | 'self' | 'count')
SOLVE_LAYERS = {
    "heat.direct_solve_s": ("heat.direct_solve", "duration"),
    "heat.apply_operator_s": ("heat.apply_operator", "duration"),
    "heat.assemble_operator_s": ("heat.assemble_operator", "duration"),
    "core.thomas_solve_s": ("core.thomas_solve", "duration"),
    "core.thomas_rows": ("core.thomas_solve", "count"),
    "smoother.jacobi_sweep_s": ("smoother.jacobi_sweep", "self"),
    "smoother.sweeps": ("smoother.jacobi_sweep", "count"),
    "transfer.restrict_s": ("transfer.restrict", "duration"),
    "transfer.prolong_s": ("transfer.prolong", "duration"),
    "cycles.self_s": ("cycles.run_cycle", "self"),
}
_FIELD = {"calls": 0, "duration": 1, "self": 2, "count": 3}


def e2e_metrics(rounds: list) -> dict:
    """Sum over the calls of an operation of each call's median over the rounds.

    A per-call median is steadier than the median of per-round sums when
    the machine's speed changes within a round.  A cycle time is the
    median over every cycle of the run, iterations the median count.
    """
    out = {}
    for k, unit in E2E_UNITS.items():
        prefix, _, what = k.rpartition(".")
        if what == "iters":
            value = statistics.median(r[k] for r in rounds)
        elif what == "cycle_s":
            value = statistics.median(t for r in rounds for t in r[f"{prefix}.time_to_tol_s"])
        elif len({len(r[k]) for r in rounds}) == 1:
            value = float(np.median([r[k] for r in rounds], axis=0).sum())
        else:  # iteration counts differ between rounds: flagged by main
            value = statistics.median(sum(r[k]) for r in rounds)
        out[k] = {"value": value, "unit": unit}
    return out


def layer_metrics(tracer: Tracer, rounds: list) -> dict:
    totals = tracer.totals()

    def get(r, phase, name, what):
        return totals.get((r, phase, name), [0, 0.0, 0.0, 0])[_FIELD[what]]

    def per(phase, name, what, per_name, per_what="calls"):
        vals = []
        for r in range(len(rounds)):
            base = get(r, phase, per_name, per_what)
            vals.append(get(r, phase, name, what) / base if base else 0.0)
        return statistics.median(vals)

    out = {"setup.heat.direct_solve_s":
           (per("setup", "heat.direct_solve", "duration", "heat.direct_solve"), "s")}
    for s in STRATEGIES:
        phase = f"{s}.solve"
        for suffix, (name, what) in SOLVE_LAYERS.items():
            unit = "count" if what == "count" else "s"
            out[f"{s}.{suffix}"] = (per(phase, name, what, "cycles.run_cycle"), unit)
        for k in ("block_solves", "transfer_blocks"):
            out[f"{s}.cycles.{k}"] = (statistics.median(r[f"{s}.{k}"] for r in rounds),
                                      "count")
    out["lfa.rho_bar_sweeps"] = (per("lfa.omega", "lfa.rho_bar_details", "calls",
                                     "lfa.omega_opt_numeric"), "count")
    out["lfa.rho_bar_s"] = (per("lfa.curve", "lfa.rho_bar_details", "duration",
                                "lfa.rho_bar_details"), "s")
    out["lfa.groups_per_sweep"] = (per("lfa.curve", "lfa.spectral_radius_batch", "count",
                                       "lfa.rho_bar_details"), "count")
    out["lfa.matrix_build_s"] = (per("lfa.modes", "lfa.low_mode_action", "duration",
                                     "lfa.low_mode_action"), "s")
    out["lfa.radii_s"] = (per("lfa.radii", "lfa.spectral_radius_over_groups", "duration",
                              "lfa.spectral_radius_over_groups"), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    tally = Tally()
    ctx = prepare(w, args.seed, tally)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    rounds = []
    start = time.perf_counter()
    try:
        # whole rounds only; stop when another round would overrun --seconds
        while not rounds or ((time.perf_counter() - start) * (len(rounds) + 1)
                             / len(rounds) <= args.seconds):
            tracer.round = len(rounds)
            rounds.append(run_round(ctx, tally, tracer))
    finally:
        if args.trace:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    for name in STRATEGIES:
        counts = {r[f"{name}.iters"] for r in rounds}
        tally.check(f"{name}.iters", len(counts) == 1,
                    f"the same inputs took {sorted(counts)} cycles in different rounds")

    e2e = e2e_metrics(rounds)
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds in "
          f"{elapsed:.1f} s, grid {w.n_x}x{w.n_t} (sigma {ctx.grid.sigma:.4g}), "
          f"depth {w.depth}, tol {w.tol:g}, cap {w.cap}")
    if ctx.predicted:
        print("LFA rho_bar at this sigma: "
              + ", ".join(f"{k} {v:.4f}" for k, v in ctx.predicted.items()))
    print(("traced " if args.trace else "") + "end-to-end: "
          + ", ".join(f"{k} {m['value']:.6g}" for k, m in e2e.items()))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = layer_metrics(tracer, rounds)
        for layer in tracer.never_called():
            print(f"trace: never called: {layer}")
        tracer.write(OUT / f"{stem}-spans.json")
    else:
        metrics = e2e
    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps({"rounds": rounds, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
