"""Command-line front end.

Subcommands: robustify (least-favorable stage models and ratio bands),
optimize (solve a model file into a threshold policy), check-optimality
(would early positive declarations help?), simulate (stream a solved
policy), and compare (sweep the prior and race the cascade against ideal
and real duty cycling, CSV out).

Exit codes: 0 success, 2 malformed input, 3 infeasible configuration,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _stdio
import sys
from dataclasses import replace

import numpy as np

from . import __version__, io
from .cascade import (
    calibrate_lambda,
    check_cascade_optimality,
    evaluate,
    robustify_stages,
    solve,
)
from .dutycycle import dc_risk, dominance_check, energy_equivalent_rho, ideal_duty_cycle
from .errors import (
    DegenerateContaminationError,
    GuidedProcError,
    InfeasibleBandError,
    InfeasibleBudgetError,
    ModelFormatError,
)
from .graph import solve_graph
from .models import BeliefGrid
from .sim import SEED_LIMIT, StreamConfig, check_seed, simulate

COMPARE_COLUMNS = [
    "pi0",
    "gp_risk",
    "dc_ideal_risk",
    "dc_real_risk",
    "gp_energy",
    "dc_energy",
    "gp_fa",
    "dc_fa",
    "gp_miss",
    "dc_miss",
    "dominance_eq13",
    "dominance_eq14",
]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call in the process."""
    p = argparse.ArgumentParser(prog="guidedproc", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"guidedproc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid=True):
        sp.add_argument("model", help="model file (JSON)")
        sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        if grid:
            sp.add_argument("--grid", type=int, default=None, help="belief grid size override")

    sp = sub.add_parser("robustify", help="least-favorable stage models under contamination")
    common(sp, grid=False)

    sp = sub.add_parser("optimize", help="solve the censoring policy")
    common(sp)
    sp.add_argument("--prior", type=float, default=None)
    sp.add_argument("--energy-weight", type=float, default=None)
    sp.add_argument("--energy-budget", type=float, default=None)

    sp = sub.add_parser("check-optimality", help="verify censoring-only decisions suffice")
    common(sp)
    sp.add_argument("--prior", type=float, default=None)

    sp = sub.add_parser("simulate", help="stream frames against a solved policy")
    common(sp)
    sp.add_argument("--policy", default=None, help="policy JSON from optimize (default: solve now)")
    sp.add_argument("--prior", type=float, default=None, help="stream prior override")
    sp.add_argument("--mode", choices=["belief", "adaptive"], default="belief")
    sp.add_argument("--mu", type=float, default=1e-3)
    sp.add_argument("--burn-in", type=int, default=0)
    sp.add_argument("--n-frames", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=1)

    sp = sub.add_parser("compare", help="prior sweep: cascade vs duty cycling (CSV)")
    common(sp)
    sp.add_argument("--sweep", default=None, metavar="LO:HI:N", help="prior sweep override")
    sp.add_argument("--n-frames", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=1)
    return p


def _emit(doc, output, **payload) -> int:
    """Write the result bundle of `doc` with `payload` to the output path,
    or to stdout without one; returns the success exit code."""
    text = io.write_json(io.result_bundle(doc, **payload), output)
    if output is None:
        sys.stdout.write(text + "\n")
    return 0


def _cascade_document(path, command):
    """The model file of a command that only cascades serve."""
    doc = io.load_model_file(path)
    if doc.kind != "cascade":
        raise ModelFormatError(f"{command} applies to cascade model files")
    return doc


def cmd_robustify(args) -> int:
    doc = _cascade_document(args.model, args.command)
    stages = [
        {
            "q0": st.model.p0.tolist(),
            "q1": st.model.p1.tolist(),
            "band": io.band_payload(band),
            "posterior_lo": st.bounds.lo,
            "posterior_hi": st.bounds.hi,
        }
        for st, band in robustify_stages(doc.stages, doc.default_prior())
    ]
    return _emit(doc, args.output, prior=doc.default_prior(), stages=stages)


def _solve_document(doc, prior, grid, energy_weight=None, energy_budget=None):
    spec, bands = io.build_from_document(
        doc, prior=prior, energy_weight=energy_weight, energy_budget=energy_budget
    )
    if spec.energy_budget is not None:
        _, policy = calibrate_lambda(spec, grid)
    else:
        policy = solve(spec, grid)
    return spec, bands, policy


def _solve_graph_document(doc, prior, grid, energy_weight=None):
    weight = doc.energy_weight if energy_weight is None else energy_weight
    if weight is None:
        raise ModelFormatError("graph model files need energy_weight")
    prior = doc.default_prior() if prior is None else prior
    return solve_graph(doc.graph, doc.miss_cost, doc.fa_cost, weight, prior, grid)


def _optimality_payload(spec, policy) -> dict:
    opt = check_cascade_optimality(spec, policy)
    return {
        "positive_thresholds": [io.finite_or_none(t) for t in opt.positive_thresholds],
        "per_stage": list(opt.per_stage),
        "all_hold": opt.all_hold,
    }


def cmd_optimize(args) -> int:
    doc = io.load_model_file(args.model)
    grid = BeliefGrid(doc.grid_size if args.grid is None else args.grid)
    if doc.kind == "graph":
        if args.energy_budget is not None:
            raise ModelFormatError("--energy-budget applies to cascade model files")
        gpol = _solve_graph_document(doc, args.prior, grid, args.energy_weight)
        return _emit(doc, args.output, graph_policy=io.graph_policy_payload(gpol))
    spec, bands, policy = _solve_document(
        doc, args.prior, grid, energy_weight=args.energy_weight, energy_budget=args.energy_budget
    )
    return _emit(
        doc,
        args.output,
        prior=spec.prior,
        policy=io.policy_payload(policy),
        risk=io.risk_payload(evaluate(spec, policy)),
        bands=[io.band_payload(b) for b in bands],
        optimality=_optimality_payload(spec, policy),
    )


def cmd_check_optimality(args) -> int:
    doc = _cascade_document(args.model, args.command)
    grid = BeliefGrid(doc.grid_size if args.grid is None else args.grid)
    spec, _, policy = _solve_document(doc, args.prior, grid)
    return _emit(doc, args.output, prior=spec.prior, **_optimality_payload(spec, policy))


def cmd_simulate(args) -> int:
    doc = io.load_model_file(args.model)
    if args.policy is not None and args.grid is not None:
        raise ModelFormatError("--grid is not allowed with --policy, whose file fixes the grid")
    grid = BeliefGrid(doc.grid_size if args.grid is None else args.grid)
    if doc.kind == "graph":
        if args.policy is not None:
            raise ModelFormatError("--policy applies to cascade model files")
        system, policy = doc.graph, _solve_graph_document(doc, args.prior, grid)
    elif args.policy is not None:
        system, _ = io.build_from_document(doc, prior=args.prior)
        policy = io.load_policy_file(args.policy, system)
    else:
        system, _, policy = _solve_document(doc, args.prior, grid)
    config = StreamConfig(system, args.n_frames, args.seed, args.mode, args.mu, args.burn_in)
    report = simulate(config, policy)
    if doc.kind == "graph":
        return _emit(doc, args.output, simulation=io.sim_payload(report), v0=policy.v0)
    return _emit(
        doc,
        args.output,
        simulation=io.sim_payload(report),
        policy=io.policy_payload(policy),
        analytic_risk=io.risk_payload(evaluate(system, policy)) if args.policy is None else None,
    )


def _duty_block(doc) -> tuple[float, float]:
    if doc.duty_cycle is not None:
        return doc.duty_cycle
    # fall back to powering every post-wake stage as one block
    on = sum(st.on_cost for st, _ in doc.stages[1:])
    off = sum(st.off_cost for st, _ in doc.stages[1:])
    if not off < on:
        raise ModelFormatError("cannot derive a duty-cycle block from the stage costs")
    return float(on), float(off)


def _compare_row(doc, pi0, grid, duty, n_frames, seed, row) -> dict:
    spec, _, policy = _solve_document(doc, pi0, grid)
    lam = policy.energy_weight
    report = evaluate(spec, policy)
    verdict = dominance_check(spec, policy, report)
    last = spec.stages[-1]

    rho_ideal, _ = energy_equivalent_rho(report.energy, last.on_cost, last.off_cost)
    ideal_total = dc_risk(ideal_duty_cycle(spec, rho_ideal), lam).total

    dc_on, dc_off = duty
    rho_real, _ = energy_equivalent_rho(report.energy, dc_on, dc_off)
    dc_spec = replace(ideal_duty_cycle(spec, rho_real), on_cost=dc_on, off_cost=dc_off)
    # row r streams from seeds seed + 2r and seed + 2r + 1, wrapped into the
    # seed range [0, SEED_LIMIT) of StreamConfig
    gp_seed, dc_seed = ((seed + 2 * row + i) % SEED_LIMIT for i in (0, 1))
    gp_sim = simulate(StreamConfig(system=spec, n_frames=n_frames, seed=gp_seed), policy)
    dc_sim = simulate(
        StreamConfig(system=dc_spec, n_frames=n_frames, seed=dc_seed, energy_weight=lam), None
    )
    return {
        "pi0": pi0,
        "gp_risk": report.total,
        "dc_ideal_risk": ideal_total,
        "dc_real_risk": dc_sim.empirical_risk,
        "gp_energy": report.energy,
        "dc_energy": dc_sim.energy,
        "gp_fa": gp_sim.fa_rate,
        "dc_fa": dc_sim.fa_rate,
        "gp_miss": gp_sim.miss_rate,
        "dc_miss": dc_sim.miss_rate,
        "dominance_eq13": verdict.beats_always_off,
        "dominance_eq14": verdict.censor_miss_within_saving,
    }


def _parse_sweep(text) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ModelFormatError("--sweep wants LO:HI:N")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ModelFormatError(f"--sweep wants numbers LO:HI:N, got {text!r}") from None
    return io.check_sweep(lo, hi, n, "--sweep")


def cmd_compare(args) -> int:
    doc = _cascade_document(args.model, args.command)
    if args.sweep is not None:
        points = np.linspace(*_parse_sweep(args.sweep))
    else:
        points = doc.sweep_points()
    grid = BeliefGrid(doc.grid_size if args.grid is None else args.grid)
    duty = _duty_block(doc)
    check_seed(args.seed)
    rows = [
        _compare_row(doc, float(pi0), grid, duty, args.n_frames, args.seed, row)
        for row, pi0 in enumerate(points)
    ]

    buf = _stdio.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COMPARE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(
            {k: (str(v).lower() if isinstance(v, bool) else repr(v) if isinstance(v, float) else v) for k, v in r.items()}
        )
    text = buf.getvalue()
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


_COMMANDS = {
    "robustify": cmd_robustify,
    "optimize": cmd_optimize,
    "check-optimality": cmd_check_optimality,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InfeasibleBandError, InfeasibleBudgetError, DegenerateContaminationError, MemoryError) as exc:
        print(f"guidedproc: infeasible: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, OSError) as exc:
        print(f"guidedproc: {exc}", file=sys.stderr)
        return 2
    except (GuidedProcError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"guidedproc: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
