"""Output checks for benchmark jobs.

Each check takes plain data (numbers, dicts parsed from result bundles,
CSV text) and returns a list of problems; an empty list means the output
is correct.  A job fails when it raised, returned a nonzero exit code, or
any of its checks reported a problem.
"""

from __future__ import annotations

import csv
import io
import json
import math

STREAM_Z = 5.0  # empirical risk must sit within this many standard errors
DECOMPOSITION_TOL = 1e-9
RATE_ERROR_LIMIT = 0.02

# The documented CSV layout, kept apart from cli.COMPARE_COLUMNS so that a
# change to the program's columns is caught rather than followed.
COMPARE_COLUMNS = [
    "pi0", "gp_risk", "dc_ideal_risk", "dc_real_risk", "gp_energy", "dc_energy",
    "gp_fa", "dc_fa", "gp_miss", "dc_miss", "dominance_eq13", "dominance_eq14",
]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def read_bundle(path) -> tuple[dict | None, list[str]]:
    """A result bundle parsed from JSON, or the reason it could not be."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"unreadable bundle: {exc}"]
    if not isinstance(bundle, dict) or bundle.get("format") != "guidedproc-result":
        return None, ["not a guidedproc-result bundle"]
    return bundle, []


def check_thresholds(thresholds, n_stages: int) -> list[str]:
    if not isinstance(thresholds, list) or len(thresholds) != n_stages:
        return [f"expected {n_stages} thresholds, got {thresholds!r}"]
    if not all(_finite(t) for t in thresholds):
        return [f"non-finite threshold in {thresholds!r}"]
    return []


def check_decomposition(risk: dict, v0: float) -> list[str]:
    """The risk components of evaluate() reassemble the solver's v0."""
    keys = ("inter_miss", "final_miss", "final_fa", "weighted_energy", "total")
    if not all(_finite(risk.get(k)) for k in keys) or not _finite(v0):
        return [f"missing or non-finite risk components {risk!r}, v0={v0!r}"]
    parts = risk["inter_miss"] + risk["final_miss"] + risk["final_fa"] + risk["weighted_energy"]
    problems = []
    if abs(parts - v0) > DECOMPOSITION_TOL:
        problems.append(f"components sum to {parts!r}, v0 is {v0!r}")
    if abs(risk["total"] - v0) > DECOMPOSITION_TOL:
        problems.append(f"total {risk['total']!r} differs from v0 {v0!r}")
    return problems


def check_budget(energy, budget: float) -> list[str]:
    if not _finite(energy) or energy > budget:
        return [f"calibrated energy {energy!r} exceeds the budget {budget!r}"]
    return []


def check_stream(sim: dict, expected_risk: float, n_frames: int) -> list[str]:
    """Empirical risk of a stream within STREAM_Z standard errors."""
    if sim.get("n_frames") != n_frames:
        return [f"streamed {sim.get('n_frames')!r} frames, asked for {n_frames}"]
    risk, se = sim.get("empirical_risk"), sim.get("risk_se")
    if not (_finite(risk) and _finite(se) and _finite(expected_risk)) or se <= 0.0:
        return [f"bad stream statistics risk={risk!r} se={se!r} expected={expected_risk!r}"]
    z = (risk - expected_risk) / se
    if abs(z) > STREAM_Z:
        return [f"empirical risk {risk!r} is {z:+.2f} SE from {expected_risk!r}"]
    return []


def check_rate_errors(rate_errors) -> list[str]:
    if not rate_errors or not all(_finite(e) for e in rate_errors):
        return [f"missing adaptive rate errors {rate_errors!r}"]
    if max(rate_errors) > RATE_ERROR_LIMIT:
        return [f"adaptive rate error {max(rate_errors)!r} above {RATE_ERROR_LIMIT}"]
    return []


def check_robustify(bundle: dict, n_stages: int) -> list[str]:
    stages = bundle.get("stages")
    if not isinstance(stages, list) or len(stages) != n_stages:
        return [f"expected {n_stages} robustified stages"]
    problems = []
    for k, st in enumerate(stages):
        for key in ("q0", "q1"):
            q = st.get(key)
            if not (isinstance(q, list) and q and all(_finite(x) and x >= 0.0 for x in q)):
                problems.append(f"stage {k + 1}: {key} is not a PMF")
            elif abs(sum(q) - 1.0) > 1e-9:
                problems.append(f"stage {k + 1}: {key} sums to {sum(q)!r}")
        lo, hi = st.get("posterior_lo"), st.get("posterior_hi")
        if not (_finite(lo) and _finite(hi) and 0.0 <= lo <= hi <= 1.0):
            problems.append(f"stage {k + 1}: bad posterior interval [{lo!r}, {hi!r}]")
    return problems


def check_optimize(bundle: dict, n_stages: int, grid_size: int) -> list[str]:
    policy, risk = bundle.get("policy"), bundle.get("risk")
    if not isinstance(policy, dict) or not isinstance(risk, dict):
        return ["optimize bundle lacks policy or risk"]
    problems = check_thresholds(policy.get("thresholds"), n_stages)
    problems += check_decomposition(risk, policy.get("v0"))
    if policy.get("grid_size") != grid_size:
        problems.append(f"grid size {policy.get('grid_size')!r}, asked for {grid_size}")
    return problems


def check_optimality_bundle(bundle: dict, n_stages: int) -> list[str]:
    per_stage = bundle.get("per_stage")
    betas = bundle.get("positive_thresholds")
    if not (isinstance(per_stage, list) and len(per_stage) == n_stages - 1):
        return ["check-optimality bundle lacks per-stage verdicts"]
    if not (isinstance(betas, list) and len(betas) == n_stages - 1):
        return ["check-optimality bundle lacks positive thresholds"]
    if not all(isinstance(v, bool) for v in per_stage) or bundle.get("all_hold") != all(per_stage):
        return [f"inconsistent verdicts {per_stage!r} / {bundle.get('all_hold')!r}"]
    return []


def check_graph_optimize(bundle: dict, n_nodes: int) -> list[str]:
    gp = bundle.get("graph_policy")
    if not isinstance(gp, dict):
        return ["graph bundle lacks graph_policy"]
    problems = []
    if not _finite(gp.get("v0")):
        problems.append(f"non-finite graph v0 {gp.get('v0')!r}")
    if not (isinstance(gp.get("order"), list) and len(gp["order"]) == n_nodes):
        problems.append(f"graph order {gp.get('order')!r} does not cover {n_nodes} nodes")
    return problems


def check_compare_csv(text: str, points: list[float]) -> list[str]:
    """The compare CSV has the documented columns and one row per prior."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != COMPARE_COLUMNS:
        return [f"unexpected CSV header {rows[0] if rows else None!r}"]
    body = rows[1:]
    if len(body) != len(points):
        return [f"{len(body)} CSV rows for {len(points)} priors"]
    problems = []
    for row, pi0 in zip(body, points):
        if len(row) != len(COMPARE_COLUMNS):
            problems.append(f"row {row!r} has {len(row)} fields")
            continue
        try:
            values = [float(v) for v in row[:10]]
        except ValueError:
            problems.append(f"non-numeric CSV row {row!r}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite CSV row {row!r}")
        if abs(values[0] - pi0) > 1e-12:
            problems.append(f"row prior {values[0]!r}, expected {pi0!r}")
        if row[10] not in ("true", "false") or row[11] not in ("true", "false"):
            problems.append(f"dominance flags {row[10:]!r} are not booleans")
    return problems
