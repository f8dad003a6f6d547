"""Per-layer metrics of a traced pass, and the end-to-end metric each should move.

A traced pass is the workload's one-time set-up followed by a fixed list
of its first jobs, so counts repeat exactly between passes and commits
that run the same code path; times are summed over the pass.  "ms" is
inclusive time; "self_ms" excludes the time of child spans.
"""

from __future__ import annotations

import hashlib

from spans import END, EXTRA, NAME, PARENT, START, self_times

# name, unit, better, end-to-end metric it should move, workload where it shows
PER_LAYER = (
    ("cli.main.calls", "count", "lower", "commands_per_s, job_ms_p50", "design"),
    ("cli.main.self_ms", "ms", "lower", "commands_per_s, job_ms_p50", "design"),
    ("io.load_model_file.ms", "ms", "lower", "job_ms_p50", "design"),
    ("io.write_json.ms", "ms", "lower", "job_ms_p50", "design"),
    ("io.policy_from_payload.ms", "ms", "lower", "job_ms_p50", "design"),
    ("io.bytes_written", "bytes", "lower", "job_ms_p50", "design"),
    ("robust.solve_band.calls", "count", "lower", "job_ms_p50, commands_per_s", "design"),
    ("robust.solve_band.ms", "ms", "lower", "job_ms_p50, commands_per_s", "design"),
    ("robust.model_posterior_bounds.ms", "ms", "lower", "job_ms_p50, commands_per_s", "design"),
    ("robust.solve_band.distinct_share", "ratio", "higher", "commands_per_s", "design"),
    ("cascade.solve.calls", "count", "lower", "job_ms_p50, job_ms_p90; setup_s", "design; replay"),
    ("cascade.solve.ms", "ms", "lower", "job_ms_p50 (M=1001), job_ms_p90; setup_s", "design; replay"),
    ("cascade.evaluate.calls", "count", "lower", "job_ms_p50, job_ms_p90; setup_s", "design; replay"),
    ("cascade.evaluate.ms", "ms", "lower", "job_ms_p50, job_ms_p90; setup_s", "design; replay"),
    ("cascade.check_cascade_optimality.ms", "ms", "lower", "job_ms_p50", "design"),
    ("cascade.calibrate_lambda.calls", "count", "lower", "job_ms_p90, commands_per_s", "design"),
    ("cascade.calibrate_lambda.self_ms", "ms", "lower", "job_ms_p90, commands_per_s", "design"),
    ("cascade.solves_per_calibration", "count", "lower", "job_ms_p90, commands_per_s", "design"),
    ("models.symbol_posteriors.calls", "count", "lower", "commands_per_s", "design"),
    ("models.symbol_evidence.calls", "count", "lower", "commands_per_s", "design"),
    ("graph.solve_graph.calls", "count", "lower", "job_ms_p50; setup_s", "design; replay"),
    ("graph.solve_graph.ms", "ms", "lower", "job_ms_p50; setup_s", "design; replay"),
    ("dutycycle.ms", "ms", "lower", "job_ms_p90 (inside compare)", "design"),
    ("sim.simulate.calls", "count", "lower", "frames_per_s", "replay"),
    ("sim.cascade.frames_per_s", "1/s", "higher", "frames_per_s, job_ms_p50, job_ms_p90", "replay"),
    ("sim.graph.frames_per_s", "1/s", "higher", "frames_per_s", "replay"),
    ("sim.duty.frames_per_s", "1/s", "higher", "frames_per_s", "replay"),
    ("sim.live_draw_share", "ratio", "lower", "frames_per_s (bound on live-only sampling)", "replay"),
    ("sim.adaptive.frames_per_s", "1/s", "higher", "frames_per_s, commands_per_s", "design"),
    ("adaptive.prepare_adaptive.ms", "ms", "lower", "commands_per_s", "design"),
    ("adaptive.stationary_targets.ms", "ms", "lower", "commands_per_s", "design"),
    ("trace.overhead_share", "ratio", "lower", "none: reads the traced numbers", "all"),
)


def _band_key(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    u = args[1] if len(args) > 1 else kwargs["u"]
    h = hashlib.sha256(model.p0.tobytes())
    h.update(model.p1.tobytes())
    h.update(repr((u.eps0, u.eps1, u.nu0, u.nu1)).encode())
    return h.hexdigest()


def _bytes_written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path_or_none")
    return 0 if path is None else len(result.encode("utf-8")) + 1


def _stream(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    system = type(config.system).__name__
    if system == "SystemSpec":
        kind = "adaptive" if config.mode == "adaptive" else "cascade"
    else:
        kind = {"DetectionGraph": "graph", "DutyCycleSpec": "duty"}.get(system, system)
    frames = config.n_frames + (config.burn_in if kind == "adaptive" else 0)
    out = {"kind": kind, "frames": frames}
    if kind in ("cascade", "adaptive"):
        out["system"], out["policy"] = config.system, policy
    return out


HOOKS = {"robust.solve_band": _band_key, "io.write_json": _bytes_written, "sim.simulate": _stream}


def measure(spans, live_share) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_share).

    ``live_share(system, policy)`` gives the share of per-stage symbol
    draws a live frame consumes for a cascade stream.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    for s, o in zip(spans, own):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + (s[END] - s[START]) * 1e3
        self_ms[name] = self_ms.get(name, 0.0) + o * 1e3

    def ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    bands = [s[EXTRA] for s in spans if s[NAME] == "robust.solve_band"]
    n_cal = calls.get("cascade.calibrate_lambda", 0)
    cal_solves = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "cascade.solve" and ancestor(i, "cascade.calibrate_lambda")
    )
    duty_ms = sum(
        (s[END] - s[START]) * 1e3 for s in spans
        if s[NAME].startswith("dutycycle.")
        and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("dutycycle."))
    )
    stream_frames: dict[str, int] = {}
    stream_s: dict[str, float] = {}
    shares = []
    seen: dict[tuple, float] = {}
    for s in spans:
        if s[NAME] != "sim.simulate" or s[EXTRA] is None:
            continue
        kind = s[EXTRA]["kind"]
        stream_frames[kind] = stream_frames.get(kind, 0) + s[EXTRA]["frames"]
        stream_s[kind] = stream_s.get(kind, 0.0) + (s[END] - s[START])
        if "system" in s[EXTRA]:
            key = (id(s[EXTRA]["system"]), id(s[EXTRA]["policy"]))
            if key not in seen:
                seen[key] = live_share(s[EXTRA]["system"], s[EXTRA]["policy"])
            shares.append(seen[key])

    def rate(kind):
        return stream_frames[kind] / stream_s[kind] if stream_s.get(kind) else 0.0

    return {
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_ms": self_ms.get("cli.main", 0.0),
        "io.load_model_file.ms": ms.get("io.load_model_file", 0.0),
        "io.write_json.ms": ms.get("io.write_json", 0.0),
        "io.policy_from_payload.ms": ms.get("io.policy_from_payload", 0.0),
        "io.bytes_written": sum(s[EXTRA] or 0 for s in spans if s[NAME] == "io.write_json"),
        "robust.solve_band.calls": len(bands),
        "robust.solve_band.ms": ms.get("robust.solve_band", 0.0),
        "robust.model_posterior_bounds.ms": ms.get("robust.model_posterior_bounds", 0.0),
        "robust.solve_band.distinct_share": len(set(bands)) / len(bands) if bands else 0.0,
        "cascade.solve.calls": calls.get("cascade.solve", 0),
        "cascade.solve.ms": ms.get("cascade.solve", 0.0),
        "cascade.evaluate.calls": calls.get("cascade.evaluate", 0),
        "cascade.evaluate.ms": ms.get("cascade.evaluate", 0.0),
        "cascade.check_cascade_optimality.ms": ms.get("cascade.check_cascade_optimality", 0.0),
        "cascade.calibrate_lambda.calls": n_cal,
        "cascade.calibrate_lambda.self_ms": self_ms.get("cascade.calibrate_lambda", 0.0),
        "cascade.solves_per_calibration": cal_solves / n_cal if n_cal else 0.0,
        "models.symbol_posteriors.calls": calls.get("models.symbol_posteriors", 0),
        "models.symbol_evidence.calls": calls.get("models.symbol_evidence", 0),
        "graph.solve_graph.calls": calls.get("graph.solve_graph", 0),
        "graph.solve_graph.ms": ms.get("graph.solve_graph", 0.0),
        "dutycycle.ms": duty_ms,
        "sim.simulate.calls": calls.get("sim.simulate", 0),
        "sim.cascade.frames_per_s": rate("cascade"),
        "sim.graph.frames_per_s": rate("graph"),
        "sim.duty.frames_per_s": rate("duty"),
        "sim.live_draw_share": sum(shares) / len(shares) if shares else 0.0,
        "sim.adaptive.frames_per_s": rate("adaptive"),
        "adaptive.prepare_adaptive.ms": ms.get("adaptive.prepare_adaptive", 0.0),
        "adaptive.stationary_targets.ms": ms.get("adaptive.stationary_targets", 0.0),
    }
