"""The benchmark workloads: inputs, one-time setup, jobs and checks.

Every sampled input comes from the workload seed.  Inputs are generated
with ``guidedproc.fixtures`` and handed to the program only as model files
or plain data, so the program's modules can be imported afresh for each
timed set-up.  ``setup`` is the program's one-time work (loading models,
policy solves); ``run`` is one job; ``check`` returns the job's output
problems (see checks.py).

Why these two: each loads one layer group and leaves the others nearly
idle, so an optimisation of one group has a workload that shows it and
one that should not move.
  design - CLI, DP, robustification and I/O; simulation, including one
           adaptive-mode stream per cycle, is a small share.
  replay - the vectorised belief-rule simulator, no DP in the timed loop.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks

CHUNK = 1 << 16


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def _sim_dict(report) -> dict:
    """The fields of a SimReport the checks read."""
    return {
        "n_frames": report.n_frames,
        "empirical_risk": report.empirical_risk,
        "risk_se": report.risk_se,
    }


def _risk_dict(report) -> dict:
    return {
        "total": report.total,
        "inter_miss": report.inter_miss,
        "final_miss": report.final_miss,
        "final_fa": report.final_fa,
        "weighted_energy": report.weighted_energy,
    }


def _trigger_document(fixtures) -> dict:
    """fixtures.trigger_system() as a model file (its stages carry no uncertainty)."""
    spec = fixtures.trigger_system()
    return {
        "format": "guidedproc-model",
        "miss_cost": spec.miss_cost,
        "fa_cost": spec.fa_cost,
        "prior": spec.prior,
        "energy_weight": spec.energy_weight,
        "stages": [
            {"p0": s.model.p0.tolist(), "p1": s.model.p1.tolist(),
             "on_cost": s.on_cost, "off_cost": s.off_cost}
            for s in spec.stages
        ],
    }


def check_policy(policy, report, n_stages) -> list[str]:
    """Every cascade solve: finite thresholds, and evaluate() reassembles v0."""
    thresholds = [float(t) for t in policy.thresholds]
    return checks.check_thresholds(thresholds, n_stages) + checks.check_decomposition(
        _risk_dict(report), policy.v0
    )


class Design:
    """The designer's session: one `guidedproc` CLI command per job, in process.

    The cycle is weighted so that neither percentile sits on a boundary
    between command kinds: seven faster commands, five plain `optimize`
    runs and seven slower ones put the median in the middle of the
    `optimize` runs, and the three calibrations (the slowest sixth) hold
    p90.  Grid sizes 1001 and 10001 put the (Q, M) arrays in cache and out
    of it.  One adaptive-mode stream per cycle runs the simulator's scalar
    per-frame loop on the two-stage trigger system; the reference monitor
    is not used there because at this stream length its adaptive
    thresholds have not converged.
    """

    name = "design"
    modules = ("cli",)
    cycle = (
        "robustify", "optimize", "simulate", "check-optimality", "optimize", "optimize-grid",
        "graph-optimize", "calibrate", "optimize", "graph-simulate", "robustify",
        "adaptive-simulate", "optimize", "compare", "calibrate", "check-optimality",
        "graph-optimize", "optimize", "calibrate",
    )
    warmup = block = pass_jobs = len(cycle)
    max_cycles = 400
    n_stages, n_nodes, grid, big_grid = 3, 4, 1001, 10001
    sim_frames, compare_frames, compare_points = CHUNK, 20_000, 3
    adaptive_mu, adaptive_burn_in = 1e-3, CHUNK

    def generate(self, seed: int, workdir: str, fixtures) -> dict:
        rng = _rng(seed, 1)
        model = fixtures.as_document(model_uncertainty=float(rng.uniform(0.08, 0.12)))
        graph = fixtures.graph_document()
        _write_json(model, os.path.join(workdir, "model.json"))
        _write_json(graph, os.path.join(workdir, "graph.json"))
        _write_json(_trigger_document(fixtures), os.path.join(workdir, "trigger.json"))
        os.makedirs(os.path.join(workdir, "out"))
        jobs = []
        last_optimize = None
        for _ in range(self.max_cycles):
            for kind in self.cycle:
                job = {"kind": kind}
                if kind == "calibrate":
                    job["budget"] = float(rng.uniform(8.0, 110.0))
                elif kind == "compare":
                    job["lo"] = float(rng.uniform(0.03, 0.1))
                    job["hi"] = float(rng.uniform(0.15, 0.3))
                elif kind == "simulate":
                    job["policy_job"] = last_optimize
                    job["prior"] = jobs[last_optimize]["prior"]
                elif kind not in ("robustify", "adaptive-simulate"):
                    job["prior"] = float(rng.uniform(0.02, 0.3))
                if kind in ("compare", "simulate", "graph-simulate", "adaptive-simulate"):
                    job["seed"] = int(rng.integers(1, 2**31))
                if kind == "optimize":
                    last_optimize = len(jobs)
                jobs.append(job)
        files = ["model.json", "graph.json", "trigger.json"]
        return {"workdir": workdir, "jobs": jobs, "files": files}

    def setup(self, mods, inputs) -> dict:
        return {"main": mods["cli"].main, "workdir": inputs["workdir"]}

    def _out(self, state, index) -> str:
        ext = "csv" if state["jobs"][index]["kind"] == "compare" else "json"
        return os.path.join(state["workdir"], "out", f"{index}.{ext}")

    def argv(self, state, index) -> list[str]:
        job, wd = state["jobs"][index], state["workdir"]
        model, graph = os.path.join(wd, "model.json"), os.path.join(wd, "graph.json")
        out = ["-o", self._out(state, index)]
        kind = job["kind"]
        if kind == "robustify":
            return ["robustify", model, *out]
        if kind == "optimize":
            return ["optimize", model, "--prior", repr(job["prior"]), *out]
        if kind == "optimize-grid":
            return ["optimize", model, "--prior", repr(job["prior"]), "--grid", str(self.big_grid), *out]
        if kind == "calibrate":
            return ["optimize", model, "--energy-budget", repr(job["budget"]), *out]
        if kind == "check-optimality":
            return ["check-optimality", model, "--prior", repr(job["prior"]), *out]
        if kind == "simulate":
            return [
                "simulate", model, "--policy", self._out(state, job["policy_job"]),
                "--prior", repr(job["prior"]), "--n-frames", str(self.sim_frames),
                "--seed", str(job["seed"]), *out,
            ]
        if kind == "compare":
            sweep = f"{job['lo']!r}:{job['hi']!r}:{self.compare_points}"
            return [
                "compare", model, "--sweep", sweep, "--n-frames", str(self.compare_frames),
                "--seed", str(job["seed"]), *out,
            ]
        if kind == "graph-optimize":
            return ["optimize", graph, "--prior", repr(job["prior"]), *out]
        if kind == "graph-simulate":
            return [
                "simulate", graph, "--prior", repr(job["prior"]), "--n-frames",
                str(self.sim_frames), "--seed", str(job["seed"]), *out,
            ]
        if kind == "adaptive-simulate":
            return [
                "simulate", os.path.join(wd, "trigger.json"), "--mode", "adaptive",
                "--mu", repr(self.adaptive_mu), "--burn-in", str(self.adaptive_burn_in),
                "--n-frames", str(self.sim_frames), "--seed", str(job["seed"]), *out,
            ]
        raise ValueError(f"unknown design job {kind!r}")

    def run(self, state, index):
        argv = self.argv(state, index)
        try:
            return state["main"](argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code

    def frames(self, job) -> int:
        if job["kind"] in ("simulate", "graph-simulate"):
            return self.sim_frames
        if job["kind"] == "adaptive-simulate":
            return self.adaptive_burn_in + self.sim_frames
        if job["kind"] == "compare":
            return 2 * self.compare_points * self.compare_frames  # cascade and duty streams
        return 0

    def check(self, state, index, result) -> list[str]:
        if result != 0:
            return [f"exit code {result!r}"]
        job = state["jobs"][index]
        kind, path = job["kind"], self._out(state, index)
        if kind == "compare":
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                return [f"unreadable CSV: {exc}"]
            points = np.linspace(job["lo"], job["hi"], self.compare_points).tolist()
            return checks.check_compare_csv(text, points)
        bundle, problems = checks.read_bundle(path)
        if bundle is None:
            return problems
        if kind == "robustify":
            return checks.check_robustify(bundle, self.n_stages)
        if kind in ("optimize", "optimize-grid", "calibrate"):
            grid = self.big_grid if kind == "optimize-grid" else self.grid
            problems = checks.check_optimize(bundle, self.n_stages, grid)
            if kind == "calibrate":
                problems += checks.check_budget(bundle.get("risk", {}).get("energy"), job["budget"])
            return problems
        if kind == "check-optimality":
            return checks.check_optimality_bundle(bundle, self.n_stages)
        if kind == "graph-optimize":
            return checks.check_graph_optimize(bundle, self.n_nodes)
        if kind == "simulate":
            source, problems = checks.read_bundle(self._out(state, job["policy_job"]))
            if source is None:
                return problems
            expected = source.get("risk", {}).get("total")
            return checks.check_stream(bundle.get("simulation", {}), expected, self.sim_frames)
        if kind == "graph-simulate":
            return checks.check_stream(bundle.get("simulation", {}), bundle.get("v0"), self.sim_frames)
        if kind == "adaptive-simulate":
            stream, risk = bundle.get("simulation", {}), bundle.get("analytic_risk") or {}
            policy = bundle.get("policy") or {}
            problems = checks.check_thresholds(policy.get("thresholds"), 2)
            problems += checks.check_decomposition(risk, policy.get("v0"))
            problems += checks.check_stream(stream, risk.get("total"), self.sim_frames)
            return problems + checks.check_rate_errors(stream.get("rate_errors"))
        return [f"unknown design job {kind!r}"]


class Replay:
    """Belief-rule streams through `sim.simulate`, policies solved in set-up.

    Each job replays two chunks (so a chunk boundary is crossed) through
    one rule.  Six of every eight jobs are reference-monitor cascades, the
    slowest kind, so both percentiles sit inside one kind.  Priors are
    stratified over [0.02, 0.3]: the prior sets the share of frames that
    reach the deep stages.
    """

    name = "replay"
    modules = ("io", "cascade", "graph", "dutycycle", "sim", "models")
    cycle = ("cascade", "cascade", "graph", "cascade", "cascade", "cascade", "duty", "cascade")
    warmup = block = len(cycle)
    pass_jobs = 2 * len(cycle)
    max_jobs = 8192
    n_priors = 8
    n_frames = 2 * CHUNK

    def generate(self, seed: int, workdir: str, fixtures) -> dict:
        rng = _rng(seed, 2)
        model = fixtures.as_document(model_uncertainty=float(rng.uniform(0.08, 0.12)))
        _write_json(model, os.path.join(workdir, "model.json"))
        _write_json(fixtures.graph_document(), os.path.join(workdir, "graph.json"))
        edges = np.linspace(0.02, 0.3, self.n_priors + 1)
        priors = [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
        jobs = [
            {
                "kind": self.cycle[i % len(self.cycle)],
                "prior": int(rng.integers(self.n_priors)),
                "seed": int(rng.integers(1, 2**31)),
            }
            for i in range(self.max_jobs)
        ]
        return {"workdir": workdir, "jobs": jobs, "priors": priors, "files": ["model.json", "graph.json"]}

    def setup(self, mods, inputs) -> dict:
        io, cascade, graph, dc = mods["io"], mods["cascade"], mods["graph"], mods["dutycycle"]
        doc = io.load_model_file(os.path.join(inputs["workdir"], "model.json"))
        gdoc = io.load_model_file(os.path.join(inputs["workdir"], "graph.json"))
        ggrid = mods["models"].BeliefGrid(gdoc.grid_size)
        dc_on, dc_off = doc.duty_cycle
        rules = []
        for p in inputs["priors"]:
            spec, _ = io.build_from_document(doc, prior=p)
            policy = cascade.solve(spec)
            report = cascade.evaluate(spec, policy)
            gpolicy = graph.solve_graph(
                gdoc.graph, gdoc.miss_cost, gdoc.fa_cost, gdoc.energy_weight, p, ggrid
            )
            rho, _ = dc.energy_equivalent_rho(report.energy, dc_on, dc_off)
            dc_spec = dc.DutyCycleSpec(
                detector=spec.stages[-1].model, rho=rho, on_cost=dc_on, off_cost=dc_off,
                miss_cost=spec.miss_cost, fa_cost=spec.fa_cost, prior=p,
            )
            rules.append({
                "spec": spec, "policy": policy, "report": report, "gpolicy": gpolicy,
                "dc_spec": dc_spec, "dc_risk": dc.dc_risk(dc_spec, policy.energy_weight).total,
                "prior": p,
            })
        return {"sim": mods["sim"], "graph": gdoc.graph, "rules": rules}

    def run(self, state, index):
        job = state["jobs"][index]
        sim, rule = state["sim"], state["rules"][job["prior"]]
        if job["kind"] == "cascade":
            config = sim.StreamConfig(system=rule["spec"], n_frames=self.n_frames, seed=job["seed"])
            return sim.simulate(config, rule["policy"])
        if job["kind"] == "graph":
            config = sim.StreamConfig(
                system=state["graph"], n_frames=self.n_frames, seed=job["seed"], prior=rule["prior"]
            )
            return sim.simulate(config, rule["gpolicy"])
        config = sim.StreamConfig(
            system=rule["dc_spec"], n_frames=self.n_frames, seed=job["seed"],
            energy_weight=rule["policy"].energy_weight,
        )
        return sim.simulate(config)

    def frames(self, job) -> int:
        return self.n_frames

    def check(self, state, index, result) -> list[str]:
        job = state["jobs"][index]
        rule, stream = state["rules"][job["prior"]], _sim_dict(result)
        if job["kind"] == "cascade":
            problems = check_policy(rule["policy"], rule["report"], rule["spec"].n_stages)
            return problems + checks.check_stream(stream, rule["report"].total, self.n_frames)
        if job["kind"] == "graph":
            return checks.check_stream(stream, rule["gpolicy"].v0, self.n_frames)
        return checks.check_stream(stream, rule["dc_risk"], self.n_frames)


WORKLOADS = {w.name: w for w in (Design(), Replay())}
