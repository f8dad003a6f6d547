"""guidedproc benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload {design,replay} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Inputs are made from the seed (see workloads.py).

--trace 0 measures the end-to-end metrics: set-up time, then jobs back to
back for S seconds, every output checked afterwards.  --trace 1 alternates
untraced and traced passes (set-up plus a fixed list of the first jobs)
for S seconds and reports the per-layer metrics of layers.py, with the
tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
Details (environment, input digest, failures, span tree) go to
``.perfbench_out/<workload>-seed<N>-trace<T>.json`` in the checkout.
"""

import os

# Pin the load before numpy is imported: one BLAS/OpenMP thread, and no
# process pool inside `guidedproc compare`.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GUIDEDPROC_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_MIN_REPEATS = 5  # at each end of the timed loop
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
MIN_PASS_PAIRS = 2

# name, unit; see BENCHMARK.json for bounds
END_TO_END = (
    ("setup_s", "s"),
    ("commands_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "guidedproc" or n.startswith("guidedproc.")]:
        del sys.modules[name]


def _import(names) -> dict:
    return {n: importlib.import_module(f"guidedproc.{n}") for n in names}


def _digest_inputs(inputs: dict) -> str:
    """SHA-256 over the generated files and every sampled job parameter."""
    h = hashlib.sha256()
    for name in inputs["files"]:
        h.update(name.encode())
        h.update((Path(inputs["workdir"]) / name).read_bytes())
    plain = {k: v for k, v in inputs.items() if k not in ("workdir", "files")}
    h.update(json.dumps(plain, sort_keys=True).encode())
    return h.hexdigest()


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(np) -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "guidedproc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": h.hexdigest(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "GUIDEDPROC_THREADS")},
    }


def _run_job(workload, state, index):
    """(result, error): a job that raises is recorded, not propagated."""
    try:
        return workload.run(state, index), None
    except Exception:  # a failed job counts against error_rate; the loop goes on
        return None, traceback.format_exc(limit=3)


def _check(workload, state, index, result, error) -> list[str]:
    if error is not None:
        return [error]
    try:
        return workload.check(state, index, result)
    except Exception:  # a malformed result is a failed job, not a crashed benchmark
        return [traceback.format_exc(limit=3)]


def _setup(workload, inputs, times: list[float]):
    """Time importing the modules the jobs call plus the one-time program work.

    The package is dropped from sys.modules before each repeat, so every
    repeat imports it again and redoes the set-up.  Repeats until at least
    SETUP_MIN_REPEATS are done and SETUP_MIN_S has been spent, appending
    each time to ``times``; returns the modules and state of the last one.
    """
    spent, n = 0.0, 0
    while n < SETUP_MIN_REPEATS or (spent < SETUP_MIN_S and n < SETUP_MAX_REPEATS):
        _purge_package()
        gc.collect()
        t0 = time.perf_counter()
        mods = _import(workload.modules)
        state = workload.setup(mods, inputs)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        n += 1
    state["jobs"] = inputs["jobs"]
    return mods, state


def _timed(workload, inputs, seconds: int):
    setup_times: list[float] = []
    _, state = _setup(workload, inputs, setup_times)
    jobs = state["jobs"]
    failures = []
    for i in range(workload.warmup):
        failures += [(i, p) for p in _check(workload, state, i, *_run_job(workload, state, i))]

    # Whole blocks of `workload.block` jobs (one command cycle on design),
    # so every block carries the same mix of job kinds.
    clock = time.perf_counter
    done, blocks = [], []
    start = clock()
    deadline, i = start + seconds, workload.warmup
    while i + workload.block <= len(jobs):
        b0 = clock()
        for _ in range(workload.block):
            t0 = clock()
            result, error = _run_job(workload, state, i)
            done.append((i, clock() - t0, result, error))
            i += 1
        b1 = clock()
        frames = sum(workload.frames(jobs[j]) for j in range(i - workload.block, i))
        blocks.append((b1 - b0, frames))
        if b1 >= deadline:
            break
    else:
        print(f"perfbench: job list exhausted after {len(done)} jobs", file=sys.stderr)
    wall = clock() - start
    _setup(workload, inputs, setup_times)  # repeats at the end sample a later moment

    failed_jobs = {i for i, _ in failures}
    for i, _, result, error in done:
        problems = _check(workload, state, i, result, error)
        failures += [(i, p) for p in problems]
        if problems:
            failed_jobs.add(i)
    lat_ms = [d[1] * 1e3 for d in done]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "commands_per_s": statistics.median(workload.block / w for w, _ in blocks),
        "frames_per_s": statistics.median(f / w for w, f in blocks),
        "job_ms_p50": statistics.median(lat_ms),
        "job_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kinds = {}
    for d in done:
        kinds.setdefault(jobs[d[0]]["kind"], []).append(d[1] * 1e3)
    detail = {
        "setup_repeats_s": setup_times,
        "timed_jobs": len(done),
        "blocks": len(blocks),
        "warmup_jobs": workload.warmup,
        "wall_s": wall,
        "mean_commands_per_s": len(done) / wall,
        "mean_frames_per_s": sum(f for _, f in blocks) / wall,
        "beyond_p90": sum(1 for x in lat_ms if x > metrics["job_ms_p90"]),
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(kinds.items())},
    }
    attempted = workload.warmup + len(done)
    return metrics, attempted, len(failed_jobs), failures, detail


def _traced(workload, inputs, seconds: int):
    import layers
    from spans import LAYERS, Tracer, function_table, layer_table, span_tree

    _purge_package()
    mods = _import(sorted(set(LAYERS) | set(workload.modules)))
    namespaces = [m for n, m in sys.modules.items() if n == "guidedproc" or n.startswith("guidedproc.")]
    tracer = Tracer(layers.HOOKS)

    def live_share(system, policy):
        _, reach = mods["adaptive"].stationary_targets(system, policy)
        return float(reach.sum()) / len(reach)

    def one_pass(traced: bool):
        if traced:
            tracer.install({n: mods[n] for n in LAYERS}, namespaces)
        t0 = time.perf_counter()
        try:
            tracer.job = "setup"
            state = workload.setup(mods, inputs)
            state["jobs"] = inputs["jobs"]
            outs = []
            for i in range(workload.pass_jobs):
                tracer.job = i
                outs.append(_run_job(workload, state, i))
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        spans = tracer.take()
        problems = [(i, p) for i, (r, e) in enumerate(outs) for p in _check(workload, state, i, r, e)]
        return wall, spans, problems

    one_pass(False)  # warm-up, discarded
    walls = {False: [], True: []}
    per_pass, failures, attempted, failed = [], [], 0, 0
    last_spans = []
    deadline = time.perf_counter() + seconds
    while len(walls[True]) < MIN_PASS_PAIRS or time.perf_counter() < deadline:
        for traced in (False, True):
            wall, spans, problems = one_pass(traced)
            walls[traced].append(wall)
            attempted += workload.pass_jobs
            failed += len({i for i, _ in problems})
            failures += problems
            if traced:
                per_pass.append(layers.measure(spans, live_share))
                last_spans = spans
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_share"] = statistics.median(walls[True]) / untraced - 1.0
    detail = {
        "passes": len(per_pass),
        "pass_jobs": workload.pass_jobs,
        "untraced_pass_s": walls[False],
        "traced_pass_s": walls[True],
        "functions": function_table(last_spans),
        "layers": layer_table(last_spans, walls[True][-1]),
        "spans": span_tree(last_spans),
        "span_count": len(last_spans),
        "metric_map": [
            {"metric": n, "unit": u, "better": b, "should_move": m, "workload": w}
            for n, u, b, m, w in layers.PER_LAYER
        ],
    }
    return metrics, attempted, failed, failures, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    if not (SRC / "guidedproc" / "__init__.py").is_file():
        _fail(f"no guidedproc sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import guidedproc
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if Path(guidedproc.__file__).resolve().parent != (SRC / "guidedproc").resolve():
        _fail(f"imported guidedproc from {guidedproc.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        from guidedproc import fixtures

        inputs = workload.generate(args.seed, workdir, fixtures)
        digest = _digest_inputs(inputs)
        if args.trace:
            metrics, attempted, failed, failures, detail = _traced(workload, inputs, args.seconds)
            units = {n: u for n, u, *_ in PER_LAYER}
        else:
            metrics, attempted, failed, failures, detail = _timed(workload, inputs, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    env = _environment(np)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs_sha256": digest, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": [{"job": i, "problem": p} for i, p in failures[:50]],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}, "detail": detail,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps({k: v for k, v in env.items() if k != "threads_env"}))
    print(f"inputs_sha256: {digest}")
    if args.trace:
        print(f"traced passes: {detail['passes']} x ({workload.pass_jobs} jobs + set-up), "
              f"{detail['span_count']} spans in the last")
        print(f"{'layer':<10} {'calls':>8} {'total_ms':>10} {'self_ms':>10} {'self_share':>10}")
        for layer, row in detail["layers"].items():
            print(f"{layer:<10} {row['calls']:>8} {row['total_ms']:>10.2f} {row['self_ms']:>10.2f} "
                  f"{row['self_share']:>10.3f}")
    else:
        print(f"jobs: {detail['timed_jobs']} timed + {workload.warmup} warm-up; "
              f"{detail['beyond_p90']} samples beyond p90")
        if detail["timed_jobs"] < 100:
            print("perfbench: fewer than 100 timed jobs; p90 rests on under 10 samples", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<38} {metrics[name]:>16.6g} {unit}")
    print(f"{'error_rate':<38} {failed / attempted:>16.6g} ratio ({failed} failed / {attempted} attempted)")
    for i, problem in failures[:10]:
        print(f"FAILED job {i}: {problem.strip().splitlines()[-1]}", file=sys.stderr)
    print(f"details: {out_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
