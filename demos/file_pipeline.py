"""The whole toolchain through files: model in, policy and CSV out.

Everything the library does is reachable without writing Python: describe
the system in a JSON model file, then run the command-line pipeline. This
script drives `guidedproc optimize` and `guidedproc compare` through the
same entry point the console script uses and pokes at the outputs.
"""

import csv
import json
import tempfile
from pathlib import Path

from guidedproc import io
from guidedproc.cli import main
from guidedproc.fixtures import as_document

with tempfile.TemporaryDirectory(prefix="guidedproc_demo_") as tmp:
    workdir = Path(tmp)
    model_path = workdir / "monitor.json"
    io.dump_model_file(as_document(), model_path)
    print(f"model file: {model_path}")
    print(json.dumps({k: v for k, v in json.loads(model_path.read_text()).items()
                      if k not in ("stages",)}, indent=2)[:400])

    # Solve it. The bundle pins the config hash so results stay traceable to
    # the exact inputs that produced them.
    policy_path = workdir / "policy.json"
    assert main(["optimize", str(model_path), "-o", str(policy_path)]) == 0
    bundle = json.loads(policy_path.read_text())
    print(f"\noptimize: v0 = {bundle['risk']['total']:.6f}, "
          f"thresholds = {[round(t, 4) for t in bundle['policy']['thresholds']]}")
    print(f"config hash: {bundle['config_hash'][:16]}...")

    # Replay the saved policy on a stream; no re-solving happens here.
    sim_path = workdir / "sim.json"
    assert main([
        "simulate", str(model_path), "--policy", str(policy_path),
        "--n-frames", "200000", "--seed", "11", "-o", str(sim_path),
    ]) == 0
    sim = json.loads(sim_path.read_text())["simulation"]
    print(f"simulate: empirical risk {sim['empirical_risk']:.6f} "
          f"over {sim['n_frames']} frames")

    # The headline table: cascade vs duty cycling across the prior sweep.
    csv_path = workdir / "compare.csv"
    assert main(["compare", str(model_path), "-o", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"\ncompare: {len(rows)} priors swept")
    print(f"{'pi0':>6} {'cascade':>10} {'real dc':>10} {'dominates':>10}")
    for row in rows[::2]:
        flags = row["dominance_eq13"] == "true" and row["dominance_eq14"] == "true"
        print(f"{float(row['pi0']):>6.2f} {float(row['gp_risk']):>10.6f} "
              f"{float(row['dc_real_risk']):>10.6f} {str(flags):>10}")
