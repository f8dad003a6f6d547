"""Model files and result bundles.

A model file is JSON: shared prices (miss_cost, fa_cost), a prior or a
prior sweep, one of energy_weight/energy_budget, an optional grid_size, and
either a "stages" list (cascade) or "nodes"/"edges"/"root" (graph).  Every
stage or node carries p0/p1 PMF arrays and on/off costs; cascade stages may
add an "uncertainty" block.  PMFs must sum to 1 within 1e-6; anything off
by more than 1e-9 is renormalized with a warning, closer ones silently.

Result bundles echo a sha256 over the canonical (sorted-keys, compact)
JSON of the model document plus the tool version, so any result can be
traced to the exact configuration that produced it.  Floats go through the
default JSON float repr, which round-trips float64 exactly.  Each document
computes that hash once, on first use.

``load_model_file`` parses each file text once per process: an LRU memo of
``DOCUMENT_MEMO_ENTRIES`` documents, keyed by the text, hands a repeated
read the document the first read built.  That document is shared, to be
read and never mutated, and a renormalizing PMF warns on the first read
only.  A file that fails to load stores nothing and fails the same way on
every read.  Policy files are read afresh each time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .cascade import Policy, RiskReport, StageSpec, SystemSpec, build_system, check_off_costs
from .errors import ModelFormatError
from .graph import DetectionGraph, GraphPolicy, check_energy_weight
from .models import DEFAULT_GRID_SIZE, MAX_GRID_SIZE, BeliefGrid, FeatureModel, UncertaintyParams
from .robust import RobustBand
from .sim import SimReport

__all__ = [
    "DOCUMENT_MEMO_ENTRIES",
    "ModelDocument",
    "load_model_file",
    "load_policy_file",
    "parse_model_document",
    "check_sweep",
    "dump_model_file",
    "build_from_document",
    "config_hash",
    "result_bundle",
    "policy_payload",
    "policy_from_payload",
    "risk_payload",
    "sim_payload",
    "write_json",
    "finite_or_none",
    "band_payload",
    "graph_policy_payload",
]

MODEL_FORMAT = "guidedproc-model"
RENORM_WARN = 1e-9
RENORM_FAIL = 1e-6
# compare solves and streams one row per sweep point in turn, about 12 ms
# each at the default frame count (2-vCPU Xeon): 10,001 rows are 2 minutes
MAX_SWEEP_POINTS = 10_001


@dataclass(frozen=True)
class ModelDocument:
    """Parsed model file plus the raw dict it came from (for hashing).

    A document from ``load_model_file`` may be shared by every later read
    of the same file text in the process: read it, never mutate it or its
    ``raw``."""

    kind: str  # "cascade" | "graph"
    miss_cost: float
    fa_cost: float
    prior: float | None
    prior_sweep: tuple[float, float, int] | None
    energy_weight: float | None
    energy_budget: float | None
    grid_size: int
    stages: tuple[tuple[StageSpec, UncertaintyParams], ...] | None
    graph: DetectionGraph | None
    duty_cycle: tuple[float, float] | None  # (on_cost, off_cost) of the monolithic block
    raw: dict

    def default_prior(self) -> float:
        if self.prior is not None:
            return self.prior
        lo, hi, _ = self.prior_sweep
        return 0.5 * (lo + hi)

    def sweep_points(self) -> np.ndarray:
        if self.prior_sweep is None:
            return np.array([self.prior])
        lo, hi, n = self.prior_sweep
        return np.linspace(lo, hi, n)

    @functools.cached_property
    def config_hash(self) -> str:
        """``config_hash`` of the raw document, computed on first use."""
        return config_hash(self.raw)


def _finite(v, what) -> float:
    """A JSON number as a finite float: no strings, bools, NaN or infinities
    (an integer past the float range counts as infinite)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ModelFormatError(f"{what} must be a finite number")
    return float(v)


_REQUIRED = object()  # the default of a field that has none


def _missing(key, where, default):
    """The `default` of a field missing from its object; one with none is refused."""
    if default is _REQUIRED:
        raise ModelFormatError(f"{where}: missing '{key}'")
    return default


def _as_float(raw, key, where, default=_REQUIRED):
    if key not in raw:
        return _missing(key, where, default)
    return _finite(raw[key], f"{where}: '{key}'")


def _as_int(raw, key, where, default=_REQUIRED):
    if key not in raw:
        return _missing(key, where, default)
    v = raw[key]
    if isinstance(v, bool) or not (isinstance(v, int) or (isinstance(v, float) and v.is_integer())):
        raise ModelFormatError(f"{where}: '{key}' must be an integer")
    return int(v)


def _load_pmf(values, where) -> np.ndarray:
    if not isinstance(values, (list, tuple)) or len(values) < 2:
        raise ModelFormatError(f"{where}: PMF must be a list of at least 2 masses")
    arr = None
    if all(t is not bool and issubclass(t, (int, float)) for t in set(map(type, values))):
        try:
            arr = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer past the float range
            pass
    # in doubt, _finite rules entry by entry, with its message: a value that
    # is not a number, an overflow, NaN, an infinity, or an entry at the end
    # of the float range, which an integer just past the range rounds to
    if arr is None or not (np.abs(arr) < sys.float_info.max).all():
        for v in values:
            _finite(v, f"{where}: each PMF entry")
    if np.any(arr < 0.0):
        raise ModelFormatError(f"{where}: PMF entries must be nonnegative")
    s = float(arr.sum())
    if abs(s - 1.0) > RENORM_FAIL:
        raise ModelFormatError(f"{where}: PMF sums to {s!r}, beyond the {RENORM_FAIL} tolerance")
    if abs(s - 1.0) > RENORM_WARN:
        warnings.warn(f"{where}: PMF sums to {s!r}; renormalizing", stacklevel=2)
    return arr / s


def _load_detector(raw, where) -> StageSpec:
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{where}: expected an object")
    p0 = _load_pmf(raw.get("p0"), f"{where}: p0") if "p0" in raw else None
    p1 = _load_pmf(raw.get("p1"), f"{where}: p1") if "p1" in raw else None
    if p0 is None or p1 is None:
        raise ModelFormatError(f"{where}: needs both 'p0' and 'p1'")
    if p0.size != p1.size:
        raise ModelFormatError(f"{where}: p0 and p1 must share one alphabet")
    on = _as_float(raw, "on_cost", where)
    off = _as_float(raw, "off_cost", where, 0.0)
    model = FeatureModel(p0=p0, p1=p1)
    try:
        return StageSpec(model=model, on_cost=on, off_cost=off)
    except ModelFormatError as exc:  # a cost out of range: say where
        raise ModelFormatError(f"{where}: {exc}") from None


def _load_uncertainty(raw, where) -> UncertaintyParams:
    block = raw.get("uncertainty")
    if block is None:
        return UncertaintyParams()
    if not isinstance(block, dict):
        raise ModelFormatError(f"{where}: 'uncertainty' must be an object")
    unknown = set(block) - {"eps0", "eps1", "nu0", "nu1"}
    if unknown:
        raise ModelFormatError(f"{where}: unknown uncertainty fields {sorted(unknown)}")
    get = lambda k: _as_float(block, k, f"{where}: uncertainty", 0.0)
    return UncertaintyParams(get("eps0"), get("eps1"), get("nu0"), get("nu1"))


def check_sweep(lo: float, hi: float, n: int, where: str) -> tuple[float, float, int]:
    """(lo, hi, n), refused with `where` unless 0 <= lo <= hi <= 1 and 0 < n <= MAX_SWEEP_POINTS."""
    if not (0.0 <= lo <= hi <= 1.0 and n >= 1):
        raise ModelFormatError(f"{where} out of range")
    if n > MAX_SWEEP_POINTS:
        raise ModelFormatError(f"{where} takes at most {MAX_SWEEP_POINTS} points")
    return lo, hi, n


def parse_model_document(raw: dict) -> ModelDocument:
    if not isinstance(raw, dict):
        raise ModelFormatError("model file must hold a JSON object")
    if raw.get("format", MODEL_FORMAT) != MODEL_FORMAT:
        raise ModelFormatError(f"not a {MODEL_FORMAT} file")
    miss = _as_float(raw, "miss_cost", "model")
    fa = _as_float(raw, "fa_cost", "model")
    if miss <= 0.0 or fa <= 0.0:
        raise ModelFormatError("model: miss_cost and fa_cost must be positive")

    prior = _as_float(raw, "prior", "model", None)
    sweep = None
    if "prior_sweep" in raw:
        if prior is not None:
            raise ModelFormatError("model: give 'prior' or 'prior_sweep', not both")
        ps = raw["prior_sweep"]
        if not (isinstance(ps, list) and len(ps) == 3):
            raise ModelFormatError("model: prior_sweep must be [lo, hi, count]")
        fields = dict(zip(("lo", "hi", "count"), ps))
        where = "model: prior_sweep"
        lo, hi = _as_float(fields, "lo", where), _as_float(fields, "hi", where)
        sweep = check_sweep(lo, hi, _as_int(fields, "count", where), where)
    if prior is None and sweep is None:
        raise ModelFormatError("model: needs 'prior' or 'prior_sweep'")
    if prior is not None and not 0.0 <= prior <= 1.0:
        raise ModelFormatError("model: prior must lie in [0, 1]")

    weight = _as_float(raw, "energy_weight", "model", None)
    budget = _as_float(raw, "energy_budget", "model", None)
    if weight is not None and budget is not None:
        raise ModelFormatError("model: give energy_weight or energy_budget, not both")
    grid_size = _as_int(raw, "grid_size", "model", DEFAULT_GRID_SIZE)
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise ModelFormatError(f"model: belief grid needs 2 to {MAX_GRID_SIZE} points")

    duty = None
    if "duty_cycle" in raw:
        block = raw["duty_cycle"]
        if not isinstance(block, dict):
            raise ModelFormatError("model: 'duty_cycle' must be an object")
        duty = (
            _as_float(block, "on_cost", "duty_cycle"),
            _as_float(block, "off_cost", "duty_cycle"),
        )
        if not 0.0 <= duty[1] < duty[0]:
            raise ModelFormatError("duty_cycle: need 0 <= off_cost < on_cost")

    has_stages = "stages" in raw
    has_graph = "nodes" in raw or "edges" in raw or "root" in raw
    if has_stages == has_graph:
        raise ModelFormatError("model: give either 'stages' or a node graph")

    stages = _load_stages(raw["stages"]) if has_stages else None
    graph = None if has_stages else _load_graph(raw)
    return ModelDocument(
        kind="cascade" if has_stages else "graph", miss_cost=miss, fa_cost=fa, prior=prior,
        prior_sweep=sweep, energy_weight=weight, energy_budget=budget, grid_size=grid_size,
        stages=stages, graph=graph, duty_cycle=duty, raw=raw,
    )


def _load_stages(items) -> tuple[tuple[StageSpec, UncertaintyParams], ...]:
    if not (isinstance(items, list) and len(items) >= 2):
        raise ModelFormatError("model: 'stages' needs at least two entries")
    stages = []
    for i, item in enumerate(items):
        where = f"stage {i + 1}"
        stages.append((_load_detector(item, where), _load_uncertainty(item, where)))
    if not stages[-1][1].is_zero:
        raise ModelFormatError("last stage: uncertainty is not supported there")
    check_off_costs([stage for stage, _ in stages])
    return tuple(stages)


def _load_graph(raw) -> DetectionGraph:
    nodes_raw = raw.get("nodes")
    if not isinstance(nodes_raw, dict) or not nodes_raw:
        raise ModelFormatError("model: 'nodes' must map ids to detectors")
    nodes = {}
    for key, item in nodes_raw.items():
        try:
            nid = int(key)
        except ValueError:
            raise ModelFormatError(f"node {key!r}: ids must be integers") from None
        # int() also reads "01", " 1 " and "+1", which would alias node 1
        if str(nid) != key or nid < 1:
            raise ModelFormatError(f"node {key!r}: ids must be written as positive decimal integers")
        where = f"node {nid}"
        if isinstance(item, dict) and "uncertainty" in item:
            raise ModelFormatError(f"{where}: uncertainty is only supported on cascade stages")
        nodes[nid] = _load_detector(item, where)
    edges_raw = raw.get("edges", [])
    if not isinstance(edges_raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in edges_raw
    ):
        raise ModelFormatError("model: edges must be a list of [from, to] pairs")
    edges: dict[int, tuple[int, ...]] = {}
    for pair in edges_raw:
        ends = dict(zip(("from", "to"), pair))
        a, b = _as_int(ends, "from", "model: edge"), _as_int(ends, "to", "model: edge")
        edges[a] = edges.get(a, ()) + (b,)
    return DetectionGraph(nodes=nodes, edges=edges, root=_as_int(raw, "root", "model"))


def _read_json(path, decode):
    """`decode` of the file's text (UTF-8, universal newlines); text that
    is not JSON fails as a ModelFormatError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return decode(text)
    # bytes that are not UTF-8, and arrays nested past the decoder's stack
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc


# Most parsed model documents the process keeps; past it the least recently
# used goes.  Each entry holds its file text, the decoded dict (about 32 B
# per PMF entry) and the parsed arrays, 90-105 B per PMF entry in all
# (62 KB for three 100-symbol stages, 11 MB for three of 20,000), so the
# memo holds at most 8 times the largest document the process has read.
DOCUMENT_MEMO_ENTRIES = 8


@functools.lru_cache(maxsize=DOCUMENT_MEMO_ENTRIES)
def _parsed_document(text: str) -> ModelDocument:
    """The document of a model file's text; a text that fails to parse
    stores nothing."""
    return parse_model_document(json.loads(text))


def load_model_file(path) -> ModelDocument:
    """The document of the model file at `path`, parsed once per process
    for each file text (see the module docstring): a repeated read returns
    the shared document of the first, to be read and never mutated."""
    return _read_json(path, _parsed_document)


def load_policy_file(path, spec: SystemSpec) -> Policy:
    """The policy of a result bundle written by ``optimize``, or a bare
    policy payload, to be run on the cascade `spec`."""
    raw = _read_json(path, json.loads)
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: a policy file must hold a JSON object")
    return policy_from_payload(raw.get("policy", raw), spec)


def dump_model_file(raw: dict, path) -> None:
    parse_model_document(raw)  # refuse to write a file we could not load
    write_json(raw, path)


def build_from_document(
    doc: ModelDocument,
    prior: float | None = None,
    energy_weight: float | None = None,
    energy_budget: float | None = None,
):
    """SystemSpec plus robustness bands for a cascade document.

    prior/energy overrides replace the document's values (sweeps pass one
    point at a time).
    """
    if doc.kind != "cascade":
        raise ModelFormatError("graph documents are solved with solve_graph")
    if energy_weight is None and energy_budget is None:
        energy_weight, energy_budget = doc.energy_weight, doc.energy_budget
    if energy_weight is None and energy_budget is None:
        raise ModelFormatError("model: needs energy_weight or energy_budget")
    return build_system(
        doc.stages,
        doc.miss_cost,
        doc.fa_cost,
        doc.default_prior() if prior is None else prior,
        energy_weight=energy_weight,
        energy_budget=energy_budget,
    )


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def result_bundle(doc: ModelDocument, **payload) -> dict:
    out = {
        "format": "guidedproc-result",
        "tool_version": __version__,
        "config_hash": doc.config_hash,
    }
    out.update(payload)
    return out


def finite_or_none(x: float):
    return None if math.isinf(x) else float(x)


def policy_payload(policy: Policy) -> dict:
    # raw thresholds may be +inf (a stage that never continues); JSON has
    # no inf, so those serialize as null
    return {
        "grid_size": policy.grid.size,
        "energy_weight": policy.energy_weight,
        "thresholds": [float(t) for t in policy.thresholds],
        "raw_thresholds": [finite_or_none(t) for t in policy.raw_thresholds],
        "v0": policy.v0,
    }


def policy_from_payload(payload: dict, spec: SystemSpec) -> Policy:
    """Inverse of ``policy_payload``, reading numbers as model files do.
    Deployed thresholds, v0 and the weight must be finite, and the weight
    must pass ``graph.check_energy_weight`` on `spec`'s costs, as a solved
    one does, so that no stream risk overflows; a raw threshold may be null
    or +inf: "never continue"."""
    where = "policy payload"
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    grid = BeliefGrid(_as_int(payload, "grid_size", where))
    v0 = _as_float(payload, "v0", where)
    lam = _as_float(payload, "energy_weight", where)
    thresholds, raw = payload.get("thresholds"), payload.get("raw_thresholds")
    if not (isinstance(thresholds, list) and isinstance(raw, list)):
        raise ModelFormatError(f"{where}: 'thresholds' and 'raw_thresholds' must be lists")
    thresholds = tuple(_finite(t, f"{where}: a threshold") for t in thresholds)
    raw = tuple(
        math.inf if t is None or t == math.inf else _finite(t, f"{where}: a raw threshold")
        for t in raw
    )
    if len(raw) != len(thresholds):
        raise ModelFormatError(f"{where}: one raw threshold per threshold")
    check_energy_weight(lam, spec.stages, spec.miss_cost, spec.fa_cost)
    return Policy(
        grid=grid,
        thresholds=thresholds,
        raw_thresholds=raw,
        value_tables=(),
        v0=v0,
        energy_weight=lam,
    )


def band_payload(band: RobustBand) -> dict:
    return {**asdict(band), "hi": finite_or_none(band.hi)}


def risk_payload(report: RiskReport) -> dict:
    return asdict(report)


def sim_payload(report: SimReport) -> dict:
    # the adaptive-mode fields are None on belief-rule streams and omitted
    return {k: v for k, v in asdict(report).items() if v is not None}


def graph_policy_payload(policy: GraphPolicy) -> dict:
    return {
        "grid_size": policy.grid.size,
        "energy_weight": policy.energy_weight,
        "prior": policy.prior,
        "v0": policy.v0,
        "order": list(policy.order),
        "stop_thresholds": {str(k): finite_or_none(v) for k, v in policy.stop_thresholds.items()},
        "stop_off_costs": {str(k): v for k, v in policy.stop_off_costs.items()},
    }


def write_json(obj: dict, path_or_none) -> str:
    """Indented JSON text with sorted keys, also written to the path if one
    is given.  Tuples come out as arrays, like lists."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path_or_none is not None:
        with open(path_or_none, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return text
