"""In-memory spans around calls into guidedproc's public functions.

A traced run wraps every public function of the package's layer modules
at every module namespace that binds it by name (``cli`` imports
``solve``, ``evaluate`` and ``calibrate_lambda`` directly; ``cascade``,
``graph`` and ``adaptive`` import ``symbol_posteriors``), so a call is
recorded whichever module made it.  Each span records its name, start,
end, parent span and job id; the untraced runs install nothing.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "io", "robust", "cascade", "models", "graph", "dutycycle", "adaptive", "sim")

NAME, START, END, PARENT, JOB, EXTRA = range(6)


class Tracer:
    """Wraps public functions and records one span per call.

    ``hooks`` maps a span name to ``f(args, kwargs, result)``; its return
    value is stored on the span (sizes, input keys, stream kinds).
    """

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._hooks = hooks or {}
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, hook, clock = self.spans, self._stack, self._hooks.get(name), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[EXTRA] = hook(args, kwargs, result)
            return result

        return traced

    def install(self, layers: dict, namespaces) -> None:
        """Wrap each layer module's public functions wherever they are bound."""
        wrapped = {}
        for layer, mod in layers.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def take(self) -> list[list]:
        """Spans recorded since the last take, oldest first."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def function_table(spans) -> dict[str, dict]:
    """Per function: calls, inclusive ms and self ms."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (s[END] - s[START]) * 1e3
        row["self_ms"] += own * 1e3
    return dict(sorted(table.items()))


def layer_table(spans, wall_s: float) -> dict[str, dict]:
    """Per layer: calls, ms spent inside it (outermost entries only, so a
    layer calling itself is not counted twice), self ms and self share of
    the pass's wall time."""
    table = {layer: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        row = table[layer]
        row["calls"] += 1
        row["self_ms"] += own * 1e3
        parent = spans[s[PARENT]][NAME].split(".", 1)[0] if s[PARENT] >= 0 else None
        if parent != layer:
            row["total_ms"] += (s[END] - s[START]) * 1e3
    for row in table.values():
        row["self_share"] = row["self_ms"] / (wall_s * 1e3) if wall_s > 0 else 0.0
    return table


def span_tree(spans) -> list[dict]:
    """Spans as JSON-ready records, times in ms from the first span."""
    t0 = spans[0][START] if spans else 0.0
    out = []
    for i, s in enumerate(spans):
        rec = {
            "id": i,
            "name": s[NAME],
            "start_ms": (s[START] - t0) * 1e3,
            "end_ms": (s[END] - t0) * 1e3,
            "parent": s[PARENT],
            "job": s[JOB],
        }
        if isinstance(s[EXTRA], (int, float, str)):
            rec["extra"] = s[EXTRA]
        elif isinstance(s[EXTRA], dict):
            rec["extra"] = {k: v for k, v in s[EXTRA].items() if isinstance(v, (int, float, str))}
        out.append(rec)
    return out
