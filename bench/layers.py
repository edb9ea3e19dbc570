"""Per-layer spans recorded from outside the program.

The layers are popkit's modules.  Tracer.install() wraps every public
function of each module, plus RationalGf.expand, and rebinds every name
in the package that refers to one of them (wilf and cli import functions
by name, matcher imports reduce as _reduce).  uninstall() puts the
originals back.  Spans (name, start, end, parent, job) stay in memory and
are written out by dump(); self time, busy time and the layer counters
are accumulated as spans close.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "notation", "posets", "perms", "matcher", "counting",
          "wilf", "recurrences", "egf")

COUNTERS = (
    "counting.avoiders", "counting.max_level", "wilf.members",
    "wilf.orbits_counted", "wilf.dedup_ratio", "matcher.queries",
    "matcher.hits", "recurrences.terms", "recurrences.crosscheck_s",
    "recurrences.gf_expand_s", "egf.mul_calls", "egf.coeff_ops",
)


def metric_names() -> list[str]:
    per_layer = [f"{layer}.{m}" for layer in LAYERS
                 for m in ("calls", "busy_s", "self_s", "errors")]
    return per_layer + list(COUNTERS) + ["tracing.overhead_s"]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_layer: list[str] = []
        # One entry per span, in closing order.
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self._next_id = 0
        # Open frames: [span id, name id, start, child time, segment start].
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._busy_from: dict[str, float] = {}
        self.totals: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name_id: int, span_id: int | None = None) -> list:
        now = time.perf_counter()
        layer = self.name_layer[name_id]
        if self._depth[layer] == 0:
            self._busy_from[layer] = now
        self._depth[layer] += 1
        if span_id is None:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name_id, now, 0.0, now]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, error: bool) -> float:
        now = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans closed out of order"
        layer = self.name_layer[frame[1]]
        duration = now - frame[4]
        totals = self.totals
        totals[f"{layer}.self_s"] += duration - frame[3]
        if error:
            totals[f"{layer}.errors"] += 1
        if self._stack:
            self._stack[-1][3] += duration
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            totals[f"{layer}.busy_s"] += now - self._busy_from[layer]
        return now

    def _record(self, frame: list, parent: int, end: float) -> None:
        self.span_id.append(frame[0])
        self.span_name.append(frame[1])
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_start.append(frame[2])
        self.span_end.append(end)

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.name_layer.append(layer)
        return len(self.names) - 1

    def wrap(self, layer: str, name: str, fn):
        name_id = self._name_id(layer, name)
        tracer = self
        counter = _COUNTERS.get(name)
        totals = self.totals
        calls_key = f"{layer}.calls"

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                totals[calls_key] += 1
                outer = tracer._depth[layer] == 0
                parent = tracer._stack[-1][0] if tracer._stack else -1
                inner = fn(*args, **kwargs)
                span_id, first, yielded = None, None, 0
                while True:
                    frame = tracer._enter(name_id, span_id)
                    span_id = frame[0]
                    if first is None:
                        first = frame
                    try:
                        item = next(inner)
                    except StopIteration:
                        end = tracer._exit(frame, False)
                        break
                    except BaseException:
                        tracer._record(first, parent, tracer._exit(frame, True))
                        raise
                    tracer._exit(frame, False)
                    yielded += 1
                    yield item
                tracer._record(first, parent, end)
                if outer and counter is not None:
                    counter(totals, args, yielded)

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            totals[calls_key] += 1
            outer = tracer._depth[layer] == 0
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._record(frame, parent, tracer._exit(frame, True))
                raise
            tracer._record(frame, parent, tracer._exit(frame, False))
            if counter is not None and (outer or name in _ANY_DEPTH):
                counter(totals, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, name, wrappers[id(value)][1])
        gf = sys.modules[f"{self.package}.recurrences"].RationalGf
        self._patch(gf, "expand", self.wrap("recurrences", "RationalGf.expand", gf.expand))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -------------------------------------------------------- results

    def span_totals(self, name: str) -> float:
        """Summed duration of every span with this name."""
        ids = {i for i, n in enumerate(self.names) if n == name}
        return sum(e - s for n, s, e in zip(self.span_name, self.span_start, self.span_end)
                   if n in ids)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of every layer metric except the overhead."""
        totals = dict(self.totals)
        totals["recurrences.crosscheck_s"] = self.span_totals("recurrences.n_class2_binomial_sum")
        totals["recurrences.gf_expand_s"] = self.span_totals("recurrences.RationalGf.expand")
        out = {}
        for name in metric_names()[:-1]:
            if name == "wilf.dedup_ratio":
                orbits = totals.get("wilf.orbits_counted", 0)
                out[name] = totals.get("wilf.members", 0) / orbits if orbits else 0.0
            elif name == "counting.max_level":
                out[name] = totals.get(name, 0)
            else:
                out[name] = totals.get(name, 0) / passes
        return out

    def dump(self, path: str) -> int:
        """Write the spans as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n")
        return len(self.span_name)


# Layer counters, fed from the arguments and result of outermost calls.


def _count_levels(totals, args, result) -> None:
    values = result.values if hasattr(result, "values") else (result,)
    totals["counting.avoiders"] += sum(values)
    totals["counting.max_level"] = max(totals["counting.max_level"], max(values))


def _count_classify(totals, args, report) -> None:
    totals["wilf.members"] += len(args[0].members)
    totals["wilf.orbits_counted"] += sum(len(c.orbit_representatives) for c in report.classes)


def _count_query(totals, args, result) -> None:
    totals["matcher.queries"] += 1
    totals["matcher.hits"] += bool(result)


def _count_terms(totals, args, result) -> None:
    values = getattr(result, "values", result)
    if isinstance(values, (list, tuple)):
        totals["recurrences.terms"] += len(values)


def _count_egf_mul(totals, args, result) -> None:
    order = args[0].order
    totals["egf.mul_calls"] += 1
    totals["egf.coeff_ops"] += (order + 1) * (order + 2) // 2


_COUNTERS = {
    "count_avoiders": _count_levels,
    "avoidance_sequence": _count_levels,
    "count_quasi_avoiders": _count_levels,
    "classify": _count_classify,
    "egf_mul": _count_egf_mul,
    **{name: _count_query for name in
       ("contains", "avoids", "quasi_avoids", "occurrences", "count_occurrences")},
    **{name: _count_terms for name in (
        "theorem_sequence", "gf_coefficients", "thm_b1", "thm_b2_recurrence",
        "thm_general1", "thm_long_answer", "n_class1", "n_class2", "n_class3",
        "dc_small", "RationalGf.expand")},
}
# Counted on every call, not only outermost ones: counting's own levels
# are reported whatever called it, and every product is one egf_mul.
_ANY_DEPTH = {"count_avoiders", "avoidance_sequence", "count_quasi_avoiders", "egf_mul"}
