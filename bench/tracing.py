"""Per-layer tracing by wrapping coxrep's public functions from outside.

`Tracer.install()` replaces each function in SPANS with a wrapper that
records a span (name, start, end, parent span, job id) and replaces the
FieldElement operators in COUNTED with call counters.  A function is
replaced in every coxrep module and module-level dict that binds it, since
`cli` binds names with `from ... import` and dispatches through a dict.
Spans stay in memory until `summary()` aggregates them at the end.

Inclusive time counts the outermost span of a name only; self time is a
span's duration minus the durations of its direct children (spans nest and
never overlap, since the program is single-threaded).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute, class or None)
SPANS = {
    "cyclotomic.field_context": ("cyclotomic", "field_context", None),
    "cyclotomic.invert": ("cyclotomic", "invert", "FieldElement"),
    "cyclotomic.galois": ("cyclotomic", "galois", "FieldContext"),
    "cyclotomic.approximate": ("cyclotomic", "approximate", "FieldElement"),
    "cartanpoly.classify_pair": ("cartanpoly", "classify_pair", None),
    "graph.validate": ("graph", "validate", None),
    "graph.spanning_tree": ("graph", "spanning_tree", None),
    "graph.chord_circuit": ("graph", "chord_circuit", None),
    "linalg.eliminate": ("linalg", "eliminate", None),
    "linalg.mat_mul": ("linalg", "mat_mul", None),
    "linalg.charpoly": ("linalg", "charpoly", None),
    "linalg.inverse": ("linalg", "inverse", None),
    "linalg.intertwiner_space": ("linalg", "intertwiner_space", None),
    "construction.build": ("construction", "build", None),
    "construction.cartan_matrix": ("construction", "cartan_matrix", None),
    "construction.root_change_intertwiner": ("construction", "root_change_intertwiner", None),
    "analysis.product_analysis": ("analysis", "product_analysis", None),
    "analysis.verify_good_morphism": ("analysis", "verify_good_morphism", None),
    "analysis.commutant_dimension": ("analysis", "commutant_dimension", None),
    "analysis.characters_distinguish": ("analysis", "characters_distinguish", None),
    "forms.form_exists": ("forms", "form_exists", None),
    "forms.form_space_dimension": ("forms", "form_space_dimension", None),
    "forms.verify_invariance": ("forms", "verify_invariance", None),
    "forms.dual_representation": ("forms", "dual_representation", None),
    "io.load_diagram": ("io", "load_diagram", None),
    "io.tree_from_json": ("io", "tree_from_json", None),
    "io.load_params": ("io", "load_params", None),
    "io.matrix_to_json": ("io", "matrix_to_json", None),
    "io.scalar_to_json": ("io", "scalar_to_json", None),
    "cli.build": ("cli", "cmd_build", None),
    "cli.verify": ("cli", "cmd_verify", None),
    "cli.form": ("cli", "cmd_form", None),
    "cli.equiv": ("cli", "cmd_equiv", None),
    "cli.dual": ("cli", "cmd_dual", None),
    "cli.main": ("cli", "main", None),
}
# operators counted without spans: they run millions of times per run
COUNTED = {"cyclotomic.mul": "__mul__", "cyclotomic.add": "__add__"}
LAYERS = ("cyclotomic", "cartanpoly", "graph", "linalg", "construction",
          "analysis", "forms", "io", "cli")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric `summary()` reports."""
    out = []
    for name in SPANS:
        if name == "cli.main":
            out.append((name + ".self_s", "s", "lower"))
            continue
        out += [(name + ".calls", "count", "lower"), (name + ".s", "s", "lower"),
                (name + ".self_s", "s", "lower")]
        if name == "cartanpoly.classify_pair":
            out.append((name + ".indeterminate", "count", "lower"))
        if name == "linalg.eliminate":
            out += [(name + ".cells", "count", "lower"),
                    (name + ".max_coeff_bits", "bits", "lower")]
    out += [(name + ".calls", "count", "lower") for name in COUNTED]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.jobs", "count", "higher"), ("trace.overhead", "ratio", "lower")]
    return out


def self_times(durations: list[float], parents: list[int]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= durations[i]
    return own


def _max_coeff_bits(rows) -> int:
    """Largest numerator or denominator bit-length of the entries."""
    return max((max(abs(v).bit_length() for v in x.num + (x.den,))
                for row in rows for x in row), default=0)


class Tracer:
    """Spans and counters for one traced run; `job` tags new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.job_counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.max_bits = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import coxrep.cli  # noqa: F401  (loads every module that binds names)

        modules = [m for n, m in sys.modules.items() if n.startswith("coxrep")]
        for name, (module, attr, cls) in SPANS.items():
            mod = sys.modules[f"coxrep.{module}"]
            owner = getattr(mod, cls) if cls else mod
            self._replace(modules, owner, attr, self._span(name, getattr(owner, attr)))
        element = sys.modules["coxrep.cyclotomic"].FieldElement
        for name, attr in COUNTED.items():
            self._replace(modules, element, attr, self._counter(name, getattr(element, attr)))

    def _replace(self, modules, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else modules
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper

    def _span(self, name: str, fn):
        clock = time.perf_counter
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self.stack
        after = {"cartanpoly.classify_pair": self._after_classify,
                 "linalg.eliminate": self._after_eliminate}.get(name)

        def open_span(label: str) -> int:
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(clock())
            ends.append(0.0)
            return len(names) - 1

        def wrapper(*args, **kwargs):
            index = open_span(name)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                # the hook runs in a "trace." span of its own, so its time is
                # not charged to the caller's self time
                hook = open_span("trace.hook")
                after(args, result)
                ends[hook] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_classify(self, args, result) -> None:
        if result.kind == "indeterminate":
            self.counts["cartanpoly.classify_pair.indeterminate"] += 1

    def _after_eliminate(self, args, result) -> None:
        rows = args[1]
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self.counts["linalg.eliminate.cells"] += cells
        self.job_counts[self.job]["linalg.eliminate.cells"] += cells
        echelon, pivots = result
        self.max_bits = max(self.max_bits, _max_coeff_bits(echelon[:len(pivots)]))

    # -- jobs ------------------------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self._job_base = {k: self.counts[k] for k in COUNTED}

    def end_job(self) -> None:
        for k in COUNTED:
            self.job_counts[self.job][k + ".calls"] += self.counts[k] - self._job_base[k]

    # -- results -----------------------------------------------------------------

    def summary(self, jobs: int, overhead: float) -> dict[str, float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = self_times(durations, self.parents)
        metrics: dict[str, float] = defaultdict(float)
        for name in SPANS:
            metrics[name + ".calls"] = 0
        for i, name in enumerate(self.names):
            if name.startswith("trace."):
                continue
            metrics[name + ".calls"] += 1
            metrics[name + ".self_s"] += own[i]
            metrics["layer." + name.split(".")[0] + ".self_s"] += own[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                metrics[name + ".s"] += durations[i]
        for name in COUNTED:
            metrics[name + ".calls"] = self.counts[name]
        for key in ("cartanpoly.classify_pair.indeterminate", "linalg.eliminate.cells"):
            metrics[key] = self.counts[key]
        metrics["linalg.eliminate.max_coeff_bits"] = self.max_bits
        metrics["trace.jobs"] = jobs
        metrics["trace.overhead"] = overhead
        return {name: metrics[name] for name, _, _ in per_layer_metrics()}

    def spans(self) -> list[list]:
        return [[n, s, e, p, j] for n, s, e, p, j in
                zip(self.names, self.starts, self.ends, self.parents, self.jobs)]
