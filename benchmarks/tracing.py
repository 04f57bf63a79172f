"""Per-layer spans recorded from outside bohrad.

The tracer replaces every module binding of each public bohrad function (the
package namespace and each submodule that imported it) with a wrapper, and
wraps the public methods of the public classes, among them
``CoefficientStream.at`` and ``HypergeomParams.term_ratio``.  Problems that
the radii layer returns get a wrapped ``evaluate``.  A span's layer is the
module that defines the function; its binding is the module whose namespace
the call went through, so ``weights.tail_value`` bound in ``functionals`` is a
call made from the functionals layer.

Spans are folded into per-binding totals as they close (calls, self time,
total time) and into one record per op, all in memory; ``report`` returns
them for the JSON trace file.  Self time is a span's duration minus the time
covered by its child spans.  Names the metrics read that no longer exist are
reported as absent, and their metrics read 0.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "radii", "functionals", "weights", "specfun", "series", "extremal")

# the functions the per-layer metrics are read from
REQUIRED = (
    ("cli", "main"),
    ("radii", "solve_radius"),
    ("radii", "BohrProblem.evaluate"),
    ("functionals", "refined_functional"),
    ("weights", "tail_value"),
    ("weights", "weight_at"),
    ("specfun", "lerch_phi"),
    ("specfun", "HypergeomParams.term_ratio"),
    ("series", "CoefficientStream.at"),
    ("extremal", "mobius_extremal"),
    ("extremal", "subordination_extremal"),
)

USER = "user"  # the benchmark's own weight rules, passed into bohrad


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack = [0]  # child time (ns) accumulated by each open span
        self.stats = {}  # (layer, name, binding) -> [calls, self_ns, total_ns]
        self.iterations = 0  # sum of RadiusResult.iterations out of solve_radius
        self.ops = []
        self._restore = []
        self._problem_cls = None

    # --- installing wrappers ------------------------------------------

    def _wrap(self, fn, layer: str, name: str, binding: str, post=None):
        stat = self.stats.setdefault((layer, name, binding), [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur - child
                stat[2] += dur
            return result if post is None else post(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_radii(self, name: str):
        if name == "solve_radius":

            def post(result):
                self.iterations += result.iterations
                return result

            return post

        def post(result):
            if self._problem_cls is not None and isinstance(result, self._problem_cls):
                evaluate = self._wrap(result.evaluate, "radii", "BohrProblem.evaluate", "problem")
                return dataclasses.replace(result, evaluate=evaluate)
            return result

        return post

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: getattr(self.package, layer, None) for layer in LAYERS}
        radii = modules["radii"]
        self._problem_cls = getattr(radii, "BohrProblem", None)
        if self._problem_cls is not None:
            self.stats.setdefault(("radii", "BohrProblem.evaluate", "problem"), [0, 0, 0])
        originals = {}  # id(function) -> (layer, name)
        for layer, module in modules.items():
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (layer, name)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        bindings = {"bohrad": self.package, **{k: v for k, v in modules.items() if v is not None}}
        for binding, module in bindings.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or id(obj) not in originals or not inspect.isfunction(obj):
                    continue
                layer, fname = originals[id(obj)]
                post = self._post_radii(fname) if layer == "radii" else None
                self._set(module, name, self._wrap(obj, layer, fname, binding, post))

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, layer, qualname, layer))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, layer, qualname, layer)
            else:
                continue
            self._set(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def user(self, name: str, fn):
        """Wrap a benchmark-supplied rule so its calls and time are its own."""
        return self._wrap(fn, USER, name, "bench")

    # --- running ops ---------------------------------------------------

    def _layer_self_ns(self) -> dict:
        totals = defaultdict(int)
        for (layer, _, _), (_, self_ns, _) in self.stats.items():
            totals[layer] += self_ns
        return totals

    def run_op(self, index: int, op):
        """Run one op as a root span; returns the op's output (or raises)."""
        before = self._layer_self_ns()
        self.stack[:] = [0]
        t0 = time.perf_counter_ns()
        try:
            return op.run()
        finally:
            dur = time.perf_counter_ns() - t0
            after = self._layer_self_ns()
            self.ops.append(
                {
                    "index": index,
                    "class": op.cls,
                    "label": op.label,
                    "ms": dur / 1e6,
                    "bench_self_ms": (dur - self.stack[0]) / 1e6,
                    "self_ms": {k: (after[k] - before.get(k, 0)) / 1e6 for k in after if after[k] != before.get(k, 0)},
                }
            )

    # --- reading the results --------------------------------------------

    def calls(self, layer: str, name: str, binding: str | None = None) -> int:
        return sum(
            s[0] for (l, n, b), s in self.stats.items() if l == layer and n == name and (binding is None or b == binding)
        )

    def absent(self) -> list[str]:
        present = {(l, n) for (l, n, _) in self.stats}
        return [f"{l}.{n}" for l, n in REQUIRED if (l, n) not in present]

    def layer_self_ms(self) -> dict:
        totals = self._layer_self_ns()
        return {layer: totals.get(layer, 0) / 1e6 for layer in (*LAYERS, USER)}

    def report(self) -> dict:
        return {
            "layers_self_ms": self.layer_self_ms(),
            "absent": self.absent(),
            "functions": [
                {"layer": l, "name": n, "binding": b, "calls": s[0], "self_ms": s[1] / 1e6, "total_ms": s[2] / 1e6}
                for (l, n, b), s in sorted(self.stats.items())
                if s[0]
            ],
            "ops": self.ops,
        }


def layer_metrics(tracer: Tracer, custom_iterations: int) -> dict:
    """The per-layer metrics of one traced round; see BENCHMARK.json."""
    self_ms = tracer.layer_self_ms()
    gap_evals = tracer.calls(USER, "log_tail")
    return {
        "cli.self_ms": self_ms["cli"],
        "radii.self_ms": self_ms["radii"],
        "radii.gap_evals": gap_evals,
        "radii.bisect_iterations": tracer.iterations,
        "radii.useful_share": custom_iterations / gap_evals if gap_evals else 0.0,
        "radii.evaluate_calls": tracer.calls("radii", "BohrProblem.evaluate"),
        "functionals.self_ms": self_ms["functionals"],
        "functionals.weight_reads": tracer.calls("weights", "weight_at", "functionals"),
        "functionals.tail_calls": tracer.calls("weights", "tail_value", "functionals"),
        "weights.self_ms": self_ms["weights"],
        "weights.tail_calls": tracer.calls("weights", "tail_value"),
        "weights.rule_calls": tracer.calls(USER, "log_rule"),
        "specfun.self_ms": self_ms["specfun"],
        "specfun.lerch_phi_calls": tracer.calls("specfun", "lerch_phi"),
        "specfun.term_ratio_calls": tracer.calls("specfun", "HypergeomParams.term_ratio"),
        "series.self_ms": self_ms["series"],
        "series.coef_reads": tracer.calls("series", "CoefficientStream.at"),
        "extremal.streams_built": tracer.calls("extremal", "mobius_extremal")
        + tracer.calls("extremal", "subordination_extremal"),
    }
