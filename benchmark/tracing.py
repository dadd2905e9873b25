"""Spans around kccdyn's public functions, installed from outside the package.

Every public function of the layer modules is replaced by a timing wrapper
at every place it is bound by name: `from .odesys import eval_field` makes
`stability.eval_field` and `cli.eval_field` separate bindings of one
function, and each of them is patched. Three methods carry the hot paths and
are wrapped on their classes. Spans nest: a span's self time is its
duration minus the time of the spans it called, so the self times of one op
sum to the op's wall time.

The wrappers are installed for traced ops only; untraced ops run the
unmodified package.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# (module, class, method) -> span name
METHODS = {
    ("kccdyn.exprdsl", "Expression", "with_derivatives"): "exprdsl.with_derivatives",
    ("kccdyn.kcc", "Sode", "motion_terms"): "kcc.motion_terms",
    ("kccdyn.deviation", "DeviationRun", "to_csv"): "deviation.to_csv",
}
ROOT = "cli"  # the op itself: kccdyn.cli.main
SEARCH = "stability.find_fixed_points"


class Stat:
    __slots__ = ("calls", "s", "self_s", "fail")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.fail = 0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.s += other.s
        self.self_s += other.self_s
        self.fail += other.fail


class Tracer:
    """Per-span statistics plus counters taken at span boundaries."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: Counter = Counter()
        self._child_time: list[float] = []
        self._search_depth = 0

    def merge(self, other: "Tracer") -> None:
        for name, stat in other.stats.items():
            self.stats[name].add(stat)
        self.counts.update(other.counts)

    def call(self, name: str, fn, args, kwargs):
        stat = self.stats[name]
        if self._search_depth and name in ("odesys.jacobian", "odesys.eval_field"):
            self.counts["stability.newton_iterations" if name == "odesys.jacobian"
                        else "stability.residual_evals"] += 1
        if name == SEARCH:
            self._search_depth += 1
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat.fail += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            stat.calls += 1
            stat.s += elapsed
            stat.self_s += elapsed - children
            if self._child_time:
                self._child_time[-1] += elapsed
            if name == SEARCH:
                self._search_depth -= 1
        if name == SEARCH:
            self._count_search(fn, args, kwargs, result)
        elif name == "deviation.to_csv":
            target = inspect.signature(fn).bind(*args, **kwargs).arguments["target"]
            if isinstance(target, (str, os.PathLike)):
                self.counts["deviation.to_csv.bytes"] += os.path.getsize(target)
        return result

    def _count_search(self, fn, args, kwargs, result) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        seeds, box, grid = (bound.arguments[k] for k in ("seeds", "box", "grid"))
        count = (len(seeds) if seeds is not None else 0) + (grid ** len(box) if box else 0)
        self.counts["stability.seeds"] += count
        self.counts["stability.seed_failures"] += len(result.failures)
        self.counts["stability.converged"] += count - len(result.failures)
        self.counts["stability.distinct"] += len(result.points)


def _kccdyn_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "kccdyn" or name.startswith("kccdyn.")]


def _span_name(fn) -> str | None:
    """Public functions of every module except the CLI, whose own work
    (argument parsing, report formatting) is the root span's self time."""
    module = getattr(fn, "__module__", "") or ""
    if not (inspect.isfunction(fn) and module.startswith("kccdyn.")):
        return None
    if fn.__name__.startswith("_"):
        return None
    if module == "kccdyn.cli" and fn.__name__ != "load_definition":
        return None
    return f"{module.rsplit('.', 1)[-1]}.{fn.__name__}"


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


class Installation:
    """Patches every binding; `restore` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self._saved: list[tuple[object, str, object]] = []
        self.originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for module in _kccdyn_modules():
            for attr, value in list(vars(module).items()):
                name = _span_name(value)
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = _wrapper(tracer, name, value)
                    self.originals[id(value)] = value
                self._patch(module, attr, wrappers[id(value)])
        for (module_name, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            method = vars(cls).get(attr) if cls is not None else None
            if method is not None:
                self.originals[id(method)] = method
                self._patch(cls, attr, _wrapper(tracer, name, method))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uncovered(self) -> list[str]:
        """Bindings of a wrapped function that still hold the original, in any
        module or class namespace of the package."""
        missed = []
        for module in _kccdyn_modules():
            namespaces = [(module.__name__, vars(module))] + [
                (f"{module.__name__}.{k}", vars(v)) for k, v in vars(module).items()
                if inspect.isclass(v) and v.__module__ == module.__name__]
            for owner, namespace in namespaces:
                missed += [f"{owner}.{attr}" for attr, value in namespace.items()
                           if id(value) in self.originals and value is self.originals[id(value)]]
        return missed

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
