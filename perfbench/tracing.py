"""In-memory span recorder that wraps the library's public functions.

Spans are recorded from outside the library: `traced(lib, recorder)` swaps
each traced function for a wrapper in every module namespace of the package
that binds it (``eigh`` is imported by name into five modules, the verify
suites are also held in ``verify.SUITES``), wraps ``cli.main`` in a span per
command, and restores the originals on exit. A span records its name, start,
end and the span that was open when it began. Counters are taken at the same
boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict


class SpanRecorder:
    """Spans as (name, start, end, parent index), kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(counters, args, kwargs) and after(counters, result) count work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.counters, args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counters, result)
            return result

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms, self ms and each call's duration in ms.

        Self time is a span's duration minus the time its child spans cover;
        spans nest on one thread, so the children of a span never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations_ms": []})
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += 1e3 * (end - start)
            entry["self_ms"] += 1e3 * (end - start - children)
            entry["durations_ms"].append(1e3 * (end - start))
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )


def _count_client_steps(counters, args, kwargs):
    pop, cfg = args[0], args[2]
    participants = pop.n_clients if cfg.mode == "deterministic" else cfg.clients_per_round
    counters["engine.client_steps"] += participants * cfg.theta.size


def _count_frontier(counters, frontier):
    counters["frontier.points"] += len(frontier.points)
    counters["frontier.skipped"] += len(frontier.skipped)
    counters["frontier.grid_points"] += int(frontier.spec.grid.size)


def _count_instances(suite):
    def after(counters, result):
        counters[f"verify.{suite}.instances"] += int(result.instances)

    return after


# (module, attribute, span name, before hook, after hook)
TRACED_FUNCTIONS = (
    ("matrices", "eigh", "matrices.eigh", None, None),
    ("quadratics", "distortion_matrix", "quadratics.distortion_matrix", None, None),
    ("quadratics", "surrogate_hessian", "quadratics.surrogate_hessian", None, None),
    ("quadratics", "surrogate_minimizer", "quadratics.surrogate_minimizer", None, None),
    ("quadratics", "empirical_minimizer", "quadratics.empirical_minimizer", None, None),
    ("quadratics", "load_population", "quadratics.load_population", None, None),
    ("bounds", "kappa_exact", "bounds.kappa_exact", None, None),
    ("bounds", "distance_bound", "bounds.distance_bound", None, None),
    ("bounds", "scheme_q_eigenvalues", "bounds.scheme_q_eigenvalues", None, None),
    ("bounds", "mad", "bounds.mad", None, None),
    ("bounds", "matrix_weighted_discrepancy", "bounds.matrix_weighted_discrepancy", None, None),
    ("engine", "server_round", "engine.server_round", _count_client_steps, None),
    ("engine", "run", "engine.run", None, None),
    ("engine", "auto_tune_for", "engine.auto_tune_for", None, None),
    ("engine", "export_trajectory_csv", "engine.export_trajectory_csv", None, None),
    ("frontier", "sweep", "frontier.sweep", None, _count_frontier),
    ("frontier", "simulated_maml_sweep", "frontier.simulated_maml_sweep", None, _count_frontier),
)


def _cli_main(recorder: SpanRecorder, main):
    """cli.main in a `cli.<command>` span that also counts the bytes written to --out."""

    @functools.wraps(main)
    def wrapper(argv):
        command = argv[0]
        with recorder.span(f"cli.{command}"):
            code = main(argv)
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
            if os.path.exists(out):
                recorder.counters[f"cli.{command}.out_bytes"] += os.path.getsize(out)
        return code

    return wrapper


@contextlib.contextmanager
def traced(lib, recorder: SpanRecorder):
    """Patch every namespace of package `lib` that binds a traced function."""
    modules = [m for name, m in sys.modules.items() if name == lib.__name__ or name.startswith(lib.__name__ + ".")]
    restore: list[tuple] = []  # (module, class or dict; attribute or key; original)

    def replace(target, attr, wrapper):
        if isinstance(target, dict):
            restore.append((target, attr, target[attr]))
            target[attr] = wrapper
        else:
            restore.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def patch(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replace(module, attr, wrapper)

    def submodule(name):
        return sys.modules[f"{lib.__name__}.{name}"]

    try:
        for module_name, attr, name, before, after in TRACED_FUNCTIONS:
            original = getattr(submodule(module_name), attr)
            patch(original, recorder.wrap(name, original, before, after))
        population = submodule("quadratics").Population
        replace(population, "__post_init__", recorder.wrap("quadratics.Population", population.__post_init__))
        suites = submodule("verify").SUITES
        for suite, fn in list(suites.items()):
            wrapper = recorder.wrap(f"verify.{suite}", fn, after=_count_instances(suite))
            patch(fn, wrapper)
            replace(suites, suite, wrapper)
        replace(submodule("cli"), "main", _cli_main(recorder, submodule("cli").main))
        yield recorder
    finally:
        for target, attr, original in reversed(restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)


def tail_percentile(durations: list[float]) -> tuple[float, float]:
    """(level, value): the highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    level = 50.0
    for candidate in (90.0, 99.0, 99.9):
        if n * (1.0 - candidate / 100.0) >= 10.0:
            level = candidate
    index = min(n - 1, int(level / 100.0 * n))
    return level, ordered[index] if ordered else 0.0
