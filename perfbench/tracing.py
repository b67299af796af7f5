"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the six layer modules,
at every module attribute that names it (``thermometry.montecarlo.mle_temperature``
as well as ``thermometry.estimation.mle_temperature``), with one wrapper that
records a span: the function, its start and end, and the span open when it
started. Spans stay in flat arrays in memory until ``layer_metrics`` reduces
them and ``save`` writes them out. A few wrappers also read the returned
value: estimator statuses, exclusions, minimizer iterations, posterior means.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("thermal", "fisher", "bounds", "estimation", "montecarlo", "cli")
STATUSES = ("interior", "at_lower_bound", "at_upper_bound", "non_invertible")
MLE = "estimation.mle_temperature"
GIBBS = "thermal.gibbs_state"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter(
            {f"estimation.status.{s}": 0 for s in STATUSES}
            | {f"bounds.{f}.iterations": 0 for f in (
                "minimize_two_level_factor", "minimize_three_level_factor")}
            | {"montecarlo.excluded": 0, "montecarlo.used": 0, "posterior_outside_prior": 0})
        self._hooks = {
            MLE: self._on_mle,
            "estimation.bayes_posterior": self._on_posterior,
            "montecarlo.run_experiment": self._on_experiment,
            "bounds.minimize_two_level_factor": self._on_minimum,
            "bounds.minimize_three_level_factor": self._on_minimum,
        }

    def install(self) -> None:
        modules = [importlib.import_module("thermometry")]
        modules += [importlib.import_module(f"thermometry.{name}") for name in LAYERS]
        wrappers = {}
        for layer in modules[1:]:
            short = layer.__name__.rsplit(".", 1)[1]
            for attr in layer.__all__:
                fn = getattr(layer, attr)
                if inspect.isfunction(fn) and fn.__module__ == layer.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, key: str):
        fid = len(self.names)
        self.names.append(key)
        hook = self._hooks.get(key)
        fns, parents, starts, ends, open_ = self.fn, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fns.append(fid)
            parents.append(open_[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                open_.pop()
            if hook is not None:
                hook(key, args, kwargs, result)
            return result

        return wrapper

    def _on_mle(self, key, args, kwargs, result):
        self.counts[f"estimation.status.{result.status}"] += 1

    def _on_posterior(self, key, args, kwargs, result):
        lo, hi = args[1] if len(args) > 1 else kwargs["prior"]
        if not lo <= result.mean <= hi:
            self.counts["posterior_outside_prior"] += 1

    def _on_experiment(self, key, args, kwargs, result):
        self.counts["montecarlo.excluded"] += result.excluded_trials
        self.counts["montecarlo.used"] += result.trials_used

    def _on_minimum(self, key, args, kwargs, result):
        self.counts[f"{key}.iterations"] += result.iterations

    def _arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return fn, parent, start, end

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self time of every wrapped function, plus the hook counts.

        Self time is a span's duration minus the durations of its direct
        children; calls made inside ``mle_temperature`` are found by
        following parent links.
        """
        fn, parent, start, end = self._arrays()
        n_fn = len(self.names)
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = np.bincount(fn, weights=dur - children, minlength=n_fn)
        calls = np.bincount(fn, minlength=n_fn)

        mle = self.names.index(MLE)
        in_mle = np.zeros(len(fn), dtype=bool)
        while True:  # parents precede children, so depth-many sweeps suffice
            updated = in_mle.copy()
            updated[nested] = (fn[parent[nested]] == mle) | in_mle[parent[nested]]
            if np.array_equal(updated, in_mle):
                break
            in_mle = updated
        gibbs_in_mle = int(np.count_nonzero(in_mle & (fn == self.names.index(GIBBS))))

        metrics = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls"] = calls[i] / passes
            metrics[f"{name}.self_s"] = self_time[i] / passes
        for name, value in self.counts.items():
            metrics[name] = value / passes
        mle_calls = int(calls[mle])
        metrics["estimation.gibbs_per_mle"] = gibbs_in_mle / mle_calls if mle_calls else 0.0
        statuses = sum(self.counts[f"estimation.status.{s}"] for s in STATUSES)
        metrics["estimation.interior_frac"] = (
            self.counts["estimation.status.interior"] / statuses if statuses else 0.0)
        trials = self.counts["montecarlo.excluded"] + self.counts["montecarlo.used"]
        metrics["montecarlo.trials"] = trials / passes
        metrics["montecarlo.excluded_frac"] = (
            self.counts["montecarlo.excluded"] / trials if trials else 0.0)
        return metrics

    def save(self, path) -> None:
        fn, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), fn=fn, parent=parent,
                            start=start, end=end)
