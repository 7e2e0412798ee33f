"""Per-layer timing by wrapping mixlab's public functions from outside.

Each wrapper is installed in every namespace where callers resolve the
name (``mixlab.lab.contraction_experiment``, ``mixlab.posterior.mcmc_run``,
each kernel class's ``log_density``, ``MixingMeasure.__post_init__`` and so
on) and removed again by ``uninstall``. A wrapper records calls, inclusive
time and self time (inclusive minus the wrapped calls beneath it on the
same thread or on worker threads it waits for) plus work counts read off
its arguments or result. Monte Carlo chunks and contraction chains run on
worker threads, so inclusive times of functions called there add up across
threads and can exceed the wall time.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

KERNEL_METHODS = ("log_density", "sample", "grad_density")


def _steps(args, kwargs):
    config = kwargs.get("config", args[4] if len(args) > 4 else None)
    return {"steps": int(config.steps)}


def _draws_of_chain(args, kwargs):
    chain = kwargs.get("chain", args[0] if args else None)
    return {"draws": len(chain.draws)}


def _dataset_values(args, kwargs):
    lengths = kwargs.get("lengths", args[2] if len(args) > 2 else ())
    return {"values": int(sum(int(n) for n in lengths))}


def _points(args, kwargs):
    return {"points": int(np.size(args[1]))}


def _sample_draws(args, kwargs):
    count = kwargs.get("count", args[2] if len(args) > 2 else 0)
    return {"draws": int(count)}


def _rows(args, kwargs):
    return {"rows": int(np.shape(args[1])[0])}


ESTIMATE_METHODS = {
    "exact-enumeration": "exact",
    "quadrature": "quadrature",
    "monte-carlo": "monte_carlo",
}


def _estimate_split(result, elapsed):
    """Per-rung counters of estimate_divergence, keyed by returned method."""
    rung = ESTIMATE_METHODS[result.method]
    out = {f"{rung}.calls": 1, f"{rung}.s": elapsed}
    if rung == "quadrature":
        out["quadrature.nodes"] = int(result.n)
    elif rung == "monte_carlo":
        out["monte_carlo.draws"] = int(result.n)
    return out


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Recorder:
    """Thread-safe aggregate of calls, times and counts per key.

    Each open call is a frame collecting the intervals of the wrapped calls
    beneath it; self time is its duration minus their union. A call that
    opens on a worker thread with nothing open there belongs to the frame
    the main thread has open, which in mixlab is the call that started the
    pool and waits for it.
    """

    def __init__(self):
        self.stats = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_frames = None
        self._patches = []

    def _frames(self):
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
            self._local.active = defaultdict(int)
            if threading.current_thread() is threading.main_thread():
                self._main_frames = frames
        return frames

    def _parent(self, frames):
        if frames:
            return frames[-1]
        main = self._main_frames
        if main and frames is not main:
            return main[-1]
        return None

    def wrap(self, key, fn, count=None, split=None):
        """Wrap ``fn`` so each call adds to the stats under ``key``.

        ``count(args, kwargs)`` returns work counters; ``split(result,
        elapsed)`` returns counters derived from the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self._frames()
            parent = self._parent(frames)
            active = self._local.active
            outermost = active[key] == 0
            active[key] += 1
            children = []
            frames.append(children)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                frames.pop()
                active[key] -= 1
                if parent is not None:
                    parent.append((start, end))
                elapsed = end - start
                extra = count(args, kwargs) if count else {}
                if split and result is not None:
                    extra.update(split(result, elapsed))
                self_time = elapsed - _covered(children)
                with self._lock:
                    stats = self.stats
                    stats[f"{key}.calls"] += 1
                    if outermost:
                        stats[f"{key}.s"] += elapsed
                    stats[f"{key}.self_s"] += self_time
                    for name, value in extra.items():
                        stats[f"{key}.{name}"] += value

        return wrapper

    def span(self, key, fn, *args, **kwargs):
        """Call ``fn`` once as a recorded span (for entry points the
        benchmark itself calls)."""
        return self.wrap(key, fn)(*args, **kwargs)

    def _replace_everywhere(self, original, replacement):
        """Rebind every ``mixlab.*`` module attribute that is ``original``."""
        for name, module in list(sys.modules.items()):
            if not (name == "mixlab" or name.startswith("mixlab.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the public functions of each mixlab layer."""
        import mixlab.cli  # noqa: F401  (loads every module below)
        from mixlab import identifiability, kernels, lab, measures, posterior, probes, products

        functions = [
            ("lab.parse_config", lab.parse_config, None, None),
            ("lab.run", lab.run, None, None),
            ("posterior.contraction_experiment", posterior.contraction_experiment, None, None),
            ("posterior.mcmc_run", posterior.mcmc_run, _steps, None),
            ("posterior.posterior_error_summary", posterior.posterior_error_summary, _draws_of_chain, None),
            ("posterior.prior_sample", posterior.prior_sample, None, None),
            ("measures.canonicalize", measures.canonicalize, None, None),
            ("kernels.divergence_numeric", kernels.divergence_numeric, None, None),
            ("products.estimate_divergence", products.estimate_divergence, None, _estimate_split),
            ("products.sample_dataset", products.sample_dataset, _dataset_values, None),
            ("products.hellinger_upper_bound", products.hellinger_upper_bound, None, None),
            ("products.tv_upper_bound", products.tv_upper_bound, None, None),
            ("probes.lecam_two_point_bound", probes.lecam_two_point_bound, None, None),
        ]
        for name in ("distance_DN", "distance_Dr1r2", "wasserstein",
                     "atom_and_weight_distances", "optimal_matching"):
            functions.append((f"measures.{name}", getattr(measures, name), None, None))
        for name in ("inverse_ratio_probe", "impact_probe_Dr",
                     "curvature_probe_locscale", "sqrtN_sharpness_probe"):
            functions.append((f"probes.{name}", getattr(probes, name), None, None))
        for name in ("first_order_gram", "degenerate_direction_check",
                     "bernoulli_first_order_system", "bernoulli_nonidentifiable_witness"):
            functions.append((f"identifiability.{name}", getattr(identifiability, name), None, None))
        for key, fn, count, split in functions:
            self._replace_everywhere(fn, self.wrap(key, fn, count, split))

        self._patch_attr(
            measures.MixingMeasure, "__post_init__",
            self.wrap("measures.MixingMeasure", measures.MixingMeasure.__post_init__),
        )
        self._patch_attr(
            products.ProductMixtureModel, "log_density_many",
            self.wrap("products.log_density_many",
                      products.ProductMixtureModel.log_density_many, _rows),
        )
        counters = {"log_density": _points, "sample": _sample_draws, "grad_density": None}
        for cls in vars(kernels).values():
            if isinstance(cls, type) and issubclass(cls, kernels.KernelFamily):
                for method in KERNEL_METHODS:
                    if method in cls.__dict__:
                        wrapped = self.wrap(f"kernels.{method}", cls.__dict__[method],
                                            counters[method])
                        self._patch_attr(cls, method, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        with self._lock:
            self.stats = defaultdict(float)


def _get(stats, key):
    return float(stats.get(key, 0.0))


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(stats, report_bytes, setup_split):
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    g = functools.partial(_get, stats)
    out = dict(setup_split)
    out["cli.main.calls"] = g("cli.main.calls")
    out["cli.main.self_s"] = g("cli.main.self_s")
    out["lab.parse_config.calls"] = g("lab.parse_config.calls")
    out["lab.parse_config.s"] = g("lab.parse_config.s")
    out["lab.run.calls"] = g("lab.run.calls")
    out["lab.run.self_s"] = g("lab.run.self_s")
    out["lab.report_bytes"] = float(report_bytes)

    out["posterior.contraction_experiment.calls"] = g("posterior.contraction_experiment.calls")
    out["posterior.contraction_experiment.self_s"] = g("posterior.contraction_experiment.self_s")
    for stat in ("calls", "s", "steps"):
        out[f"posterior.mcmc_run.{stat}"] = g(f"posterior.mcmc_run.{stat}")
    out["posterior.mcmc_run.steps_per_s"] = _rate(g("posterior.mcmc_run.steps"), g("posterior.mcmc_run.s"))
    for stat in ("calls", "s", "draws"):
        out[f"posterior.posterior_error_summary.{stat}"] = g(f"posterior.posterior_error_summary.{stat}")
    out["posterior.prior_sample.calls"] = g("posterior.prior_sample.calls")

    for name in ("MixingMeasure", "canonicalize", "distance_DN", "distance_Dr1r2",
                 "wasserstein", "atom_and_weight_distances", "optimal_matching"):
        out[f"measures.{name}.calls"] = g(f"measures.{name}.calls")
        out[f"measures.{name}.s"] = g(f"measures.{name}.s")

    for stat in ("calls", "points", "s"):
        out[f"kernels.log_density.{stat}"] = g(f"kernels.log_density.{stat}")
    for stat in ("calls", "draws", "s"):
        out[f"kernels.sample.{stat}"] = g(f"kernels.sample.{stat}")
    for name in ("grad_density", "divergence_numeric"):
        out[f"kernels.{name}.calls"] = g(f"kernels.{name}.calls")
        out[f"kernels.{name}.s"] = g(f"kernels.{name}.s")

    est = "products.estimate_divergence"
    out[f"{est}.calls"] = g(f"{est}.calls")
    out[f"{est}.s"] = g(f"{est}.s")
    out[f"{est}.exact.calls"] = g(f"{est}.exact.calls")
    for stat in ("calls", "s", "nodes"):
        out[f"{est}.quadrature.{stat}"] = g(f"{est}.quadrature.{stat}")
    out[f"{est}.quadrature.nodes_per_s"] = _rate(g(f"{est}.quadrature.nodes"), g(f"{est}.quadrature.s"))
    for stat in ("calls", "s", "draws"):
        out[f"{est}.monte_carlo.{stat}"] = g(f"{est}.monte_carlo.{stat}")
    out[f"{est}.monte_carlo.draws_per_s"] = _rate(g(f"{est}.monte_carlo.draws"), g(f"{est}.monte_carlo.s"))
    for stat in ("calls", "rows", "s"):
        out[f"products.log_density_many.{stat}"] = g(f"products.log_density_many.{stat}")
    out["products.log_density_many.rows_per_s"] = _rate(
        g("products.log_density_many.rows"), g("products.log_density_many.s"))
    for stat in ("calls", "s", "values"):
        out[f"products.sample_dataset.{stat}"] = g(f"products.sample_dataset.{stat}")
    for name in ("hellinger_upper_bound", "tv_upper_bound"):
        out[f"products.{name}.calls"] = g(f"products.{name}.calls")
        out[f"products.{name}.s"] = g(f"products.{name}.s")

    for name in ("inverse_ratio_probe", "impact_probe_Dr", "curvature_probe_locscale",
                 "sqrtN_sharpness_probe"):
        out[f"probes.{name}.calls"] = g(f"probes.{name}.calls")
        out[f"probes.{name}.self_s"] = g(f"probes.{name}.self_s")
    out["probes.lecam_two_point_bound.calls"] = g("probes.lecam_two_point_bound.calls")

    for name in ("first_order_gram", "degenerate_direction_check",
                 "bernoulli_first_order_system", "bernoulli_nonidentifiable_witness"):
        out[f"identifiability.{name}.calls"] = g(f"identifiability.{name}.calls")
        out[f"identifiability.{name}.s"] = g(f"identifiability.{name}.s")
    return out


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "lab.report_bytes":
        return "bytes"
    return "count"


SETUP_KEYS = ("setup.numpy_s", "setup.scipy_s", "setup.click_s", "setup.mixlab_self_s")
LAYER_UNITS = {
    name: _unit(name) for name in layer_metrics({}, 0, dict.fromkeys(SETUP_KEYS, 0.0))
}
