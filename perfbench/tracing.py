"""Per-layer tracing of decoupling-lab from outside the package.

The benchmark's traced run replays the workload's job list in one process
through ``decoupling_lab.cli.main``.  While a :class:`Tracer` is installed,
the public functions of every layer are replaced by wrappers that open a span
at each call.  A span's self time is its duration minus the time of the
spans nested in it; counts (outcomes enumerated, vectors normed, paths
simulated, ...) are taken at the same boundaries.  ``uninstall`` puts the
original functions back, so the untraced passes and the correctness gate run
the program exactly as shipped.

Wrappers replace every name bound to the original object, including the
names other modules import directly (``constants.g_terminal_moment``,
``cli.stream``, ...), so no call path escapes the trace.
"""

from __future__ import annotations

import functools
import importlib
import math
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "reports", "rng", "spaces", "probmodel", "inequalities",
           "constants", "stochint")

# (module, attribute path, metric key).  The key is "<module>.<name>"; the
# self time of all spans with one key adds up into "<key>.s".
SPANS = (
    ("cli", "_cmd_verify", "cli.verify"),
    ("cli", "_verify_one", "cli.verify"),
    ("cli", "_cmd_estimate", "cli.estimate"),
    ("cli", "_cmd_atlas", "cli.atlas"),
    ("cli", "_atlas_cell", "cli.atlas"),
    ("cli", "_cmd_bdg", "cli.bdg"),
    ("cli", "_cmd_bounds", "cli.bounds"),
    ("reports", "pmap", "reports.pmap"),
    ("reports", "canonical_json", "reports.canonical_json"),
    ("rng", "stream", "rng.stream"),
    ("spaces", "Space.norms", "spaces.Space.norms"),
    ("probmodel", "g_terminal_moment", "probmodel.g_terminal_moment"),
    ("probmodel", "verify_tangency", "probmodel.verify_tangency"),
    ("probmodel", "verify_conditional_independence",
     "probmodel.verify_conditional_independence"),
    ("probmodel", "AdaptedSequence.from_multipliers", "probmodel.from_multipliers"),
    ("probmodel", "random_pair", "probmodel.random_pair"),
    ("inequalities", "check_levy", "inequalities.check_levy"),
    ("inequalities", "check_contraction", "inequalities.check_contraction"),
    ("inequalities", "check_reverse_kolmogorov", "inequalities.check_reverse_kolmogorov"),
    ("inequalities", "check_symsum", "inequalities.check_symsum"),
    ("inequalities", "check_tail_comparison", "inequalities.check_tail_comparison"),
    ("inequalities", "check_goodlambda", "inequalities.check_goodlambda"),
    ("inequalities", "check_davis_pathwise", "inequalities.check_davis_pathwise"),
    ("inequalities", "check_extrapolation", "inequalities.check_extrapolation"),
    ("inequalities", "ProductModel.to_sequence", "inequalities.ProductModel.to_sequence"),
    ("inequalities", "bmo_condition", "inequalities.bmo_condition"),
    ("inequalities", "window_conditional_norm", "inequalities.window_conditional_norm"),
    ("inequalities", "moment_phi", "inequalities.moment_phi"),
    ("constants", "search_worst_case", "constants.search_worst_case"),
    ("constants", "ratio", "constants.ratio"),
    ("stochint", "simulate", "stochint.simulate"),
    ("stochint", "integrate", "stochint.integrate"),
    ("stochint", "gamma_norm", "stochint.gamma_norm"),
    ("stochint", "StepProcess.coefficients", "stochint.StepProcess.coefficients"),
)

# Spans whose inclusive time is reported as a share of the traced pass.
INCLUSIVE_SHARES = ("probmodel.g_terminal_moment", "stochint.gamma_norm")


def _prod(shape) -> int:
    return math.prod(int(s) for s in shape)


class Tracer:
    """Aggregates spans and counters for one traced pass."""

    def __init__(self):
        self.job = ""
        self._stack: list[list[float]] = []   # per open span: [nested seconds]
        self._open: Counter = Counter()       # open spans per key
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.job_self_s: defaultdict = defaultdict(lambda: defaultdict(float))
        self.job_incl_s: defaultdict = defaultdict(lambda: defaultdict(float))
        self.peak_traced_bytes = 0
        self._simulations: set = set()
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, key: str):
        self._stack.append([0.0])
        self._open[key] += 1
        return perf_counter()

    def _exit(self, key: str, t0: float):
        dt = perf_counter() - t0
        nested = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dt
        self.calls[key] += 1
        self.self_s[key] += dt - nested
        self.job_self_s[self.job][key] += dt - nested
        self._open[key] -= 1
        if not self._open[key]:  # outermost span of this key
            self.incl_s[key] += dt
            self.job_incl_s[self.job][key] += dt

    def span(self, key: str, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            t0 = self._enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key, t0)
        return wrapper

    # -- counters taken at call boundaries -----------------------------------

    def _count_norms(self, space, arr, *_, **__):
        shape = getattr(arr, "shape", None)
        vectors = _prod(shape[:-1]) if shape else 1
        self.counts["norm_vectors"] += vectors
        if self._open["probmodel.g_terminal_moment"]:
            self.counts["norm_vectors_in_joint"] += vectors

    def _count_joint(self, pair, *_, **__):
        tree = pair.tree
        outcomes = tree.path_count ** 2
        self.counts["joint_outcomes"] += outcomes
        # the g-side depends on omega~ only through its depth-(N-1) prefix
        self.counts["joint_useful"] += outcomes / tree.sizes[-1]

    def _count_ratio(self, *_, **__):
        if self._open["constants.search_worst_case"]:
            self.counts["search_evaluations"] += 1

    def _count_to_sequence(self, model, *_, **__):
        self.counts["product_outcomes"] += model.outcome_count

    def _count_simulate(self, proc, driver, space, paths, seed=0, inner=None):
        self.counts["paths_simulated"] += paths
        self._simulations.add((proc.name, proc.partition, proc.rank, proc.x_dim,
                               driver, space, paths, seed, inner))
        self.counts["distinct_simulations"] = len(self._simulations)

    def _count_integrate(self, proc, driver, dW, *_, **__):
        self.counts["chunks_simulated"] += 1

    def _count_gamma(self, proc, driver, dW, space, inner=1024, seed=0, exact=None):
        if not exact:
            self.counts["gamma_inner_draws"] += inner * dW.shape[0]

    def _traced_simulate(self, fn):
        """simulate with its tracemalloc peak recorded."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.peak_traced_bytes = max(self.peak_traced_bytes, peak)
                if started:
                    tracemalloc.stop()
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Replace every layer function by its traced wrapper."""
        mods = {name: importlib.import_module(f"decoupling_lab.{name}") for name in MODULES}
        before = {
            "spaces.Space.norms": self._count_norms,
            "probmodel.g_terminal_moment": self._count_joint,
            "constants.ratio": self._count_ratio,
            "inequalities.ProductModel.to_sequence": self._count_to_sequence,
            "stochint.simulate": self._count_simulate,
            "stochint.integrate": self._count_integrate,
            "stochint.gamma_norm": self._count_gamma,
        }
        for module, attr, key in SPANS:
            owner, name = mods[module], attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mods[module], cls_name)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(key, raw.__func__, before.get(key)))
                self._patch(owner, name, raw, wrapped)
                continue
            wrapped = self.span(key, raw, before.get(key))
            if key == "stochint.simulate":
                wrapped = self._traced_simulate(wrapped)
            if owner is mods[module]:
                # rebind the name wherever a module imported it directly
                for mod in mods.values():
                    for alias, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, alias, raw, wrapped)
            else:
                self._patch(owner, name, raw, wrapped)
        space_cls = mods["spaces"].Space
        dim = space_cls.__dict__["dim"]

        def counted_dim(space):
            self.calls["spaces.Space.dim"] += 1
            return dim.fget(space)

        self._patch(space_cls, "dim", dim, property(counted_dim))

    def _patch(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of one traced pass that took ``wall`` seconds."""
        out = {}
        for _, _, key in SPANS:
            out[f"{key}.s"] = self.self_s[key]
        for key in ("spaces.Space.norms", "probmodel.g_terminal_moment",
                    "inequalities.ProductModel.to_sequence", "constants.ratio",
                    "stochint.simulate", "stochint.StepProcess.coefficients",
                    "rng.stream", "spaces.Space.dim"):
            out[f"{key}.calls"] = self.calls[key]
        c = self.counts
        gtm_incl = self.incl_s["probmodel.g_terminal_moment"]
        sim_incl = self.incl_s["stochint.simulate"]
        search_incl = self.incl_s["constants.search_worst_case"]
        out.update({
            "spaces.norm_vectors": c["norm_vectors"],
            "probmodel.joint_outcomes": c["joint_outcomes"],
            "probmodel.joint_outcomes_per_s": c["joint_outcomes"] / gtm_incl if gtm_incl else 0.0,
            "probmodel.norms_per_joint_outcome": (
                c["norm_vectors_in_joint"] / c["joint_outcomes"] if c["joint_outcomes"] else 0.0),
            "probmodel.joint_useful_frac": (
                c["joint_useful"] / c["joint_outcomes"] if c["joint_outcomes"] else 0.0),
            "inequalities.product_outcomes": c["product_outcomes"],
            "constants.evals_per_s": c["search_evaluations"] / search_incl if search_incl else 0.0,
            "stochint.paths_simulated": c["paths_simulated"],
            "stochint.paths_per_s": c["paths_simulated"] / sim_incl if sim_incl else 0.0,
            "stochint.gamma_inner_draws": c["gamma_inner_draws"],
            "stochint.peak_traced_mib": self.peak_traced_bytes / 2**20,
            "stochint.simulate_useful_frac": (
                c["distinct_simulations"] / self.calls["stochint.simulate"]
                if self.calls["stochint.simulate"] else 0.0),
            "stochint.coefficients_per_chunk": (
                self.calls["stochint.StepProcess.coefficients"] / c["chunks_simulated"]
                if c["chunks_simulated"] else 0.0),
        })
        out.update(shares(self.self_s, self.incl_s, wall))
        return out

    def job_table(self, walls: dict) -> dict:
        """Per job: its wall time, its shares and its largest self times."""
        return {
            job: {
                "wall_s": walls[job],
                "shares": shares(selfs, self.job_incl_s[job], walls[job]),
                "top_self_s": dict(sorted(selfs.items(), key=lambda kv: -kv[1])[:6]),
            }
            for job, selfs in self.job_self_s.items()
        }


def shares(self_s: dict, incl_s: dict, wall: float) -> dict:
    """Self time per module as a share of ``wall`` (``untraced`` is the rest,
    outside every span), and the inclusive share of the INCLUSIVE_SHARES."""
    out = {f"share.{m}": 0.0 for m in MODULES}
    for key, seconds in self_s.items():
        out[f"share.{key.split('.')[0]}"] += seconds / wall
    out["share.untraced"] = 1.0 - sum(out.values())
    for key in INCLUSIVE_SHARES:
        out[f"share.{key}"] = incl_s.get(key, 0.0) / wall
    return out
