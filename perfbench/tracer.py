"""Per-layer tracing of formlab, by wrapping its layer boundaries from outside.

Each boundary is a function or method of one formlab module (or a scipy
routine formlab calls through its module attribute).  Installing the tracer
replaces it in every formlab namespace that holds it, so a name imported with
`from .x import f` is wrapped too.  A boundary that no longer exists is listed
as absent and its metrics read 0.

Spans (name, start, end, parent) are kept in memory and written when the run
ends.  The three per-call hot spots (`Driver.value_at`, `Driver.scalar`,
`Chain.draw_next`, each called up to millions of times) are folded: they add
to their layer's counts and self time but keep no span of their own.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

MB = float(1 << 20)


def _after_gs(tr, args, kwargs, result, dur):
    tr.counts["elliptic.gs_sweeps"] += _diag(result, "sweeps")


def _after_mc(tr, args, kwargs, result, dur):
    tr.counts["elliptic.mc_paths"] += _diag(result, "n_paths")
    tr.counts["elliptic.mc_wall"] += dur
    tr.counts["elliptic.picard_iters"] += _diag(result, "picard_iters")


def _after_finite_horizon(tr, args, kwargs, result, dur):
    tr.counts["bsde.levels"] += 1
    tr.counts["bsde.steps"] += _diag(result, "steps")
    tr.counts["bsde.newton_iters"] += _diag(result, "inner_iterations")


def _after_draw(tr, args, kwargs, result, dur):
    tr.counts["markov.lockstep_iters"] += 1
    tr.counts["markov.jumps"] += len(args[1])


def _after_write(tr, args, kwargs, result, dur):
    csv_path = str(result)
    sidecar = os.path.splitext(csv_path)[0] + ".json"
    for path in (csv_path, sidecar):
        if os.path.exists(path):
            tr.counts["reports.bytes"] += os.path.getsize(path)


def _diag(result, key):
    return getattr(result, "diagnostics", {}).get(key, 0)


def _driver_key(args, kwargs):
    return "drivers.yosida" if args[0].family == "yosida" else "drivers.value"


def _cli_key(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli.verify" if argv and argv[0] == "verify" else "cli.other"


# (module, attribute, layer key or key function, call counter, options)
BOUNDARIES = [
    ("formlab.catalog", "build_catalog_problem", "catalog.build", None, {}),
    ("formlab.catalog", "load_problem", "catalog.build", None, {}),
    ("scipy.linalg", "cho_factor", "forms.factor", "forms.factor_calls", {}),
    ("scipy.sparse.linalg", "splu", "forms.factor", "forms.factor_calls", {}),
    ("scipy.sparse.linalg", "factorized", "forms.factor", "forms.factor_calls", {}),
    ("formlab.forms", "DirichletForm.cholesky", "forms.factor", None, {}),
    ("formlab.forms", "DirichletForm.solve", "forms.solve", "forms.solve_calls", {}),
    ("formlab.forms", "DirichletForm.energy", "forms.energy", "forms.energy_calls", {}),
    ("formlab.drivers", "Driver.value_at", _driver_key, "drivers.value_calls",
     {"hot": True}),
    ("formlab.drivers", "Driver.scalar", "drivers.value", "drivers.scalar_calls",
     {"hot": True}),
    ("formlab.drivers", "yosida_regularize", "drivers.regularize", None, {}),
    ("formlab.elliptic", "solve_elliptic_gauss_seidel", "elliptic.gs", None,
     {"after": _after_gs}),
    ("formlab.elliptic", "solve_elliptic_mc", "elliptic.mc", None,
     {"after": _after_mc, "alloc": "elliptic.mc_peak_alloc_mb"}),
    ("formlab.elliptic", "weak_form_check", "elliptic.checks", None, {}),
    ("formlab.elliptic", "duality_check", "elliptic.checks", None, {}),
    ("formlab.elliptic", "l1_bound_check", "elliptic.checks", None, {}),
    ("formlab.elliptic", "truncation_report", "elliptic.checks", None, {}),
    ("formlab.elliptic", "green_bound_check", "elliptic.checks", None, {}),
    ("formlab.bsde", "solve_random_horizon_ladder", "bsde.ladder", None,
     {"alloc": "bsde.ladder_peak_alloc_mb"}),
    ("formlab.bsde", "solve_finite_horizon", "bsde.ladder", None,
     {"after": _after_finite_horizon}),
    ("formlab.bsde", "martingale_residual_check", "bsde.martingale", None, {}),
    ("formlab.markov", "build_chain", "markov.chain", None, {}),
    ("scipy.linalg", "eigvalsh", "markov.gap", "markov.gap_calls", {}),
    ("formlab.markov", "Chain.generator_gap", "markov.gap", None, {}),
    ("formlab.markov", "Chain.draw_next", "markov.draw", None,
     {"hot": True, "after": _after_draw}),
    ("formlab.markov", "revuz_check", "markov.revuz", None, {}),
    ("formlab.cli", "main", _cli_key, None, {}),
    ("formlab.reports", "Report.write", "reports.write", None,
     {"after": _after_write}),
]

# Reported per-layer metrics: name -> (unit, how the value is formed).
PER_LAYER = {
    "catalog.build_s": ("s", ("self", "catalog.build")),
    "forms.factor_calls": ("count", ("count", "forms.factor_calls")),
    "forms.factor_s": ("s", ("self", "forms.factor")),
    "forms.solve_calls": ("count", ("count", "forms.solve_calls")),
    "forms.solve_s": ("s", ("self", "forms.solve")),
    "forms.energy_calls": ("count", ("count", "forms.energy_calls")),
    "forms.energy_s": ("s", ("self", "forms.energy")),
    "drivers.value_calls": ("count", ("count", "drivers.value_calls")),
    "drivers.value_s": ("s", ("self", "drivers.value")),
    "drivers.yosida_s": ("s", ("self", "drivers.yosida")),
    "drivers.regularize_s": ("s", ("self", "drivers.regularize")),
    "drivers.scalar_calls": ("count", ("count", "drivers.scalar_calls")),
    "elliptic.gs_s": ("s", ("self", "elliptic.gs")),
    "elliptic.gs_sweeps": ("count", ("count", "elliptic.gs_sweeps")),
    "elliptic.mc_s": ("s", ("self", "elliptic.mc")),
    "elliptic.mc_paths_per_s": ("paths/s", ("ratio", "elliptic.mc_paths",
                                            "elliptic.mc_wall")),
    "elliptic.picard_iters": ("count", ("count", "elliptic.picard_iters")),
    "elliptic.mc_peak_alloc_mb": ("MB", ("peak", "elliptic.mc_peak_alloc_mb")),
    "elliptic.checks_s": ("s", ("self", "elliptic.checks")),
    "bsde.ladder_s": ("s", ("self", "bsde.ladder")),
    "bsde.levels": ("count", ("count", "bsde.levels")),
    "bsde.steps": ("count", ("count", "bsde.steps")),
    "bsde.newton_iters": ("count", ("count", "bsde.newton_iters")),
    "bsde.ladder_peak_alloc_mb": ("MB", ("peak", "bsde.ladder_peak_alloc_mb")),
    "bsde.martingale_s": ("s", ("self", "bsde.martingale")),
    "markov.chain_s": ("s", ("self", "markov.chain")),
    "markov.gap_calls": ("count", ("count", "markov.gap_calls")),
    "markov.gap_s": ("s", ("self", "markov.gap")),
    "markov.lockstep_iters": ("count", ("count", "markov.lockstep_iters")),
    "markov.jumps": ("count", ("count", "markov.jumps")),
    "markov.lockstep_width": ("paths/iter", ("ratio", "markov.jumps",
                                             "markov.lockstep_iters")),
    "markov.revuz_s": ("s", ("self", "markov.revuz")),
    "cli.verify_s": ("s", ("self", "cli.verify")),
    "reports.write_s": ("s", ("self", "reports.write")),
    "reports.bytes": ("B", ("count", "reports.bytes")),
}


class Tracer:
    """Span recorder; `install` wraps the boundaries, `uninstall` restores them.

    With `alloc=True` the boundaries that carry an allocation metric run under
    tracemalloc and record its peak.  tracemalloc roughly doubles the time of
    the code it watches, so a run measures times with `alloc=False` and peaks
    in a separate round.  `alloc_seen` tells whether such a boundary ran.
    """

    def __init__(self, alloc=False):
        self.alloc = alloc
        self.alloc_seen = False
        self.origin = time.perf_counter()
        self.spans = []            # [name, start, end, parent span index]
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)
        self.peaks = defaultdict(float)
        self.absent = []
        self._stack = []           # open frames: [span index, start, child time]
        self._patches = []         # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def install(self):
        for module_name, attr, key, counter, opts in BOUNDARIES:
            owner, name, original = self._resolve(module_name, attr)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{attr}", key,
                                 counter, **opts)
            self._patch(owner, name, wrapper)
            if not isinstance(owner, type):
                for module in self._formlab_modules():
                    for var, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, var, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module_name, attr):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None, None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        return owner, name, vars(owner).get(name)

    @staticmethod
    def _formlab_modules():
        return [mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "formlab"
                                        or mod_name.startswith("formlab."))]

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span_name, key, counter, *, hot=False, after=None,
              alloc=None):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        counts = self.counts
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            layer = key(args, kwargs) if callable(key) else key
            if hot:
                sid = -1
            else:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            if alloc is not None:
                tracer.alloc_seen = True
            owns_alloc = (tracer.alloc and alloc is not None
                          and not tracemalloc.is_tracing())
            if owns_alloc:
                tracemalloc.start()
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if owns_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    tracer.peaks[alloc] = max(tracer.peaks[alloc], peak)
                if not hot:
                    parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
                    tracer.spans[sid] = [span_name, frame[1] - tracer.origin,
                                         end - tracer.origin, parent]
            if counter is not None:
                counts[counter] += 1
            if after is not None:
                after(tracer, args, kwargs, result, dur)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ---------------------------------------------------------------

    def per_layer(self, rounds, round_s):
        """Every per-layer metric, counts and self times per round."""
        out = {}
        for name, (unit, (kind, *keys)) in PER_LAYER.items():
            if kind == "self":
                value = self.self_s[keys[0]] / rounds
            elif kind == "count":
                value = self.counts[keys[0]] / rounds
            elif kind == "peak":
                value = self.peaks[keys[0]]
            else:
                den = self.counts[keys[1]]
                value = self.counts[keys[0]] / den if den else 0.0
            out[name] = {"value": value, "unit": unit}
        out["trace.round_s"] = {"value": round_s, "unit": "s"}
        return out

    def write(self, path, **extra):
        doc = {"absent": self.absent, "counts": dict(self.counts),
               "self_s": dict(self.self_s), "peaks_mb": dict(self.peaks),
               "span_fields": ["name", "start", "end", "parent"],
               "spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
