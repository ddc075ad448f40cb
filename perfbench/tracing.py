"""Spans and counters recorded around the public functions of each layer.

The tracer lives entirely in the benchmark: it replaces public names of the
bbm5 modules with wrappers for the duration of a traced run and puts the
originals back afterwards.  A wrapper records a span (name, start, end,
parent) in memory; a layer's self time is its span's duration minus the
time its child spans cover.  FFT calls and Field constructions are counted
without spans, to keep the tracing cost low where calls are many and short.

A name is patched where callers look it up: every bbm5 module attribute
bound to the same function object is replaced (``bbm5.evolution.energy`` as
well as ``bbm5.spectral.energy``), and methods are patched on their class.
A target that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute path).  Several targets may share a span name.
SPANS = (
    ("evolution.nonlinear_hat", "bbm5.evolution", "SpectralEngine.nonlinear_hat"),
    ("evolution.to_fine", "bbm5.evolution", "SpectralEngine.to_fine"),
    ("evolution.from_fine", "bbm5.evolution", "SpectralEngine.from_fine"),
    ("evolution.step", "bbm5.evolution", "Etdrk4Stepper.step"),
    ("evolution.step", "bbm5.evolution", "Etdrk4Stepper.step_timed"),
    ("evolution.stepper_build", "bbm5.evolution", "Etdrk4Stepper.__init__"),
    ("evolution.run_simulation", "bbm5.evolution", "run_simulation"),
    ("evolution.energy_drift_predicted", "bbm5.evolution", "energy_drift_predicted"),
    ("spectral.energy", "bbm5.spectral", "energy"),
    ("spectral.sobolev_norm", "bbm5.spectral", "sobolev_norm"),
    ("spectral.integral_cube", "bbm5.spectral", "integral_cube"),
    ("spectral.dealiased_product2", "bbm5.spectral", "dealiased_product2"),
    ("spectral.dealiased_product3", "bbm5.spectral", "dealiased_product3"),
    ("splitting.evolve_u", "bbm5.splitting", "evolve_u"),
    ("splitting.evolve_v", "bbm5.splitting", "evolve_v"),
    ("splitting.compute_h", "bbm5.splitting", "compute_h"),
    ("symbols.random_hs_field", "bbm5.symbols", "random_hs_field"),
    ("symbols.estimate_ratio", "bbm5.symbols", "estimate_ratio"),
    ("symbols.empirical_operator_norm", "bbm5.symbols", "empirical_operator_norm"),
    ("derivation.eta_t", "bbm5.derivation", "ScaledModel.eta_t"),
    ("derivation.eta_t", "bbm5.derivation", "ScaledModel.eta_tt"),
    ("derivation.abcd_residual_first", "bbm5.derivation", "abcd_residual_first"),
    ("derivation.epsilon_sweep", "bbm5.derivation", "epsilon_sweep"),
    ("cli.main", "bbm5.cli", "main"),
)

# A nonlinearity a caller passes into an Etdrk4Stepper method is timed as
# its own span, so that evolution.step's self time excludes it.  At this
# commit only splitting passes one: the difference nonlinearity of evolve_v.
PASSED_NL = "splitting.difference_nl"

FFT_C2C = ("fft", "ifft")
FFT_R2C = ("rfft", "irfft")
FIELD = ("bbm5.spectral", "Field.__init__")

MODULES = ("bbm5", "bbm5.coefficients", "bbm5.spectral", "bbm5.symbols", "bbm5.evolution",
           "bbm5.splitting", "bbm5.derivation", "bbm5.cli")


def _resolve(module: str, path: str):
    """(owner, attribute, object) for ``module:path``, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        obj = owner.__dict__.get(attr)
    else:
        obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _transform_points(name: str, args, kwargs) -> int:
    a = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    length = a.shape[-1] if a.ndim else 1
    batch = a.size // length if length else 0
    if n is None:
        n = 2 * (length - 1) if name == "irfft" else length
    return int(n) * batch


class Tracer:
    """Span recorder with installable patches; one instance per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []  # targets missing at this commit
        self.absent_names: set[str] = set()  # span or counter names fed by none
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._build_patches()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, passed_nl: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        wrap_nl = self._wrap

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if passed_nl:
                args = tuple(wrap_nl(PASSED_NL, a) if callable(a) else a for a in args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def _count_fft(self, name: str, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["spectral.fft.calls"] += 1
            counts[key] += _transform_points(name, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _count_field(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["spectral.field.constructed"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _build_patches(self) -> None:
        modules = []
        for name in MODULES:  # import all, so that every caller's view is found
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                self.absent.append(name)

        def patch_everywhere(owner, attr, original, wrapper):
            # the defining namespace plus every bbm5 module attribute bound to
            # the same object: the view of callers that imported the name
            self._patches.append((owner, attr, original, wrapper))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patches.append((mod, key, original, wrapper))

        fed = set()
        for name, module, path in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            fed.add(name)
            owner, attr, original = found
            wrapper = self._wrap(name, original, passed_nl=name == "evolution.step")
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
            else:
                patch_everywhere(owner, attr, original, wrapper)
        self.absent_names = {name for name, _m, _p in SPANS} - fed
        if "evolution.step" in self.absent_names:
            self.absent_names.add(PASSED_NL)
        for names, key in ((FFT_C2C, "spectral.fft.c2c_points"), (FFT_R2C, "spectral.fft.r2c_points")):
            for fname in names:
                original = getattr(np.fft, fname)
                patch_everywhere(np.fft, fname, original, self._count_fft(fname, original, key))
        found = _resolve(*FIELD)
        if found is None:
            self.absent.append(".".join(FIELD))
            self.absent_names.add("spectral.field.constructed")
        else:
            owner, attr, original = found
            self._patches.append((owner, attr, original, self._count_field(original)))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def take(self) -> tuple[list[tuple], Counter]:
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def aggregate(spans: list[tuple]) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for i, (name, start, end, _parent) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["total"] += end - start
        agg["self"] += end - start - child[i]
    return dict(out)
