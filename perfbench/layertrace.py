"""Outside-in layer tracing for the benchmark.

The package is not instrumented.  Instead, while a traced operation runs,
the public functions of each module are replaced by timing wrappers at
every place they are looked up (the module that defines them and each
module that imports them by name), and the original bindings are put back
afterwards.  Spans are kept in memory; self times are derived at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

# Every time in the benchmark is CPU time of the whole process, in ns.  The
# process computes on one thread (one BLAS thread, draw_many's default of one
# job), so this is the time the work took, without the time the machine gave
# to other processes or to its hypervisor.
clock_ns = time.process_time_ns

# (module, name, layer).  Module "" is the package namespace itself.  The
# layer "edge" resolves to "edge.<backend>" for the backend whose run is
# open; "edge?" marks a Kalman routine that is ragged-edge work when its
# first period lies past the start of the sample.
SPANS = [
    ("", "draw_latent", "assembly"),
    ("simsmooth", "draw_latent", "assembly"),
    ("", "draw_many", "simsmooth.draw_many_self"),
    ("simsmooth", "draw_many", "simsmooth.draw_many_self"),
    ("simsmooth", "gen_pseudo", "simsmooth.simulate_path"),
    ("simsmooth", "simulate_path", "simsmooth.simulate_path"),
    ("simsmooth", "init_state", "kalman.init"),
    ("kalman", "solve_discrete_lyapunov", "kalman.lyapunov"),
    ("kalman", "filter_step", "kalman.filter_step"),
    ("baseline", "compact_to_companion", "edge"),
    ("baseline", "companion_periods", "edge"),
    ("baseline", "companion_to_compact", "edge"),
    ("blocked", "companion_to_compact", "edge"),
    ("blocked", "blocked_F", "edge"),
    ("blocked", "blocked_M", "edge"),
    ("blocked", "blocked_K", "edge"),
    ("blocked", "blocked_predict", "edge"),
    ("blocked", "blocked_smooth_r", "edge"),
]
for _mod in ("adaptive", "baseline", "blocked"):
    SPANS += [
        (_mod, "prepare", "model.prepare"),
        (_mod, "init_state", "kalman.init"),
        (_mod, "build_periods", "systems.build_periods"),
        (_mod, "run_filter", "edge?kalman.run_filter_self"),
        (_mod, "run_smoother", "edge?kalman.run_smoother"),
        (_mod, "fill_states", "assembly"),
        (_mod, "fill_observed", "assembly"),
    ]

# entries of simsmooth.BACKENDS: the backend's own orchestration
BACKEND_LAYERS = {"adaptive": "assembly", "baseline": "edge", "blocked": "edge"}

# (module, name, counter) for calls that are counted but not timed
COUNTED = [
    ("kalman", "dpotrf", "kalman.factorizations"),
    ("systems", "build_system_matrices", "systems.system_builds"),
    ("baseline", "build_system_matrices", "systems.system_builds"),
]


class Tracer:
    """Span recorder.  Each root span is one timed benchmark operation."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[list] = []    # [layer, start_ns, end_ns, parent]
        self.stack: list[int] = []
        self.roots: list[tuple[str, int, Counter]] = []   # (phase, index, counts)
        self.backend: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, clock_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock_ns()
        self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        """Add to a count of the current (or last) root operation."""
        self.roots[-1][2][name] += k

    def in_edge(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0].startswith("edge.")

    def _resolve(self, layer: str, first) -> str:
        if layer.startswith("edge?"):
            layer = "edge" if first is not None and first.t > 0 else layer[5:]
        if layer == "edge":
            return f"edge.{self.backend}"
        if layer == "kalman.filter_step" and self.in_edge():
            return self.spans[self.stack[-1]][0]
        return layer

    # -- operations --------------------------------------------------------
    @contextlib.contextmanager
    def root(self, phase: str):
        """One timed operation of ``phase``, with the wrappers installed.

        Yields the root span's index; read its time with ``seconds`` after
        the block.
        """
        self.install()
        self.roots.append((phase, len(self.spans), Counter()))
        idx = self.open("other")
        try:
            yield idx
        finally:
            self.close(idx)
            self.uninstall()

    def seconds(self, idx: int) -> float:
        s = self.spans[idx]
        return (s[2] - s[1]) * 1e-9

    # -- wrapper installation ----------------------------------------------
    def _module(self, name: str):
        return self.pkg if not name else getattr(self.pkg, name)

    def _rebind(self, owner, name: str, value, item: bool = False) -> None:
        if item:
            self._saved.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        wrapped: dict[int, object] = {}
        for mod, name, layer in SPANS:
            owner = self._module(mod)
            fn = getattr(owner, name)
            key = id(fn)
            if key not in wrapped:
                wrapped[key] = self._span_wrapper(fn, layer)
            self._rebind(owner, name, wrapped[key])
        for mod, name, counter in COUNTED:
            owner = self._module(mod)
            self._rebind(owner, name, self._count_wrapper(getattr(owner, name), counter))
        backends = self.pkg.simsmooth.BACKENDS
        for name, layer in BACKEND_LAYERS.items():
            self._rebind(backends, name, self._backend_wrapper(backends[name], name, layer), item=True)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def _span_wrapper(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = None
            if layer.startswith("edge?") and args and len(args[0]):
                first = args[0][0]
            idx = tracer.open(tracer._resolve(layer, first))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._after(fn.__name__, tracer.spans[idx][0], args, out)
            return out

        return wrapper

    def _after(self, name: str, layer: str, args, out) -> None:
        if name == "solve_discrete_lyapunov":
            self.count("kalman.lyapunov_solves")
        elif name == "build_periods":
            self.count("systems.distinct_mats", len({id(per.mats) for per in out}))
        elif name == "filter_step" and not layer.startswith("edge."):
            self.count("kalman.filter_steps")
            if args[1].mats.n_obs:
                self.count("kalman.obs_steps")

    def _count_wrapper(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (counter == "kalman.factorizations" and tracer.in_edge()):
                tracer.count(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _backend_wrapper(self, fn, backend: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved, tracer.backend = tracer.backend, backend
            try:
                idx = tracer.open(tracer._resolve(layer, None))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            finally:
                tracer.backend = saved

        return wrapper

    # -- analysis ------------------------------------------------------------
    def layer_totals(self, root_pos: int) -> tuple[float, dict[str, float]]:
        """(root duration, self seconds per layer) of one root operation.

        Self time is a span's duration minus its children's durations; the
        root's own self time is reported as ``other``.
        """
        start = self.roots[root_pos][1]
        end = self.roots[root_pos + 1][1] if root_pos + 1 < len(self.roots) else len(self.spans)
        child_ns = Counter()
        for i in range(start + 1, end):
            s = self.spans[i]
            child_ns[s[3]] += s[2] - s[1]
        out: Counter = Counter()
        for i in range(start, end):
            s = self.spans[i]
            out[s[0]] += (s[2] - s[1] - child_ns[i]) * 1e-9
        root = self.spans[start]
        return (root[2] - root[1]) * 1e-9, dict(out)

    def span_records(self) -> list[list]:
        """Spans as [name, start_s, end_s, parent], relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[s[0], (s[1] - t0) * 1e-9, (s[2] - t0) * 1e-9, s[3]] for s in self.spans]
