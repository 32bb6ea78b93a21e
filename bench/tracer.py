"""Span tracer installed from outside the library.

``install`` replaces the public functions of each layer module (and the
evaluation methods of the elliptic classes) with thin wrappers that record one
span per call: name, start, end, parent span and the CLI call it belongs to.
Spans and counts stay in memory; ``write_spans`` dumps them when the run ends.
``uninstall`` puts the original objects back, so untraced and traced calls
alternate in one process.

Self time of a span is its duration minus the time its children cover.
Children on the same thread are summed; children on other threads (the
simulate fan-out) are merged as intervals, so overlapping workers are counted
once.

``dynamics.integrate`` spans also record the thread's CPU time.  With the
GIL, a worker's wall time includes its waits for the other workers, so only
CPU time tells how much of a batch really ran in parallel.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
import time

# layer -> module whose public functions (``__all__``) are wrapped
LAYER_MODULES = {name: name for name in ("polyroots", "elliptic", "fields", "geometry", "dynamics", "verify", "cli")}
CLI_FUNCTIONS = ("main", "spec_from_config", "quartic_from_config")
# (layer, module, class, methods): evaluation entry points of the classes
CLASS_METHODS = [
    ("elliptic", "_inversion", "QuarterBranch", ("value", "deriv", "value_and_deriv", "invert", "cumulative")),
    ("elliptic", "_inversion", "CumulativeIntegral", ("__call__",)),
    ("geometry", "geometry", "Case1ConformalModel", ("q1", "q2", "lam")),
]
Q_EVALS = ("QuarterBranch.value", "QuarterBranch.deriv", "QuarterBranch.value_and_deriv")

# span record fields
SID, NAME, T0, T1, PARENT, CALL, SELF, SIZE, CTX, OUTER, PNAME, CPU = range(12)


def _q_size(args, kwargs):
    """0 for a scalar argument, the number of points for an array."""
    u = args[1] if len(args) > 1 else kwargs.get("u")
    if isinstance(u, (float, int)):
        return 0
    return int(getattr(u, "size", 1)) if getattr(u, "ndim", 0) else 0


def _integrate_size(args, kwargs):
    """Simulated time of one integrate call."""
    return float(kwargs["t_end"] if "t_end" in kwargs else args[2])


def _integrate_ctx(args, kwargs):
    return args[0].family.value


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.spans: list[tuple] = []
        self.call_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._plan: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, name: str, size_of=None, ctx_of=None, cpu=False):
        idx = len(self.names)
        self.names.append((layer, name))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else -1
            ctx = ctx_of(args, kwargs) if ctx_of else None
            frame = tracer._enter(idx, layer, size, ctx, cpu)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _enter(self, idx, layer, size, ctx, cpu):
        stack = self._stack()
        if stack:
            parent, same_thread = stack[-1], True
        else:
            parent, same_thread = self._root, False
        if ctx is None and parent is not None:
            ctx = parent[5]
        # frame: sid, idx, layer, child_ns, cross-thread children, ctx, parent, same_thread, size, t0, cpu0
        cpu0 = time.thread_time_ns() if cpu else None
        frame = [next(self._ids), idx, layer, 0, None, ctx, parent, same_thread, size, 0, cpu0]
        if parent is None:
            self._root = frame
        stack.append(frame)
        frame[9] = time.perf_counter_ns()
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter_ns()
        cpu = time.thread_time_ns() - frame[10] if frame[10] is not None else -1
        self._stack().pop()
        t0 = frame[9]
        dur = t1 - t0
        covered = frame[3]
        if frame[4]:
            covered += _union_ns(frame[4])
        parent = frame[6]
        if parent is not None:
            if frame[7]:
                parent[3] += dur
            else:
                if parent[4] is None:
                    parent[4] = []
                parent[4].append((t0, t1))
        elif self._root is frame:
            self._root = None
        outer = parent is None or parent[2] != frame[2]
        self.spans.append(
            (
                frame[0],
                frame[1],
                t0,
                t1,
                parent[0] if parent is not None else 0,
                self.call_id,
                dur - covered,
                frame[8],
                frame[5],
                outer,
                parent[1] if parent is not None else -1,
                cpu,
            )
        )

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions, wherever they were imported."""
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def _make_plan(self) -> list:
        import monopole_lab

        pkg = monopole_lab.__name__
        plan = []
        replace: dict[int, tuple] = {}
        for layer, mod_name in LAYER_MODULES.items():
            mod = sys.modules[f"{pkg}.{mod_name}"]
            names = CLI_FUNCTIONS if layer == "cli" else mod.__all__
            for name in names:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "dynamics" and name == "integrate":
                    wrapper = self.wrap(fn, layer, name, _integrate_size, _integrate_ctx, cpu=True)
                else:
                    wrapper = self.wrap(fn, layer, name)
                replace[id(fn)] = (fn, wrapper)
        for layer, mod_name, cls_name, methods in CLASS_METHODS:
            cls = getattr(sys.modules[f"{pkg}.{mod_name}"], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                label = f"{cls_name}.{meth}"
                size_of = _q_size if label in Q_EVALS else None
                plan.append((cls, meth, fn, self.wrap(fn, layer, label, size_of)))
        # every module-level reference, including `from x import f`
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg or mod_name.startswith(pkg + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((mod, attr, value, hit[1]))
        return plan

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """CSV of every span: id, layer, name, start_ns, end_ns, parent, call, self_ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,layer,name,start_ns,end_ns,parent,call,self_ns\n")
            for s in self.spans:
                layer, name = self.names[s[NAME]]
                fh.write(f"{s[SID]},{layer},{name},{s[T0]},{s[T1]},{s[PARENT]},{s[CALL]},{s[SELF]}\n")


def _union_ns(intervals) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
