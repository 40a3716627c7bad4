"""Outside-in tracer: times calls into the package's public layer functions.

The tracer wraps each listed function at every module attribute bound to it
(``from .linalg import cholesky_lower`` binds the same function object in
``moduli`` and ``hermitian``, so patching only the defining module would
miss those calls).  Spans are kept in memory while an op is being recorded
and the original functions are restored on ``uninstall``.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span in the same op, or -1.  A function's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions whose calls are timed, in report order
LAYER_FUNCTIONS = {
    "algebra": ("get_algebra", "builtin", "parse_salamon", "nijenhuis_tensor"),
    "linalg": (
        "cholesky_lower", "reverse_cholesky_lower", "sym_eig2", "svd2", "takagi2",
        "null_space", "least_squares_solve",
    ),
    "automorphisms": (
        "structured_automorphism", "component_label", "component_representatives",
        "derivation_algebra",
    ),
    "moduli": (
        "canonicalize", "realize", "isometry_group", "verify_isometry_group",
        "isotropy_algebra_dimension",
    ),
    "hermitian": (
        "h5_hermitian_solutions", "h4_hermitian_solutions", "h6_hermitian_solutions",
        "h2_hermitian_candidates", "hermitian_search",
    ),
    "cli": ("main",),
}

SEARCH = "hermitian.hermitian_search"
CLI_MAIN = "cli.main"
CLI_COMMANDS = ("describe", "isometry", "hermitian", "canonicalize", "tables")


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


class Tracer:
    """Records spans only between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.active = False
        self.ops = []  # one list of spans per recorded op
        self.walls = []  # the harness's wall time of each recorded op
        self.search_results = []  # (starts_used, found) per traced oracle call
        self.cli_commands = []  # argv[0] per traced cli.main span, in span order
        self._spans = None
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every listed function wherever a loaded nilmoduli module binds it."""
        import importlib

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nilmoduli" or n.startswith("nilmoduli."))]
        for layer, fns in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"nilmoduli.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def bound_sites(self):
        """``module.attribute`` names currently patched."""
        return sorted(f"{m.__name__}.{a}" for m, a, _o in self._patches)

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer._spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if name == SEARCH:
                tracer.search_results.append((int(result.starts_used), bool(result.found)))
            elif name == CLI_MAIN:
                argv = args[0] if args else kwargs.get("argv")
                tracer.cli_commands.append(argv[0] if argv else "")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- recording --------------------------------------------------------

    def begin_op(self):
        self._spans, self._stack = [], []
        self.active = True

    def end_op(self, wall):
        self.active = False
        self.ops.append(self._spans)
        self.walls.append(wall)
        self._spans = None


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def op_accounting(spans, op_wall):
    """(sum of self times, untraced gap) for one op of wall time ``op_wall``.

    The gap is the part of the op not covered by any top-level span; the
    two add up to ``op_wall`` exactly when the span tree is consistent.
    """
    total_self = sum(self_times(spans))
    top = sum(end - start for _n, start, end, parent in spans if parent < 0)
    return total_self, op_wall - top


def aggregate(tracer, n_ops):
    """Per-layer metrics from the recorded spans, normalised per op."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    span_s = defaultdict(float)
    cli_self = defaultdict(float)
    cli_calls = defaultdict(int)
    cli_index = 0
    for spans in tracer.ops:
        for (name, start, end, _p), own in zip(spans, self_times(spans)):
            calls[name] += 1
            self_s[name] += own
            span_s[name] += end - start
            if name == CLI_MAIN:
                cmd = tracer.cli_commands[cli_index]
                cli_index += 1
                cli_self[cmd] += own
                cli_calls[cmd] += 1
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls_per_op"] = (calls[name] / n_ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (1e3 * self_s[name] / n_ops, "ms")
    starts = sum(s for s, _f in tracer.search_results)
    found = sum(1 for _s, f in tracer.search_results if f)
    verdicts = len(tracer.search_results)
    metrics[f"{SEARCH}.starts_per_verdict"] = (starts / verdicts if verdicts else 0.0, "count")
    metrics[f"{SEARCH}.ms_per_start"] = (1e3 * span_s[SEARCH] / starts if starts else 0.0, "ms")
    metrics[f"{SEARCH}.found_per_start"] = (found / starts if starts else 0.0, "ratio")
    for cmd in CLI_COMMANDS:
        n = cli_calls[cmd]
        metrics[f"{CLI_MAIN}.{cmd}.self_ms_per_call"] = (1e3 * cli_self[cmd] / n if n else 0.0, "ms")
    return metrics
