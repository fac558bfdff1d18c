"""Spans around the calls into each layer, for the traced run.

The layers are the package's modules.  While a trace is active, every
listed function is replaced, in every module namespace that holds it, by a
wrapper that records a span (name, start, end, parent span, operation id);
``DensityMatrix`` is traced through its ``__init__`` and the ``verify``
suites through ``selfcheck.ALL_SUITES``.  The wrappers live here, not in the
package, and are removed again when the operation ends, so the timed runs
execute the untouched code.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

from qswitch_qkd import cli, linalg, metrics, oracle, qstate, scenarios, selfcheck, svgchart, switch

MODULES = {
    "qstate": qstate, "linalg": linalg, "scenarios": scenarios, "metrics": metrics,
    "switch": switch, "oracle": oracle, "selfcheck": selfcheck, "cli": cli, "svgchart": svgchart,
}
FUNCTIONS = (
    ("qstate", "measure_probs"), ("qstate", "partial_trace"), ("qstate", "DensityMatrix"),
    ("qstate", "embed"), ("qstate", "make_gate"),
    ("linalg", "hermitian_eigenvalues"),
    ("scenarios", "scenario_state"), ("scenarios", "reduced_pair"),
    ("metrics", "evaluate_row"), ("metrics", "mutual_information"),
    ("metrics", "information_gain"), ("metrics", "horodecki_bell_max"), ("metrics", "qber"),
    ("metrics", "fidelity_disturbance_shrink"),
    ("switch", "lambda_branch"), ("switch", "traced_switch"), ("switch", "apply_switch_full"),
    ("switch", "switch_kraus_ops"),
    ("oracle", "chsh_bruteforce"),
    ("cli", "main"), ("cli", "render_sweep_csv"),
    ("svgchart", "render_line_chart"),
)
# The verify suites at the time the benchmark was defined; suites added later
# still count towards selfcheck.share.
SUITES = (
    "linalg_algebra", "state_operations", "kraus_completeness", "branch_decomposition",
    "scenario_states", "gain_closed_forms", "qber_closed_form", "bell_horodecki",
    "mutual_information", "sweep_determinism",
)
ROOT = "op"
_ROW = "metrics.evaluate_row"


class Tracer:
    """Records spans while :meth:`operation` is active."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, op id]
        self._stack: list[int] = []
        self._op = -1
        self._patches = self._plan()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self._op])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][1:3] = start, clock()
                stack.pop()

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for every place a traced function is bound."""
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qswitch_qkd"]
        patches = []
        for module_name, fn_name in FUNCTIONS:
            original = getattr(MODULES[module_name], fn_name)
            name = f"{module_name}.{fn_name}"
            if isinstance(original, type):
                init = original.__init__
                patches.append((original, "__init__", init, self._wrap(name, init)))
                continue
            wrapper = self._wrap(name, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        suites = selfcheck.ALL_SUITES
        wrapped = tuple(self._wrap("selfcheck." + s.__name__.removeprefix("check_"), s) for s in suites)
        patches.append((selfcheck, "ALL_SUITES", suites, wrapped))
        return patches

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Trace one operation: wrappers installed, one root span around it."""
        self._op = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        index = len(self.spans)
        self.spans.append([ROOT, 0, 0, -1, op_id])
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index][1:3] = start, time.perf_counter_ns()
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    ``<module>.<function>.us`` is the median span per call (0 when never
    called), ``.calls_per_op`` the call count per operation, and
    ``<module>.share`` the module's self time (span time not covered by a
    child span) as a share of root operation time.
    """
    durations = defaultdict(list)
    child_time = defaultdict(int)
    row_time = defaultdict(int)  # evaluate_row time directly under each span
    row_children = 0
    for name, start, end, parent, _ in spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
            if name == _ROW:
                row_time[parent] += end - start
            if spans[parent][0] == _ROW:
                row_children += end - start
    self_time = defaultdict(int)
    sweep_overhead = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - child_time[index]
        if name == "cli.main" and row_time[index]:
            sweep_overhead.append(end - start - row_time[index])

    out: dict[str, tuple[float, str]] = {}
    for module_name, fn_name in FUNCTIONS:
        name = f"{module_name}.{fn_name}"
        out[name + ".us"] = (_median(durations[name]) / 1e3, "us")
        out[name + ".calls_per_op"] = (len(durations[name]) / n_ops, "count")
    for suite in SUITES:
        out[f"selfcheck.{suite}.s"] = (_median(durations["selfcheck." + suite]) / 1e9, "s")
    total = sum(durations[ROOT])
    for module_name in MODULES:
        out[module_name + ".share"] = (self_time[module_name] / total, "fraction")
    out["cli.sweep_overhead.us"] = (_median(sweep_overhead) / 1e3, "us")
    rows = sum(durations[_ROW])
    out["trace.coverage"] = (row_children / rows if rows else 0.0, "fraction")
    return out
