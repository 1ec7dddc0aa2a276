"""Span tracing of the qfhe modules from outside the program.

The tracer wraps the public functions of each qfhe module and the
construction of the two state classes. A wrapped function is rebound under
every name that holds it in every loaded ``qfhe`` module, so that both
``from .linalg import ...`` bindings and a module's calls to its own
globals go through the wrapper. ``install``/``uninstall`` swap the bindings,
so untraced jobs run the program's own functions.

Spans are recorded only inside ``job()``, the root span of one job. Each span
records its name, start, end, parent span and the job id. The self time of a
span is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from workloads import KINDS

#: public functions wrapped in spans, by qfhe module
SPAN_FUNCTIONS = {
    "linalg": ("apply_to_wires", "embed_on_wires", "apply_to_density", "gate_matrix",
               "pauli_operator", "trace_distance"),
    "qotp": ("keygen", "encrypt", "decrypt"),
    "rewrite": ("rewrite_gate", "rewrite_circuit", "evaluate"),
    "circuits": ("simulate", "euler_decompose", "parse_circuit", "serialize_circuit"),
    "analysis": ("verify_security", "average_over_keys", "pauli_decompose", "classify_key_independent"),
    "cli": ("main", "build_parser"),
}
#: classes whose construction (including validation) is a span named <module>.<class>.init
SPAN_CLASSES = {"linalg": ("PureState", "DensityState")}

ROOT = "job"
#: counts recorded by the hooks below, besides the .calls of every span
COUNTS = (
    "analysis.keys_visited",
    "rewrite.gates_in",
    "rewrite.gates_out",
    *(f"rewrite.gates_out.{kind}" for kind in KINDS),
    "rewrite.cnot_expansions",
    "rewrite.phase_flips",
    "cli.bytes_read",
    "cli.bytes_written",
)


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in SPAN_FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}.init" for mod, classes in SPAN_CLASSES.items() for cls in classes]
    return names


class Tracer:
    def __init__(self):
        self.names = [ROOT, *span_names()]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        self._stack: list[list] = []  # [name id, start ns, child ns, span index]
        self._active = [0] * len(self.names)  # by name id: depth on the current stack
        self.spans: list[tuple | None] = []  # (name id, start ns, end ns, parent index, job id)
        self.job_id = -1
        self.calls = [0] * len(self.names)  # by name id
        self.self_ns = [0] * len(self.names)  # by name id
        self.counts = Counter()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qfhe" or name.startswith("qfhe."))]
        hooks = {
            "qotp.encrypt": self._count_key,
            "rewrite.rewrite_gate": self._count_rewrite,
        }
        for mod, fns in SPAN_FUNCTIONS.items():
            owner = sys.modules.get(f"qfhe.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(owner, fn, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._span_wrapper(self.ids[name], original, hooks.get(name))
                self._rebind(modules, original, wrapper)
        for mod, classes in SPAN_CLASSES.items():
            owner = sys.modules.get(f"qfhe.{mod}")
            for cls_name in classes:
                cls = getattr(owner, cls_name, None)
                if cls is None:
                    self.missing.append(f"{mod}.{cls_name}.init")
                    continue
                original = cls.__dict__["__init__"]
                wrapper = self._span_wrapper(self.ids[f"{mod}.{cls_name}.init"], original, None)
                self._bindings.append((cls, "__init__", original, wrapper))
        # byte counts at the CLI's file boundary; no spans, so cli.main keeps the I/O as self time
        cli = sys.modules.get("qfhe.cli")
        for attr, hook in (("_read_file", self._count_read), ("_write_file", self._count_write)):
            original = getattr(cli, attr, None)
            if original is None:
                self.missing.append(f"cli.{attr}")
                continue
            self._rebind(modules, original, self._count_wrapper(original, hook))

    # --- binding ---------------------------------------------------------

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # --- spans -----------------------------------------------------------

    def _span_wrapper(self, name_id: int, fn, hook):
        stack, active, spans = self._stack, self._active, self.spans
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            frame = [name_id, 0, 0, index]
            parent = stack[-1][3]
            stack.append(frame)
            active[name_id] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name_id] -= 1
                duration = end - frame[1]
                calls[name_id] += 1
                self_ns[name_id] += duration - frame[2]
                stack[-1][2] += duration
                spans[index] = (name_id, frame[1], end, parent, self.job_id)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; returns after recording it."""
        self.job_id = job_id
        index = len(self.spans)
        self.spans.append(None)
        frame = [0, time.perf_counter_ns(), 0, index]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - frame[1]
            self.calls[0] += 1
            self.self_ns[0] += duration - frame[2]
            self.spans[index] = (0, frame[1], end, -1, job_id)

    # --- count hooks -----------------------------------------------------

    def _count_key(self, args, kwargs, result) -> None:
        if self._active[self.ids["analysis.verify_security"]]:
            self.counts["analysis.keys_visited"] += 1

    def _count_rewrite(self, args, kwargs, result) -> None:
        gate = args[1] if len(args) > 1 else kwargs["gate"]
        counts = self.counts
        counts["rewrite.gates_in"] += 1
        counts["rewrite.gates_out"] += len(result.gates)
        for out in result.gates:
            counts[f"rewrite.gates_out.{out.kind}"] += 1
        if gate.kind == "cnot" and len(result.gates) > 1:
            counts["rewrite.cnot_expansions"] += 1
        counts["rewrite.phase_flips"] += result.phase_flips

    def _count_read(self, args, kwargs, result) -> None:
        self.counts["cli.bytes_read"] += len(result)

    def _count_write(self, args, kwargs, result) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.counts["cli.bytes_written"] += len(data)

    # --- results ---------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Every .calls count and every hook count, by metric name."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(self.names) if i}
        out.update({name: self.counts[name] for name in COUNTS})
        return out

    def self_ms(self) -> dict[str, float]:
        return {name: self.self_ns[i] / 1e6 for i, name in enumerate(self.names)}

    def take_spans(self) -> list[tuple]:
        spans, self.spans[:] = list(self.spans), []
        return spans
