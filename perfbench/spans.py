"""Tracing from outside the library: wrap public functions, record spans.

Nothing in the library changes.  :func:`install` replaces every public
function of each layer module (and every public method of its classes) by a
wrapper that records one span per call, then rebinds every name in the
package that still points at an original, so ``from .qcore import tensor``
copies and dispatch tables such as ``cli._COMMANDS`` go through the wrapper
too.  A wrapper calls the original with the same arguments and returns its
value or lets its exception propagate unchanged, so every check the library
performs still runs.

Spans stay in memory; the caller writes them out once, at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

#: The layers, one per library module, in dependency order.
LAYERS = ("qcore", "weylops", "sampling", "reporting", "dephaser",
          "recurrence", "expander", "pqc", "bounds", "cli")

#: Functions whose calls and self time are reported one by one; every other
#: wrapped function only counts toward its module's self time.
REPORTED = (
    "dephaser.controlled_basis_unitary", "dephaser.build_dephasing_unitary",
    "dephaser.NoisyChannel.apply", "dephaser.machine_iterate",
    "dephaser.catalytic_chain", "dephaser.transition_channel",
    "qcore.tensor", "qcore.partial_trace", "qcore.trace_norm",
    "qcore.check_density_matrix", "qcore.von_neumann_entropy",
    "qcore.schur_horn_unitary",
    "weylops.weyl_basis", "weylops.weyl_op",
    "recurrence.recurrence_unitary", "recurrence.ContinuousEvolver.__init__",
    "recurrence.ContinuousEvolver.reduced_state",
    "recurrence.hadamard_coefficients", "recurrence.construction_predicted_map",
    "expander.wigner_from_state", "expander.state_from_wigner",
    "expander.walk_apply", "expander.theorem3_verify",
    "pqc.pqc_encode", "pqc.pqc_decode", "pqc.extract_syndrome",
    "bounds.measure_epsilon", "bounds.entropy_budget_check", "bounds.rank_witness",
    "sampling.random_density_matrix", "sampling.random_majorizing_pair",
    "reporting.write_csv", "reporting.write_json",
)


def _dilation_dim(channel) -> int:
    return channel.dilation[0].shape[0] if channel.dilation is not None else channel.dim


def _result_file_size(tracer, args, kwargs, result):
    tracer.add("reporting.bytes_written", result.stat().st_size)


#: Computed counts, taken from argument and return shapes in the wrappers.
#: They depend only on the commands run, so they repeat exactly.
COUNTERS = {
    "dephaser.controlled_basis_unitary":
        lambda t, a, k, r: t.max("dephaser.joint_dim_max", r.shape[0]),
    "dephaser.build_dephasing_unitary":
        lambda t, a, k, r: t.max("dephaser.joint_dim_max", _dilation_dim(r)),
    "dephaser.NoisyChannel.apply":
        lambda t, a, k, r: t.max("dephaser.joint_dim_max", _dilation_dim(a[0])),
    "dephaser.catalytic_chain":
        lambda t, a, k, r: t.max("dephaser.joint_dim_max", r[0].shape[0]),
    "dephaser.machine_iterate":
        lambda t, a, k, r: t.max("dephaser.joint_dim_max", r.dim * r.noise_dim),
    "recurrence.recurrence_unitary":
        lambda t, a, k, r: t.max("recurrence.joint_dim_max", r.shape[0]),
    "recurrence.ContinuousEvolver.__init__":
        lambda t, a, k, r: t.max("recurrence.joint_dim_max",
                                 a[0].system_dim * a[0].ancilla_dim),
    "qcore.tensor":
        lambda t, a, k, r: t.add("qcore.tensor.bytes_out", r.nbytes),
    "reporting.write_csv": _result_file_size,
    "reporting.write_json": _result_file_size,
}

COUNT_NAMES = ("dephaser.joint_dim_max", "recurrence.joint_dim_max",
               "qcore.tensor.bytes_out", "reporting.bytes_written")


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, request]``
    where ``parent`` is the index of the enclosing span (-1 at the root) and
    ``request`` identifies the CLI command that caused it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.request = 0
        self._stack: list[int] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def max(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], int(value))

    def wrap(self, name: str, fn, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function calls and self time, per-module self time, counts.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent on one thread, so they
        never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, dict] = {}
        modules = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s = (end - start) - inner
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            modules[name.split(".", 1)[0]] += self_s
        return {"functions": functions, "modules": modules, "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans whose interval is not inside their parent's, or that end
    before they start; an empty list means the spans nest."""
    errors = []
    for idx, (name, start, end, parent, request) in enumerate(spans):
        if end < start:
            errors.append(f"span {idx} ({name}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= idx or start < p[1] or end > p[2] or request != p[4]:
                errors.append(f"span {idx} ({name}) is not inside its parent {parent}")
    return errors


def _targets(module):
    """(qualified name, owner, attribute, function) for every public
    function defined in ``module`` and every public method (plus an explicit
    ``__init__``) of its classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{short}.{attr}", module, attr, value
        elif inspect.isclass(value):
            for meth, fn in vars(value).items():
                explicit_init = meth == "__init__" and not dataclasses.is_dataclass(value)
                if inspect.isfunction(fn) and (not meth.startswith("_") or explicit_init):
                    yield f"{short}.{attr}.{meth}", value, meth, fn


def install(tracer: Tracer, package: str = "dephaselab") -> dict[str, object]:
    """Wrap every layer of ``package`` with spans recorded by ``tracer``.

    Returns the originals by qualified name, so :func:`uninstall` can put
    them back.
    """
    wrappers = {}
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for qualname, owner, attr, fn in list(_targets(module)):
            wrapped = tracer.wrap(qualname, fn, COUNTERS.get(qualname))
            setattr(owner, attr, wrapped)
            wrappers[id(fn)] = wrapped
            originals[qualname] = (owner, attr, fn)
    _rebind(package, wrappers)
    return originals


def uninstall(originals: dict[str, object], package: str = "dephaselab") -> None:
    """Undo :func:`install`."""
    back = {}
    for owner, attr, fn in originals.values():
        back[id(getattr(owner, attr))] = fn
        setattr(owner, attr, fn)
    _rebind(package, back)


def _rebind(package: str, mapping: dict[int, object]) -> None:
    """Point every module-level name, and every value of a module-level
    dict, that refers to a key function at its replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in mapping:
                setattr(module, attr, mapping[id(value)])
            elif type(value) is dict:
                for key, item in value.items():
                    if id(item) in mapping:
                        value[key] = mapping[id(item)]
