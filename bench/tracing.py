"""Span tracer that wraps restrictlab's public functions from outside the package.

``Tracer.install`` rebinds every public function of the layer modules at each
name a caller looks it up by: ``verifiers.convolve_power`` is rebound apart
from ``spectral.convolve_power``, ``cli.load_measure`` apart from
``measures.load_measure``.  ``ExtensionOperator.restrict`` and ``extend`` are
wrapped on the class.  The rational helpers are only counted, at the names
``probe`` and ``verifiers`` bind them: they are called per iteration, and a
span each would cost more than the call.

Spans are kept in flat arrays (name, start, end, parent, run id) and written
out by ``save``; ``layer_metrics`` derives inclusive time, self time and call
counts from them.  Tracing assumes a single thread, as the workloads run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("measures", "spectral", "regularity", "probe", "verifiers", "cli")
# cli is one layer: its handlers, argparse and artifact writing are its self time
CLI_ENTRY = "main"
RATIONALS_COUNTED = ("exp_float", "is_inf", "conjugate", "validate_exponent")
RATIONALS_BOUND_IN = ("probe", "verifiers")
CONSTRUCTORS = ("dirac", "uniform", "cantor", "random_flat", "circle")


def _op_bytes(op) -> int:
    """Bytes of the dense operator, L * m * 16 (complex128), as computed."""
    return int(op.lattice_size) * int(op.num_atoms) * 16


def _hook_apply(counts: Counter, args, result) -> None:
    counts["probe.apply_bytes_computed"] += _op_bytes(args[0])


def _hook_restrict(counts: Counter, args, result) -> None:
    _hook_apply(counts, args, result)
    vec = np.asarray(args[1])
    counts["probe.restrict_columns"] += 1 if vec.ndim == 1 else vec.shape[1]


def _hook_assemble(counts: Counter, args, result) -> None:
    counts["probe.operator_bytes_computed"] += _op_bytes(result)


def _hook_restriction_norm(counts: Counter, args, result) -> None:
    counts["probe.improving_iters"] += len(result.trace)


def _hook_random_flat(counts: Counter, args, result) -> None:
    counts["measures.random_flat_retries"] += int(result.info.get("retries", 0))


HOOKS = {
    "probe.restrict": _hook_restrict,
    "probe.extend": _hook_apply,
    "probe.assemble": _hook_assemble,
    "probe.restriction_norm": _hook_restriction_norm,
    "measures.random_flat": _hook_random_flat,
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.begin_run(0)

    def begin_run(self, run_id: int) -> None:
        """Spans and counts recorded from now on belong to ``run_id``."""
        self.run_id = run_id
        self._counts = self.counts.setdefault(run_id, Counter())

    # -- wrappers -----------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _span(self, label: str, fn):
        lid = self._label_id(label)
        hook = HOOKS.get(label)
        labels, starts, ends, parents, runs = self.label, self.start, self.end, self.parent, self.run
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self._counts, args, result)
            return result

        return traced

    def _counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._counts["rationals.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, namespace, attr: str, wrapped) -> None:
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapped)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"restrictlab.{name}")
                for name in (*LAYERS, "rationals")}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "restrictlab" or name.startswith("restrictlab.")]
        for layer in LAYERS:
            mod = mods[layer]
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "cli" and name != CLI_ENTRY)):
                    continue
                wrapped = self._span(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, attr, wrapped)
        for layer in RATIONALS_BOUND_IN:
            for name in RATIONALS_COUNTED:
                self._rebind(mods[layer], name, self._counter(getattr(mods[layer], name)))
        op_cls = mods["probe"].ExtensionOperator
        for name in ("restrict", "extend"):
            self._rebind(op_cls, name, self._span(f"probe.{name}", getattr(op_cls, name)))

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def installed(self):
        """Trace calls made inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"labels": np.array(self.labels, dtype=str),
                "label": np.frombuffer(self.label, dtype=np.int_).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
                "run": np.frombuffer(self.run, dtype=np.int_).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one run id, from its spans and counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        in_run = a["run"] == run_id
        ids = {label: i for i, label in enumerate(self.labels)}

        def mask(*labels):
            m = np.zeros(len(dur), dtype=bool)
            for label in labels:
                if label in ids:
                    m |= a["label"] == ids[label]
            return m

        def outermost(m):
            """Drop spans that have an ancestor in the same group."""
            inner = np.zeros(len(dur), dtype=bool)
            cur = parent.copy()
            while (cur >= 0).any():
                live = cur >= 0
                inner[live] |= m[cur[live]]
                cur[live] = parent[cur[live]]
            return m & ~inner

        def total(*labels):
            return float(dur[outermost(mask(*labels)) & in_run].sum())

        def self_time(label):
            return float(own[mask(label) & in_run].sum())

        def calls(label):
            return int((mask(label) & in_run).sum())

        counts = self.counts.get(run_id, Counter())
        iterations = counts["probe.restrict_columns"] - calls("probe.restriction_norm")
        return {
            "probe.restrict_s": total("probe.restrict"),
            "probe.restrict_calls": calls("probe.restrict"),
            "probe.extend_s": total("probe.extend"),
            "probe.extend_calls": calls("probe.extend"),
            "probe.apply_bytes_computed": counts["probe.apply_bytes_computed"],
            "probe.assemble_s": total("probe.assemble"),
            "probe.operator_bytes_computed": counts["probe.operator_bytes_computed"],
            "probe.restriction_norm_s": total("probe.restriction_norm"),
            "probe.restriction_norm_self_s": self_time("probe.restriction_norm"),
            "probe.norm_helpers_s": total("probe.lattice_norm", "probe.measure_norm"),
            "probe.iterations": iterations,
            "probe.improving_iter_ratio": (counts["probe.improving_iters"] / iterations
                                           if iterations else 0.0),
            "rationals.calls": counts["rationals.calls"],
            "spectral.convolve_power_s": total("spectral.convolve_power"),
            "spectral.self_correlation_s": total("spectral.self_correlation"),
            "spectral.fourier_s": total("spectral.fourier"),
            "spectral.density_norm_s": total("spectral.density_norm"),
            "measures.mollify_s": total("measures.mollify"),
            "measures.io_s": total("measures.save_measure", "measures.load_measure"),
            "measures.construct_s": total(*(f"measures.{c}" for c in CONSTRUCTORS)),
            "measures.random_flat_retries": counts["measures.random_flat_retries"],
            "verifiers.check_dual_chain_s": total("verifiers.check_dual_chain"),
            "verifiers.check_dual_chain_self_s": self_time("verifiers.check_dual_chain"),
            "verifiers.props_s": total("verifiers.check_prop1", "verifiers.check_prop2",
                                       "verifiers.check_prop3", "verifiers.knapp_test"),
            "verifiers.lp_norms_s": total("verifiers.torus_lp", "verifiers.lattice_lp"),
            "regularity.ball_masses_s": total("regularity.ball_masses"),
            "regularity.ball_masses_calls": calls("regularity.ball_masses"),
            "cli.main_s": total("cli.main"),
            "cli.self_s": self_time("cli.main"),
        }
