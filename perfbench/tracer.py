"""In-memory span tracer that wraps qhelab's public API from the outside.

`Tracer.install()` replaces every public function and method of the layer
modules with a recording wrapper.  Methods are wrapped on their classes;
module functions are also rebound in every qhelab namespace that imported
them by name (``from .permkey import t_gate_deterministic``).  Nothing under
``src/`` is edited: the wrappers live only in this process.

Each span stores name, start, end, parent span and op id in flat arrays;
self time (span duration minus the part covered by its child spans) is
computed once at the end.  ``__init__`` and ``__mul__`` are wrapped along
with public names because ``PauliString`` construction and multiplication
are the tableau's inner loop; other dunders and private helpers are not,
so their time lands in the calling public span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("protocol", "permkey", "paulikey", "schemes", "qec", "states",
          "paulis", "gf2")
_DUNDERS = ("__init__", "__mul__")
_NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [_NO_PARENT]
        self.op_id = -1
        self.originals: dict[str, object] = {}
        # argument-dependent counters filled by probes
        self.stab_qubits_max = 0
        self.dense_qubits_max = 0
        self.stab_gates = 0
        self.rows_consumed = 0
        self.classical_msgs = 0
        # per-call time at the sizes of the ROADMAP baselines
        self.stab_200q = [0, 0.0]      # apply_clifford on >= 150 qubits
        self.dense_6q = [0, 0.0]       # DensityMatrix.apply_gate on 6 qubits
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, qualname: str, fn, probe=None):
        nid = self._nid(qualname)
        tr = self
        stack = self._stack
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tr.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(tr, args, end[idx] - start[idx])
            return out

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        """A span opened by the benchmark itself (layer ``bench``)."""
        if op_id is not None:
            self.op_id = op_id
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks an output."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import qhelab
        modules = {name: importlib.import_module(f"qhelab.{name}")
                   for name in LAYERS}
        namespaces = [qhelab] + [importlib.import_module(f"qhelab.{n}")
                                 for n in _all_submodules()]
        rebound: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(f"{layer}.{attr}", obj,
                                   _PROBES.get(f"{layer}.{attr}"))
                    self.originals[f"{layer}.{attr}"] = obj
                    rebound[id(obj)] = w
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = rebound.get(id(obj))
                if w is not None:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            probe = _PROBES.get(qual)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(qual, raw.__func__, probe))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(qual, raw.__func__, probe))
            elif inspect.isfunction(raw):
                new = self._wrap(qual, raw, probe)
            else:
                continue
            self.originals[qual] = raw
            self._undo.append((cls, attr, raw))
            type.__setattr__(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            if inspect.isclass(owner):
                type.__setattr__(owner, attr, obj)
            else:
                setattr(owner, attr, obj)
        self._undo.clear()

    # -- analysis --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        # copies, so the arrays stay resizable after a mid-run summary
        return {"name_id": np.frombuffer(self.name_id, np.int32).copy(),
                "parent": np.frombuffer(self.parent, np.int32).copy(),
                "op": np.frombuffer(self.op, np.int32).copy(),
                "start": np.frombuffer(self.start, np.float64).copy(),
                "end": np.frombuffer(self.end, np.float64).copy()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(s["name_id"], minlength=k)
        incl = np.bincount(s["name_id"], weights=dur, minlength=k)
        selft = np.bincount(s["name_id"], weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(selft[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span once, at the end of the run."""
        s = self.spans()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **s)


def _all_submodules() -> list[str]:
    import pkgutil

    import qhelab
    return [m.name for m in pkgutil.iter_modules(qhelab.__path__)]


# -- probes: counters that need the call's arguments ---------------------------

def _stab_apply(tr: Tracer, args, dur: float) -> None:
    n = args[0].n_qubits
    tr.stab_qubits_max = max(tr.stab_qubits_max, n)
    tr.stab_gates += len(args[1].gates)
    if n >= 150:
        tr.stab_200q[0] += 1
        tr.stab_200q[1] += dur


def _stab_size(tr: Tracer, args, _dur: float) -> None:
    tr.stab_qubits_max = max(tr.stab_qubits_max, args[0].n_qubits)


def _dense_gate(tr: Tracer, args, dur: float) -> None:
    n = args[0].n_qubits
    tr.dense_qubits_max = max(tr.dense_qubits_max, n)
    if n == 6:
        tr.dense_6q[0] += 1
        tr.dense_6q[1] += dur


def _dense_size(tr: Tracer, args, _dur: float) -> None:
    tr.dense_qubits_max = max(tr.dense_qubits_max, args[0].n_qubits)


def _rows_consumed(tr: Tracer, args, _dur: float) -> None:
    # ancilla rows spent by the time the client decrypts: the r of Delta(r, m)
    count = tr.originals["permkey.SpreadRegister.consumed_ancilla_rows"]
    tr.rows_consumed += count(args[0])


def _classical_msg(tr: Tracer, args, _dur: float) -> None:
    if args[2] == "classical-bits":
        tr.classical_msgs += 1


_PROBES = {
    "states.StabilizerState.apply_clifford": _stab_apply,
    "states.StabilizerState.measure_pauli": _stab_size,
    "states.StabilizerState.discard_qubits": _stab_size,
    "states.DensityMatrix.apply_gate": _dense_gate,
    "states.DensityMatrix.measure_pauli": _dense_size,
    "states.DensityMatrix.partial_trace": _dense_size,
    "permkey.SpreadRegister.decrypt": _rows_consumed,
    "protocol.Transcript.log": _classical_msg,
}
