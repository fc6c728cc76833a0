"""Spans around every call into the program, recorded from outside it.

``Tracer.install`` replaces each public function of the program's modules
with a wrapper that records a span (name, parent span, start, end), and
rebinds the wrapper under every name the package's modules import it by:
``require_orthonormal`` is called as a bare name inside ``bell`` and
``protocol``, so wrapping it in ``linalg`` alone would miss those calls.
``Party.sift_masks`` is wrapped on its class.  The benchmark opens its own
``bench.<step>`` spans around each operation, so every span has a root step.

Spans stay in memory in flat arrays until ``Trace`` derives self times
(a span's duration minus the time its direct children cover) and
``save`` writes them out.  Everything runs on one thread: no span waits on
another, so there is no wait time to record.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "linalg", "bell", "protocol", "reconcile", "trits", "tritcrypt")

# Spans whose descendants the per-layer metrics count separately.
SESSION = "protocol.run_protocol"
SOLVES = ("bell.optimize_s3", "bell.optimize_gamma_family")


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        nid, open_, close = self._intern(name), self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def install(self) -> None:
        """Wrap every public function of the program's layers, everywhere it is bound."""
        package = sys.modules["qutrit_qkd"]
        modules = [sys.modules[f"qutrit_qkd.{layer}"] for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(module, attr, wrapped[obj])
        party = sys.modules["qutrit_qkd.protocol"].Party
        self._rebind(party, "sift_masks",
                     self.wrap("protocol.Party.sift_masks", party.sift_masks))

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32), start=np.array(self.start),
            end=np.array(self.end))


class Trace:
    """Per-span durations, self times and ancestry derived from a ``Tracer``."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.array(tracer.name_id, dtype=np.int64)
        parent = np.array(tracer.parent, dtype=np.int64)
        self.duration = np.array(tracer.end) - np.array(tracer.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                              minlength=len(parent))
        self.self_time = self.duration - covered
        # Root step of each span, and whether it runs inside a session or a
        # solve.  A parent is always recorded before its children.
        session = self._id(SESSION)
        solves = {self._id(n) for n in SOLVES}
        ids = self.name_id.tolist()
        root = ids[:]
        in_session = [False] * len(ids)
        in_solve = [False] * len(ids)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                root[i] = root[p]
                in_session[i] = in_session[p] or ids[p] == session
                in_solve[i] = in_solve[p] or ids[p] in solves
        self.root = np.array(root, dtype=np.int64)
        self.inside = {"session": np.array(in_session, dtype=bool),
                       "solve": np.array(in_solve, dtype=bool)}

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _mask(self, name: str) -> np.ndarray:
        return self.name_id == self._id(name)

    def calls(self, name: str, inside: str | None = None, root: str | None = None) -> int:
        """Number of ``name`` spans; only those within a "session" or "solve"
        when ``inside`` is given, and only under root steps whose name starts
        with ``root`` when that is given."""
        mask = self._mask(name)
        if inside is not None:
            mask &= self.inside[inside]
        if root is not None:
            ids = [i for i, n in enumerate(self.names) if n.startswith(root)]
            mask &= np.isin(self.root, ids)
        return int(mask.sum())

    def total(self, name: str) -> float:
        return float(self.duration[self._mask(name)].sum())

    def self_of(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())


RO = "linalg.require_orthonormal"
# Root steps that hold one protocol session each (see workloads.py).
SESSION_STEPS = ("bench.session", "bench.simulate")


def layer_metrics(t: Trace, jobs: int, facts: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric as name -> (value, unit); times and counts are per job."""

    def ratio(a, b):
        return a / b if b else 0.0

    sessions = t.calls(SESSION)
    solves = sum(t.calls(name) for name in SOLVES)
    m = {f"{layer}.self_s": (t.layer_self(layer) / jobs, "s") for layer in ("bench", *LAYERS)}
    for name in (RO, "bell.s3", "bell.outcome_distribution", "bell.unitary_from_params",
                 "bell.canonical_settings"):
        m[f"{name}.calls"] = (t.calls(name) / jobs, "count")
    for name in ("bell.s3", "bell.outcome_distribution"):
        m[f"{name}.mean_us"] = (1e6 * ratio(t.total(name), t.calls(name)), "us")
    m["linalg.validations_per_s3"] = (
        ratio(t.calls(RO, inside="solve"), t.calls("bell.s3", inside="solve")), "count")
    m["linalg.validations_per_s3_unitary"] = (
        ratio(t.calls(RO, root="bench.optimize_unitary"),
              t.calls("bell.s3", root="bench.optimize_unitary")), "count")
    m["linalg.validations_per_session"] = (
        ratio(t.calls(RO, root=SESSION_STEPS), sessions), "count")
    m["bell.s3_per_solve"] = (ratio(t.calls("bell.s3", inside="solve"), solves), "count")
    m["bell.unitary_from_params.self_s"] = (t.self_of("bell.unitary_from_params") / jobs, "s")
    m["bell.optimize.nonconverged"] = (facts.get("nonconverged", 0) / jobs, "count")
    m["protocol.run_session.rounds_per_s"] = (
        ratio(facts.get("rounds", 0), t.total("protocol.run_session")), "1/s")
    m["protocol.tables_per_session"] = (
        ratio(t.calls("bell.outcome_distribution", inside="session"), sessions), "count")
    m["protocol.mask_passes_per_session"] = (
        ratio(t.calls("protocol.Party.sift_masks", inside="session")
              + t.calls("protocol.sift", inside="session"), sessions), "count")
    for name in ("run_session", "sift", "estimate_s3", "run_protocol"):
        m[f"protocol.{name}.self_s"] = (t.self_of(f"protocol.{name}") / jobs, "s")
    nbytes = facts.get("transcript_bytes", 0)
    m["protocol.transcript_bytes"] = (nbytes / jobs, "bytes")
    for name in ("protocol.write_transcript", "protocol.read_transcript"):
        m[f"{name}.s"] = (t.total(name) / jobs, "s")
        m[f"{name}.mb_per_s"] = (ratio(nbytes / 1e6, t.total(name)), "MB/s")
    for name in ("reconcile.parity_sift", "trits.write_key_file", "trits.read_key_file"):
        m[f"{name}.s"] = (t.total(name) / jobs, "s")
    kept, dropped = facts.get("kept_blocks", 0), facts.get("discarded_blocks", 0)
    m["reconcile.kept_ratio"] = (ratio(kept, kept + dropped), "ratio")
    m["trace.spans"] = (len(t.name_id) / jobs, "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
