"""Spans around calls into each layer, recorded from outside ``src/``.

:class:`Tracer` replaces a layer's public function at the name its caller
binds (a module global looked up at call time, or a class attribute) with
a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory and are written out once, when the run ends.

Only the main process records.  Work inside forked workers shows up as
``workers.*`` main-process time and reaped-child CPU, never as spans of its
own.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.backends
import repro.core.runner
import repro.durability
import repro.durability.atomic
import repro.io.shards
from repro.core.backends import ExecutionBackend, SerialBackend
from repro.core.runner import RunCheckpointer
from repro.durability.journal import RunJournal
from repro.io.compression import ZlibCodec
from repro.transforms.regrid import Regridder
from repro.workers.backend import ProcessBackend
from repro.workers.supervisor import WorkerSupervisor

#: (owner, attribute, span name): every wrapper the traced run installs.
#: Module-level functions are patched in the module whose code calls them.
#: Only the serial and process backends and the zlib codec are wrapped:
#: they are the ones the workloads run.
TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (RunCheckpointer, "save", "core.runner.checkpoint_save"),
    (RunCheckpointer, "load", "core.runner.checkpoint_load"),
    (RunCheckpointer, "load_verified", "core.runner.checkpoint_load"),
    (repro.core.runner, "fingerprint_payload", "core.plan.fingerprint"),
    (repro.core.runner, "payload_nbytes", "obs.resources.payload_nbytes"),
    (SerialBackend, "map", "core.backends.map"),
    (ProcessBackend, "map", "core.backends.map"),
    (ExecutionBackend, "map_batches", "core.backends.map_batches"),
    (ExecutionBackend, "shard_write", "core.backends.shard_write"),
    (WorkerSupervisor, "run", "workers.map"),
    (Regridder, "__call__", "transforms.regrid"),
    (repro.core.backends, "write_shard", "io.write_shard"),
    (repro.io.shards, "write_shard", "io.write_shard"),
    (ZlibCodec, "compress", "io.compress"),
    (repro.io.shards, "commit_file", "durability.commit"),
    (repro.durability.atomic, "commit_file", "durability.commit"),
    (os, "fsync", "durability.fsync"),
    (RunJournal, "begin", "durability.journal_commit"),
    (RunJournal, "commit_stage", "durability.journal_commit"),
    (RunJournal, "commit_run", "durability.journal_commit"),
    (repro.durability, "recover_run", "durability.recover"),
)


@dataclasses.dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: extra measurements: compress bytes, reaped-child CPU
    attrs: Dict[str, float] = dataclasses.field(default_factory=dict)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:  # a forked worker: not ours
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.op, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            if name == "workers.map":
                child_cpu0 = _children_cpu_s()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
            if name == "io.compress":
                data = args[-1] if len(args) > 1 else kwargs["data"]
                span.attrs = {"bytes_in": len(data), "bytes_out": len(result)}
            elif name == "workers.map":
                span.attrs = {"child_cpu_s": _children_cpu_s() - child_cpu0}
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------
    def layer_metrics(self, op: int) -> Dict[str, float]:
        """Per-layer self time, top-level call counts and extras for one op.

        ``<span>_s`` is self time: the span's duration minus the part its
        child spans cover.  ``<span>_calls`` counts calls not nested in a
        span of the same name (a layer calling itself counts once).
        """
        spans = {i: s for i, s in enumerate(self.spans) if s.op == op}
        child_time: Dict[int, float] = {}
        for s in spans.values():
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        out: Dict[str, float] = {}
        for i, s in spans.items():
            self_s = s.end - s.start - child_time.get(i, 0.0)
            out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + self_s
            if not self._nested_in_same(s, spans):
                out[f"{s.name}_calls"] = out.get(f"{s.name}_calls", 0) + 1
            for key, value in s.attrs.items():
                out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0.0) + value
        bytes_in = out.pop("io.compress.bytes_in", 0.0)
        bytes_out = out.pop("io.compress.bytes_out", 0.0)
        out["io.compress_mb_in"] = bytes_in / 1e6
        out["io.compress_ratio"] = bytes_in / bytes_out if bytes_out else 0.0
        out["workers.fanouts"] = out.pop("workers.map_calls", 0)
        out["workers.child_cpu_s"] = out.pop("workers.map.child_cpu_s", 0.0)
        return out

    @staticmethod
    def _nested_in_same(span: Span, spans: Dict[int, Span]) -> bool:
        parent = span.parent
        while parent is not None:
            if spans[parent].name == span.name:
                return True
            parent = spans[parent].parent
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, **dataclasses.asdict(s)}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def liveness_violations(
    live: Tuple[str, ...], bypassed: Tuple[str, ...], metrics: Dict[str, float]
) -> List[str]:
    """Counters that contradict the workload's prediction (empty = pass).

    A predicted-live counter reading 0 means a wrapper no longer sits on
    the path the program takes; a predicted-bypassed counter reading
    non-zero means the workload no longer isolates what it claims to.
    """
    problems = [f"{name} = 0, predicted live" for name in live if not metrics.get(name)]
    problems += [
        f"{name} = {metrics[name]:g}, predicted bypassed"
        for name in bypassed
        if metrics.get(name)
    ]
    return problems
