"""Workloads, their set-up, and one timed operation ("op") each.

An op is one domain pipeline run that takes a raw source already on disk
to committed shards.  Set-up synthesizes the source from the workload
seed, builds a clean serial reference of the shards, and (for the resume
workload) leaves a crashed run behind; every op's output is checked
against the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import durability
from repro.core.backends import get_backend
from repro.core.pipeline import PipelineContext, PipelineRun
from repro.domains import ClimateArchetype, FusionArchetype
from repro.durability.fsfaults import SimulatedCrash
from repro.faults import FaultInjector, FaultSpec
from repro.io.shards import MANIFEST_NAME, ShardManifest

ARCHETYPES = {
    "climate": ClimateArchetype,
    "fusion": FusionArchetype,
}

#: where the resume workload's set-up run dies: after regrid's checkpoint
#: and journal commit, so resuming replays the journal and skips regrid
CRASH_AT = "stage:1:post"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload; its ``why`` lives in ``BENCHMARK.json``."""

    name: str
    domain: str
    #: source-config fields for the measured size (``--small`` drops them,
    #: leaving the source dataclass defaults)
    source_params: Mapping[str, int]
    #: 0 runs ops on the serial backend, N on the process backend
    workers: int = 0
    #: ops recover and resume a run that crashed at :data:`CRASH_AT`
    resume: bool = False
    #: per-layer counters the traced run must see non-zero on every op
    live: Tuple[str, ...] = ()
    #: per-layer counters the traced run must see zero on every op
    bypassed: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "climate-durable", "climate", {"n_timesteps": 480},
            live=("core.runner.checkpoint_save_calls", "core.plan.fingerprint_calls",
                  "obs.resources.payload_nbytes_calls", "core.backends.map_calls",
                  "core.backends.map_batches_calls", "core.backends.shard_write_calls",
                  "transforms.regrid_calls", "io.write_shard_calls", "io.compress_calls",
                  "durability.commit_calls", "durability.fsync_calls",
                  "durability.journal_commit_calls"),
            bypassed=("workers.fanouts", "core.runner.checkpoint_load_calls",
                      "durability.recover_calls"),
        ),
        Workload(
            "fusion-process", "fusion", {"n_shots": 300}, workers=2,
            live=("core.runner.checkpoint_save_calls", "core.plan.fingerprint_calls",
                  "obs.resources.payload_nbytes_calls", "core.backends.map_calls",
                  "core.backends.shard_write_calls", "workers.fanouts",
                  "durability.commit_calls", "durability.fsync_calls",
                  "durability.journal_commit_calls"),
            # shard files are written and compressed inside forked workers,
            # out of sight of the main process's wrappers
            bypassed=("transforms.regrid_calls", "core.backends.map_batches_calls",
                      "io.write_shard_calls", "io.compress_calls",
                      "core.runner.checkpoint_load_calls", "durability.recover_calls"),
        ),
        Workload(
            "climate-resume", "climate", {"n_timesteps": 480}, resume=True,
            live=("durability.recover_calls", "core.runner.checkpoint_load_calls",
                  "core.runner.checkpoint_save_calls", "core.plan.fingerprint_calls",
                  "core.backends.shard_write_calls", "io.write_shard_calls",
                  "io.compress_calls", "durability.journal_commit_calls"),
            bypassed=("transforms.regrid_calls", "core.backends.map_batches_calls",
                      "workers.fanouts"),
        ),
    )
}


@dataclasses.dataclass
class OpSample:
    """What one op cost and whether its output matched the reference."""

    wall_s: float
    cpu_s: float
    n_samples: int
    disk_bytes: int
    error: str = ""
    #: ``stage.<name>_s`` from the run's stage results; the run itself is
    #: not kept, so held payloads cannot inflate the peak RSS of later ops
    stage_s: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digest(shards_dir: Path) -> Dict[str, Any]:
    """Every shard file's sha256 plus the manifest minus writer metadata.

    ``written_by_ranks`` legitimately differs between serial and
    multi-worker runs; everything else (splits, checksums, sample counts)
    must match the reference exactly.
    """
    files = {
        str(p.relative_to(shards_dir)): _sha256(p)
        for p in sorted(shards_dir.rglob("*"))
        if p.is_file() and p.name != MANIFEST_NAME
    }
    manifest = json.loads((shards_dir / MANIFEST_NAME).read_text())
    manifest.get("metadata", {}).pop("written_by_ranks", None)
    return {"files": files, "manifest": manifest}


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Prepared:
    """A workload's set-up: source on disk, serial reference, crashed state."""

    def __init__(self, workload: Workload, seed: int, root: Path, *, small: bool):
        self.workload = workload
        self.seed = seed
        params = {} if small else dict(workload.source_params)
        source_dir = root / "source"
        source_dir.mkdir(parents=True)
        self.source_manifest = self._archetype().synthesize_source(source_dir, **params)
        reference = root / "reference"
        self._run_pipeline(reference / "shards")
        self.reference = output_digest(reference / "shards")
        shutil.rmtree(reference)
        self.crashed: Optional[Path] = None
        if workload.resume:
            self.crashed = root / "crashed"
            injector = FaultInjector(FaultSpec(crash_at=CRASH_AT))
            try:
                self._run_pipeline(
                    self.crashed / "shards",
                    checkpoint_dir=self.crashed / "ckpt",
                    fault_injector=injector,
                )
            except SimulatedCrash:
                pass
            else:
                raise RuntimeError(f"set-up run did not crash at {CRASH_AT}")

    def _archetype(self):
        return ARCHETYPES[self.workload.domain](seed=self.seed)

    def _run_pipeline(self, shards_dir: Path, **options: Any) -> PipelineRun:
        pipeline = self._archetype().build_pipeline(shards_dir)
        context = PipelineContext(agent=f"{self.workload.domain}-pipeline")
        return pipeline.run(self.source_manifest, context, **options)

    def stage_op(self, op_dir: Path) -> None:
        """Untimed: give the next op a clean directory (crashed state copied in)."""
        shutil.rmtree(op_dir, ignore_errors=True)
        if self.crashed is not None:
            shutil.copytree(self.crashed, op_dir)
        else:
            op_dir.mkdir(parents=True)
        # flush the deletes and copies (and set-up's writes) now; otherwise
        # the op's first fsync-triggered journal commit pays for them
        os.sync()

    def op(self, op_dir: Path) -> PipelineRun:
        """The timed work: one pipeline run into *op_dir*."""
        w = self.workload
        shards_dir = op_dir / "shards"
        checkpoint_dir = op_dir / "ckpt"
        report = None
        if w.resume:
            # looked up at call time so the traced run can wrap it
            report = durability.recover_run(checkpoint_dir, shards_dir=shards_dir)
        backend = get_backend("process", workers=w.workers) if w.workers else "serial"
        return self._run_pipeline(
            shards_dir,
            backend=backend,
            checkpoint_dir=checkpoint_dir,
            resume=w.resume,
            recovery_report=report,
        )

    def measure_op(self, op_dir: Path) -> OpSample:
        """Stage, time and check one op; an exception or mismatch fails it."""
        self.stage_op(op_dir)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            run = self.op(op_dir)
        except Exception as exc:  # a failed op is counted, not fatal
            wall = time.perf_counter() - t0
            return OpSample(wall, _cpu_s() - cpu0, 0, 0, f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        stage_s = {f"stage.{r.stage_name}_s": r.seconds for r in run.results}
        del run
        shards_dir = op_dir / "shards"
        error = ""
        n_samples = 0
        try:
            if output_digest(shards_dir) != self.reference:
                error = "output differs from the serial reference"
            n_samples = ShardManifest.from_json(
                (shards_dir / MANIFEST_NAME).read_text()
            ).n_samples
        except (OSError, ValueError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        return OpSample(wall, cpu, n_samples, _tree_bytes(op_dir), error, stage_s)


def peak_rss_reset() -> None:
    """Restart the kernel's high-water RSS mark (``VmHWM``) from now."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


def children_peak_rss_mb() -> float:
    """Largest RSS of any child reaped so far in this process's lifetime.

    The kernel keeps one running maximum over all reaped children and
    offers no way to reset it, so this is not a per-op figure.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6

