"""The pipeline engine facade: a plan plus a runner behind the classic API.

The engine is layered (see DESIGN.md, "Engine architecture"):

* :mod:`repro.core.plan` — :class:`StagePlan`, the declarative *what*:
  validated stage ordering, parallelism hints, payload fingerprinting;
* :mod:`repro.core.backends` — :class:`~repro.core.backends.ExecutionBackend`,
  the *how*: serial, thread-pool, process or simulated-SPMD execution of
  stage internals;
* :mod:`repro.core.runner` — :class:`PipelineRunner`, the *doing*:
  evidence/provenance/audit capture, structured run events, checkpointed
  resume, fault tolerance and data gates.

:class:`Pipeline` wraps a plan, and ``Pipeline.run(payload)`` behaves
exactly as the original serial loop did.  Every run option is a keyword
of :class:`PipelineRunner` and is passed through unchanged; the runner's
docstring is the one place they are described.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.levels import DataProcessingStage
from repro.core.plan import (
    Parallelism,
    PipelineError,
    PipelineStage,
    StagePlan,
    fingerprint_payload,
)
from repro.core.runner import (
    CheckpointError,
    PipelineContext,
    PipelineRun,
    PipelineRunner,
    RunCheckpointer,
    RunEventKind,
    StageResult,
)
from repro.faults import OnError, RetryPolicy

__all__ = [
    "Pipeline",
    "PipelineContext",
    "PipelineError",
    "PipelineRun",
    "PipelineRunner",
    "PipelineStage",
    "StagePlan",
    "StageResult",
    "Parallelism",
    "RunEventKind",
    "RunCheckpointer",
    "CheckpointError",
    "fingerprint_payload",
    "OnError",
    "RetryPolicy",
]


class Pipeline:
    """An ordered, validated sequence of stages (facade over the engine).

    Construction validates eagerly via :class:`StagePlan`; :meth:`run`
    drives a :class:`PipelineRunner`.  The default invocation —
    ``Pipeline(name, stages).run(payload)`` — is behaviour-compatible
    with the historical serial engine.
    """

    def __init__(self, name: str, stages: Sequence[PipelineStage]):
        self.plan = StagePlan.build(name, stages)

    @property
    def name(self) -> str:
        return self.plan.name

    @property
    def stages(self) -> List[PipelineStage]:
        return list(self.plan.stages)

    @property
    def stage_names(self) -> List[str]:
        return self.plan.stage_names

    def processing_stages(self) -> List[DataProcessingStage]:
        """Distinct canonical stages covered, in order."""
        return self.plan.processing_stages()

    def describe(self) -> str:
        return self.plan.describe()

    def run(
        self,
        payload: Any,
        context: Optional[PipelineContext] = None,
        *,
        resume: bool = False,
        **options: Any,
    ) -> PipelineRun:
        """Execute all stages; provenance is captured per transition.

        ``options`` are :class:`PipelineRunner` keywords (backend,
        checkpointing, telemetry, fault tolerance, gates, drain, ...);
        without any, this matches the historical serial behaviour.
        """
        return PipelineRunner(self.plan, **options).run(payload, context, resume=resume)
