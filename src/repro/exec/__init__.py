"""Unified candidate-execution layer for the ``(A, B)`` searches.

Every baseline search in this repo (grid, random, annealing) scores
independent ``(A, B)`` candidates through the identical
:func:`~repro.core.pipeline.evaluate_fixed_params` protocol.  This package
is the single seam those searches submit work through:

* :class:`Candidate` / :class:`EvaluationContext` — a picklable description
  of one point and of everything needed to score it;
* :class:`Executor` — one executor over three independent axes:
  ``workers`` (process-pool sharding under a supervision loop), ``block``
  (candidate-axis fusion: K candidates as ONE stacked ``(K, N, ...)``
  array program) and ``backend`` (a :mod:`repro.backend` spec stamped on
  every context).  Every configuration is bit-identical on NumPy to the
  plain serial loop (``workers=1, block=1``);
* :class:`SerialExecutor` / :class:`BackendExecutor` /
  :class:`VectorizedExecutor` / :class:`MultiprocessExecutor` —
  constructor-only subclasses naming the common configurations;
* :func:`derive_candidate_seed` — spawn-key seed splitting, so per-candidate
  randomness never depends on worker count or scheduling;
* :func:`make_executor` / :func:`resolve_workers` — the ``workers`` /
  ``REPRO_WORKERS`` and ``candidate_block_size`` /
  ``REPRO_CANDIDATE_BLOCK_SIZE`` knobs (plus the ``backend`` spec) shared
  by the classifier, the searches, and the ``repro-bench`` CLI.

See ``docs/ARCHITECTURE.md`` for how this seam relates to the
:class:`~repro.backend.ArrayBackend` seam one layer below it.
"""

from repro.exec.context import (
    Candidate,
    CandidateResult,
    EvaluationContext,
    SubmissionReport,
    evaluate_candidate,
)
from repro.exec.executors import (
    BLOCK_SIZE_ENV_VAR,
    DEFAULT_CANDIDATE_BLOCK_SIZE,
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF_MS,
    WORKERS_ENV_VAR,
    BackendExecutor,
    CandidateExecutor,
    Executor,
    MultiprocessExecutor,
    SerialExecutor,
    VectorizedExecutor,
    make_executor,
    resolve_candidate_block_size,
    resolve_workers,
)
from repro.exec.seeding import derive_candidate_seed, derive_candidate_seeds

__all__ = [
    "Candidate",
    "CandidateResult",
    "EvaluationContext",
    "SubmissionReport",
    "evaluate_candidate",
    "CandidateExecutor",
    "Executor",
    "SerialExecutor",
    "BackendExecutor",
    "MultiprocessExecutor",
    "VectorizedExecutor",
    "WORKERS_ENV_VAR",
    "BLOCK_SIZE_ENV_VAR",
    "DEFAULT_CANDIDATE_BLOCK_SIZE",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RETRY_BACKOFF_MS",
    "make_executor",
    "resolve_candidate_block_size",
    "resolve_workers",
    "derive_candidate_seed",
    "derive_candidate_seeds",
]
