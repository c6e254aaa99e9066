"""Candidate execution: one :class:`Executor` over ``(workers, block, backend)``.

Every ``(A, B)`` candidate of the baseline searches (grid, random,
annealing, descent endpoints) is an independent reservoir sweep, so there
are three independent scaling axes, and :class:`Executor` takes one
argument for each:

* ``workers`` — candidate-level parallelism across worker *processes*;
* ``block`` — candidate-axis *fusion*: a block of K candidates runs as one
  stacked ``(K, N, ...)`` array program (the candidate axis next to the
  sample axis) instead of K independent dispatches;
* ``backend`` — an array-backend spec (:mod:`repro.backend`) stamped onto
  every submitted context, e.g. device-resident sweeps on one accelerator.

The axes compose: ``Executor(2, block=4)`` shards fused blocks of four
candidates across two worker processes.  :class:`CandidateExecutor` is
the seam all search layers submit through, so any configuration composes
with the searches unchanged.

Guarantees of every configuration:

* **determinism** — results are returned in candidate order, and each
  candidate's evaluation depends only on the context and the candidate
  (explicit or spawn-key-derived seed), never on worker count, block size,
  or schedule; on NumPy every configuration is bit-identical to the plain
  serial loop (``workers=1, block=1``), which stays the reference oracle;
* **fault isolation** — a candidate whose evaluation raises is returned as
  a failed :class:`~repro.exec.context.CandidateResult` instead of killing
  the submission (row-wise inside a fused block);
* **two timing views** — wall-clock of the whole submission plus summed
  per-candidate compute seconds, so realized speedup is measurable.

:class:`SerialExecutor`, :class:`BackendExecutor`,
:class:`VectorizedExecutor` and :class:`MultiprocessExecutor` are
constructor-only subclasses that keep their historical signatures;
:func:`make_executor` returns the one that names the resolved
configuration.  It takes ``workers`` from its argument or
``REPRO_WORKERS`` and ``block`` from its argument or
``REPRO_CANDIDATE_BLOCK_SIZE``; absent both, execution is serial.

Supervision: with ``workers > 1`` every submission runs under a
supervision loop — optional per-task timeout (``task_timeout_ms``),
dead-worker detection with pool rebuild, and bounded retry with
exponential backoff (``max_retries`` / ``backoff_ms``).  Lost or
transiently failed work units are re-dispatched through the same
per-candidate seed derivation, so a recovered run is bit-identical to a
fault-free one on NumPy; a unit that keeps failing resolves to failed
:class:`CandidateResult` records (the ``failed()`` sentinel downstream)
instead of sinking the search.
"""

from __future__ import annotations

import atexit
import math
import os
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.context import (
    Candidate,
    CandidateResult,
    EvaluationContext,
    SubmissionReport,
    evaluate_candidate,
)
from repro import faults

__all__ = [
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
    "resolve_workers",
    "resolve_candidate_block_size",
    "make_executor",
]

#: environment variable consulted when no explicit worker count is given
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: environment variable consulted when no explicit candidate block is given
BLOCK_SIZE_ENV_VAR = "REPRO_CANDIDATE_BLOCK_SIZE"

#: default bounded-retry budget per work unit before the failed() sentinel
DEFAULT_MAX_RETRIES = 3

#: default base backoff between re-dispatches (doubles per attempt)
DEFAULT_RETRY_BACKOFF_MS = 10.0

#: default candidates per fused block: large enough to amortize the shared
#: standardize/mask phase, small enough that a block's stacked trace
#: (K x N x (T+1) x N_x doubles) stays comfortably in memory
DEFAULT_CANDIDATE_BLOCK_SIZE = 16


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve an effective worker count (>= 1).

    Explicit ``workers`` wins; ``None`` consults ``REPRO_WORKERS``; an
    unset/invalid variable means serial.  Values below 1 clamp to 1.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            workers = 1
    return max(1, int(workers))


def resolve_candidate_block_size(
        block_size: Optional[int] = None,
        default: int = DEFAULT_CANDIDATE_BLOCK_SIZE) -> int:
    """Resolve a candidate block size (>= 1).

    Explicit ``block_size`` wins; ``None`` consults
    ``REPRO_CANDIDATE_BLOCK_SIZE``; absent/invalid both, ``default``
    applies (``DEFAULT_CANDIDATE_BLOCK_SIZE`` for fused training chunks,
    1 — no fusion — for :func:`make_executor`).
    """
    if block_size is None:
        raw = os.environ.get(BLOCK_SIZE_ENV_VAR, "").strip()
        try:
            block_size = int(raw) if raw else default
        except ValueError:
            block_size = default
        # env values are best-effort fleet-wide hints: anything invalid
        # (non-numeric or < 1) falls back to the default rather than
        # raising in every default-constructed search
        return block_size if block_size >= 1 else default
    block_size = int(block_size)
    if block_size < 1:
        raise ValueError(f"candidate block size must be >= 1, got {block_size}")
    return block_size


class CandidateExecutor:
    """Protocol: map an :class:`EvaluationContext` over candidates.

    Implementations must return one :class:`CandidateResult` per candidate,
    in submission order, and must not propagate per-candidate exceptions.
    """

    #: effective worker count (1 for in-process executors)
    workers: int = 1
    #: array-backend spec stamped onto submitted contexts (None: untouched)
    backend_spec: Optional[str] = None
    #: whether submitting a whole batch at once buys this executor anything
    #: (process-level overlap, or candidate-axis fusion).  Speculative
    #: annealing keys its lazy-vs-eager decision on this: executors that
    #: evaluate candidates one by one anyway (serial, backend) are handed
    #: proposals lazily so nothing is wasted, while batch-preferring
    #: executors receive the whole speculative batch eagerly and the
    #: discarded tail is counted as real (wasted) evaluations.
    prefers_batch: bool = False

    def run(self, context: EvaluationContext,
            candidates: Sequence[Candidate]) -> SubmissionReport:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (worker processes); idempotent."""

    def __enter__(self) -> "CandidateExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(workers={self.workers})"


# Executors holding worker pools register here so an interrupted search
# (KeyboardInterrupt, sys.exit mid-run) cannot leak worker processes: the
# atexit sweep closes whatever is still alive at interpreter shutdown.
_LIVE_EXECUTORS: "weakref.WeakSet[CandidateExecutor]" = weakref.WeakSet()


@atexit.register
def _close_live_executors() -> None:
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def _evaluate_local(context: EvaluationContext,
                    candidates: Sequence[Candidate],
                    block: int) -> List[CandidateResult]:
    """Score ``candidates`` in this process, in order.

    At ``block == 1`` this is the plain serial loop — the reference every
    other configuration is pinned bit-identical to.  At ``block > 1``
    candidates run as fused blocks through
    :meth:`~repro.exec.context.EvaluationContext.evaluate_block`, and every
    failure funnels through the serial loop so failure *records* match it
    bit for bit: a candidate with non-finite parameters is scored serially
    up front, a row whose scoring raised inside the block (or that a fault
    plan marks corrupted) is re-scored serially on its own, and a block
    whose fused sweep fails outright is scored serially as a whole.
    """
    if block == 1:
        return [evaluate_candidate(context, c) for c in candidates]
    results: List[Optional[CandidateResult]] = [None] * len(candidates)
    fusable = []
    for pos, candidate in enumerate(candidates):
        if math.isfinite(candidate.A) and math.isfinite(candidate.B):
            fusable.append((pos, candidate))
        else:
            # non-finite parameters would poison the whole stacked sweep
            results[pos] = evaluate_candidate(context, candidate)
    for lo in range(0, len(fusable), block):
        chunk = fusable[lo:lo + block]
        t0 = time.perf_counter()
        try:
            evaluations = context.evaluate_block([c for _, c in chunk])
        except Exception:
            # a failed fused sweep must not cost any results
            for pos, candidate in chunk:
                results[pos] = evaluate_candidate(context, candidate)
            continue
        per_candidate = (time.perf_counter() - t0) / len(chunk)
        for (pos, candidate), evaluation in zip(chunk, evaluations):
            if (faults.should_corrupt_row(candidate.index)
                    or evaluation.error is not None):
                # a deterministic failure reproduces the exact serial
                # record (traceback and all); a transient one recovers
                results[pos] = evaluate_candidate(context, candidate)
            else:
                results[pos] = CandidateResult(
                    candidate=candidate, evaluation=evaluation,
                    compute_seconds=per_candidate,
                )
    return results


# module-level worker state: the context and block size are shipped once
# per worker via the pool initializer instead of once per candidate
_WORKER_CONTEXT: Optional[EvaluationContext] = None
_WORKER_BLOCK: int = 1


def _init_worker(context: EvaluationContext, block: int) -> None:
    global _WORKER_CONTEXT, _WORKER_BLOCK
    _WORKER_CONTEXT = context
    _WORKER_BLOCK = block


def _worker_run(task) -> List[CandidateResult]:
    """Evaluate one dispatch group in a worker process.

    ``task`` is ``(candidates, attempt)``: the attempt number travels with
    the group so the fault seam — consulted per candidate *before*
    evaluation — stops firing once a re-dispatched group has outlived a
    fault's ``times`` budget.  The group then runs through the same
    in-process path as ``workers=1`` against the worker-resident context.
    Ordinary evaluation failures are captured by
    :func:`evaluate_candidate` (data, not infrastructure); only
    injected/transient faults propagate out of this wrapper.
    """
    candidates, attempt = task
    for candidate in candidates:
        faults.on_worker_candidate(candidate.index, attempt)
    return _evaluate_local(_WORKER_CONTEXT, candidates, _WORKER_BLOCK)


class Executor(CandidateExecutor):
    """Evaluate candidates over ``workers`` processes, ``block`` at a time.

    Parameters
    ----------
    workers:
        Process count; ``None`` resolves through ``REPRO_WORKERS``.  At 1
        candidates run in this process.
    block:
        Candidates fused per stacked sweep; 1 is the plain serial loop.
        Peak trace memory scales linearly with the block.
    backend:
        Array-backend spec (``"torch"``, ``"torch:cuda:1"``, ``"cupy"``,
        ``"numpy"``) stamped onto submitted contexts; resolved eagerly, so
        an uninstalled backend fails at construction time, not
        mid-search.  ``None`` leaves the context's own backend in place.
        The spec travels on the (picklable) context, so it also reaches
        worker processes.
    chunksize:
        Candidates per dispatch *group* when ``workers > 1`` and
        ``block == 1``; ``None`` picks ``ceil(n / (4 * workers))`` — small
        enough to balance load, large enough to amortize IPC.  With
        ``block > 1`` the group is one fused block.  The group is both the
        IPC unit and the retry / re-dispatch unit of the supervision loop.
    max_retries:
        Bounded retry budget per dispatch group.  A group still failing
        after the budget resolves to failed :class:`CandidateResult`
        records — the ``failed()`` sentinel downstream — instead of
        sinking (or hanging) the search.
    backoff_ms:
        Base pause before a re-dispatch, doubling per attempt (capped at
        1 s).
    task_timeout_ms:
        Per-dispatch-group timeout; 0 (the default) disables it.  An
        overdue group's worker processes are terminated — wedged-worker
        recovery — and the group re-dispatches like any other lost unit,
        charged once against its retry budget.

    The context (data arrays + extractor config) is pickled once per worker
    through the pool initializer; each candidate then costs only a few
    floats of IPC.  The pool persists across :meth:`run` calls that submit
    the *same* context object (e.g. every speculative-annealing round, or
    all levels of one ``search_until``), so repeated submissions pay the
    process spawn and context transfer once.  Submitting a different
    context replaces the pool.  Single-candidate submissions with no live
    pool are evaluated in-process.

    **Supervision.**  Every dispatch group is submitted as a future.  A
    hard worker crash breaks the pool: all in-flight groups are marked
    lost, the pool is rebuilt, and the lost groups re-dispatch
    (``SubmissionReport.redispatches``).  A transient in-worker failure —
    :class:`~repro.faults.FaultInjected` from the fault seam, or any
    unexpected wrapper exception — retries the same way
    (``SubmissionReport.retries``), with exponential backoff between
    waves.  Because per-candidate seeds derive from the context and
    candidate index alone (never from scheduling), a re-dispatched group
    reproduces exactly what the lost worker would have produced.
    Ordinary evaluation errors are *results* (captured by
    :func:`evaluate_candidate`) and are never retried.

    The executor is a context manager and registers with an atexit sweep,
    so interrupted searches don't leak worker processes; call
    :meth:`close` to release them deterministically.
    """

    def __init__(self, workers: Optional[int] = 1, block: int = 1,
                 backend: Optional[str] = None, *,
                 chunksize: Optional[int] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
                 task_timeout_ms: float = 0.0):
        self.workers = resolve_workers(workers)
        self.block = resolve_candidate_block_size(block)
        if backend is not None:
            from repro.backend import resolve_backend

            resolve_backend(backend)
        self.backend_spec = backend
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize
        self.max_retries = int(max_retries)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.backoff_ms = float(backoff_ms)
        if not self.backoff_ms >= 0:
            raise ValueError(f"backoff_ms must be >= 0, got {backoff_ms}")
        self.task_timeout_ms = float(task_timeout_ms)
        if not self.task_timeout_ms >= 0:
            raise ValueError(
                f"task_timeout_ms must be >= 0, got {task_timeout_ms}")
        #: lifetime supervision counters, summed across submissions
        self.total_retries = 0
        self.total_redispatches = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_context: Optional[EvaluationContext] = None
        if self.workers > 1:
            _LIVE_EXECUTORS.add(self)

    @property
    def prefers_batch(self) -> bool:
        # a batch buys process-level overlap or candidate-axis fusion;
        # otherwise speculative callers hand candidates over lazily
        return self.workers > 1 or self.block > 1

    def _apply_backend(self, context: EvaluationContext) -> EvaluationContext:
        """Stamp :attr:`backend_spec` onto ``context`` (cached per source).

        The retargeted copy is cached by source-context identity so that
        repeated submissions of one context — annealing rounds, the levels
        of a recursive grid — keep hitting the same object (extractor reuse
        in-process, pool reuse across processes).
        """
        if self.backend_spec is None or context.backend == self.backend_spec:
            return context
        if getattr(self, "_retarget_source", None) is not context:
            self._retargeted = replace(context, backend=self.backend_spec)
            self._retarget_source = context
        return self._retargeted

    def run(self, context: EvaluationContext,
            candidates: Sequence[Candidate]) -> SubmissionReport:
        start = time.perf_counter()
        context = self._apply_backend(context)
        reusable = self._pool is not None and self._pool_context is context
        if self.workers == 1 or (len(candidates) < 2 and not reusable):
            results = _evaluate_local(context, candidates, self.block)
            retries = redispatches = 0
        else:
            results, retries, redispatches = self._supervise(
                context, candidates)
            self.total_retries += retries
            self.total_redispatches += redispatches
        return SubmissionReport(
            results=results, wall_seconds=time.perf_counter() - start,
            retries=retries, redispatches=redispatches,
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_context = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"{type(self).__name__}(workers={self.workers}, "
                f"block={self.block}, backend={self.backend_spec!r})")

    # ------------------------------------------------------------------ #
    # worker pool and supervision (workers > 1)
    # ------------------------------------------------------------------ #

    def _get_pool(self, context: EvaluationContext) -> ProcessPoolExecutor:
        if self._pool is None or self._pool_context is not context:
            self.close()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(context, self.block),
            )
            self._pool_context = context
        return self._pool

    def _terminate_workers(self) -> bool:
        """Hard-kill the pool's worker processes (wedged-task recovery).

        Termination surfaces as a broken pool, which the supervision loop
        already knows how to recover from.  Returns False when no worker
        processes could be found to kill.
        """
        processes = getattr(self._pool, "_processes", None)
        if not processes:
            return False
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass
        return True

    def _backoff_s(self, attempt: int) -> float:
        if self.backoff_ms <= 0:
            return 0.0
        return min(self.backoff_ms * (2.0 ** max(attempt - 1, 0)), 1000.0) / 1e3

    def _supervise(self, context: EvaluationContext,
                   candidates: Sequence[Candidate],
                   ) -> Tuple[List[CandidateResult], int, int]:
        """Shard ``candidates`` over the pool; ``(results, retries, redispatches)``."""
        if self.block > 1:
            group_size = self.block
        elif self.chunksize is not None:
            group_size = self.chunksize
        else:
            group_size = max(1, -(-len(candidates) // (4 * self.workers)))
        groups = [(lo, list(candidates[lo:lo + group_size]))
                  for lo in range(0, len(candidates), group_size)]
        results: List[Optional[CandidateResult]] = [None] * len(candidates)
        # attempts charge the bounded retry budget and only grow on
        # *attributed* failures; requeues drive backoff and travel to the
        # workers so the fault seam sees every re-dispatch
        attempts: Dict[int, int] = {gi: 0 for gi in range(len(groups))}
        requeues: Dict[int, int] = {gi: 0 for gi in range(len(groups))}
        last_error: Dict[int, str] = {}
        retries = redispatches = 0
        pending: Dict[object, tuple] = {}  # future -> (group idx, t0)
        ready: List[int] = list(range(len(groups)))
        # after a pool break the culprit is unknowable (every in-flight
        # future fails at once), so nobody is charged and re-dispatch runs
        # in probe mode — one group in flight at a time — where a repeat
        # break is attributable to the single running group.  A poisoned
        # group therefore exhausts ITS budget without draining anyone
        # else's, and collateral groups always recover.
        probe = False
        # groups already charged by their own stopwatch for the break
        # their timeout is about to cause
        timed_out: set = set()

        def record(gi: int, group_results: List[CandidateResult]) -> None:
            lo = groups[gi][0]
            for offset, result in enumerate(group_results):
                results[lo + offset] = result

        def give_up(gi: int) -> None:
            for offset, candidate in enumerate(groups[gi][1]):
                results[groups[gi][0] + offset] = CandidateResult(
                    candidate=candidate, evaluation=None,
                    error=last_error.get(gi, "worker lost"),
                )

        timeout_s = (self.task_timeout_ms / 1e3
                     if self.task_timeout_ms > 0 else None)
        # supervision wake interval while dispatches are in flight
        beat = max(timeout_s / 4, 1e-3) if timeout_s is not None else None
        while ready or pending:
            while ready and (not probe or not pending):
                gi = ready.pop(0)
                if attempts[gi] > self.max_retries:
                    give_up(gi)
                    continue
                if requeues[gi] > 0:
                    backoff = self._backoff_s(requeues[gi])
                    if backoff > 0:
                        time.sleep(backoff)
                pool = self._get_pool(context)
                fut = pool.submit(_worker_run, (groups[gi][1], requeues[gi]))
                pending[fut] = (gi, time.monotonic())
                if probe:
                    break
            if not pending:
                continue
            done, _ = wait(set(pending), timeout=beat,
                           return_when=FIRST_COMPLETED)
            if not done and timeout_s is not None:
                now = time.monotonic()
                overdue = [(f, gi) for f, (gi, t0) in pending.items()
                           if now - t0 > timeout_s]
                if overdue:
                    # a hung task is attributable by its own stopwatch:
                    # charge it, then kill the workers — the break is
                    # handled below as an ordinary lost-worker event
                    for _f, gi in overdue:
                        attempts[gi] += 1
                        timed_out.add(gi)
                        last_error[gi] = (
                            f"task timed out after {self.task_timeout_ms:g} ms"
                        )
                    if not self._terminate_workers():
                        # pathological fallback (no reachable worker
                        # handles): abandon the overdue futures so the
                        # loop cannot spin forever
                        for fut, gi in overdue:
                            pending.pop(fut)
                            give_up(gi)
                continue
            lost: List[int] = []
            transient: List[int] = []
            broken = False
            for fut in done:
                gi, _t0 = pending.pop(fut)
                try:
                    record(gi, fut.result())
                except BrokenProcessPool as exc:
                    broken = True
                    lost.append(gi)
                    last_error.setdefault(gi, f"worker lost: {exc!r}")
                except Exception as exc:
                    transient.append(gi)
                    attempts[gi] += 1  # attributed: its own future raised
                    last_error[gi] = f"{type(exc).__name__}: {exc}"
            if broken:
                # the pool is unusable: every other in-flight group is
                # lost too (harvest any that finished first), rebuild
                for fut, (gi, _t0) in list(pending.items()):
                    harvested = False
                    if fut.done():
                        try:
                            record(gi, fut.result())
                            harvested = True
                        except Exception as exc:
                            last_error.setdefault(
                                gi, f"worker lost: {exc!r}")
                    else:
                        last_error.setdefault(
                            gi, "worker lost: pool broke mid-flight")
                    if not harvested:
                        lost.append(gi)
                pending.clear()
                self.close()
                if probe and len(lost) == 1 and lost[0] not in timed_out:
                    # single-flight probe: the break IS this group's fault
                    # (a timed-out group was already charged above)
                    attempts[lost[0]] += 1
                timed_out.clear()
                probe = True
            for gi in lost:
                redispatches += 1
                requeues[gi] += 1
                ready.append(gi)
            for gi in transient:
                retries += 1
                requeues[gi] += 1
                ready.append(gi)
        return results, retries, redispatches


class SerialExecutor(Executor):
    """In-process sequential evaluation (the reference implementation)."""

    def __init__(self):
        super().__init__()


class BackendExecutor(Executor):
    """In-process sequential evaluation on one array backend.

    Every reservoir sweep and DPRR contraction runs on the given
    :mod:`repro.backend` backend — the execution mode for a single
    accelerator, where one device evaluating dense batched sweeps replaces
    a pool of CPU workers.  With ``backend="numpy"`` this is bit-identical
    to :class:`SerialExecutor` (pinned by ``tests/test_backend.py``).
    """

    def __init__(self, backend: Optional[str] = None):
        super().__init__(backend=backend)


class VectorizedExecutor(Executor):
    """In-process candidate-axis fusion in blocks of ``block_size``.

    ``block_size=None`` resolves through ``REPRO_CANDIDATE_BLOCK_SIZE``
    (default ``DEFAULT_CANDIDATE_BLOCK_SIZE``).  On NumPy results are
    bit-identical to :class:`SerialExecutor` (pinned by tests).
    """

    def __init__(self, block_size: Optional[int] = None,
                 backend: Optional[str] = None):
        super().__init__(block=resolve_candidate_block_size(block_size),
                         backend=backend)


class MultiprocessExecutor(Executor):
    """Process-pool sharding, optionally over fused blocks per worker.

    ``vectorized_block_size`` is the per-worker fused block (two-level
    fusion); ``None`` maps plain per-candidate evaluation.
    """

    def __init__(self, workers: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 vectorized_block_size: Optional[int] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
                 task_timeout_ms: float = 0.0,
                 backend: Optional[str] = None):
        super().__init__(
            workers,
            1 if vectorized_block_size is None else vectorized_block_size,
            backend, chunksize=chunksize, max_retries=max_retries,
            backoff_ms=backoff_ms, task_timeout_ms=task_timeout_ms,
        )


def make_executor(workers: Optional[int] = None,
                  backend: Optional[str] = None,
                  block: Optional[int] = None) -> Executor:
    """Build the executor for ``(workers, block, backend)``.

    ``workers`` comes from the argument or ``REPRO_WORKERS``, ``block``
    from the argument or ``REPRO_CANDIDATE_BLOCK_SIZE``, each else 1.  The
    returned subclass names the configuration: more than one worker gives
    a :class:`MultiprocessExecutor` (fused per worker when ``block > 1``),
    else ``block > 1`` a :class:`VectorizedExecutor`, else a backend spec a
    :class:`BackendExecutor`, else a :class:`SerialExecutor`.
    """
    n = resolve_workers(workers)
    b = resolve_candidate_block_size(block, default=1)
    if n > 1:
        return MultiprocessExecutor(n, vectorized_block_size=b,
                                    backend=backend)
    if b > 1:
        return VectorizedExecutor(b, backend=backend)
    if backend is not None:
        return BackendExecutor(backend)
    return SerialExecutor()
