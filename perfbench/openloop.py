"""The ``serve`` workload: a 64-stream open loop against the async engine.

One model (N_x=30, 1 channel) is trained, saved, reloaded and deployed into
``AsyncServeEngine(max_batch=64, deadline_ms=10, slack_margin_ms=5)``.
Chunks of T=32 steps arrive on a seeded Poisson schedule at fixed aggregate
rates of 256, 1024 and 4096 chunks/s (550, 550 and 1100 chunks per ladder
pass); a run makes several passes, so each rate gets at least ten samples
beyond its 99th percentile.  Independent streams make this an
open loop: a chunk is sent when it is due, whether or not earlier ones
have finished, so the queue may grow.

The generator here, not ``repro.serve.replay.replay_async``, sends the
traffic, because every chunk must be timed from when it was *due*: a
stall in the generator or the engine is then charged to every chunk it
delays, and the generator's own lateness is reported.  Chunks that error,
are shed or are refused count as misses.

The coroutine handed to ``asyncio.run`` returns nothing: on Python 3.11
asyncio's SIGINT handling keeps the main task alive through teardown,
where its result is repr'd, and a result holding thousands of chunk
results costs seconds there.  Everything measured goes into the
:class:`Recording` passed in.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List

import numpy as np

from perfbench import stats

STREAMS = 64
CHUNK_LEN = 32
N_CHANNELS = 1
N_NODES = 30
#: chunks per rate and pass: the two sustained rates of one pass give 1100
#: latencies, ten beyond their 99th percentile; the overload rate runs
#: longer so that its completion rate settles
CHUNKS = {256: 550, 1024: 550, 4096: 1100}
RATES = tuple(CHUNKS)
#: the rates whose latency the engine is expected to sustain; 4096/s is an
#: overload point that exists for capacity (``max_rate_cps``) alone
LATENCY_RATES = (256, 1024)
DEADLINE_MS = 10.0
ENGINE = {"max_batch": 64, "deadline_ms": DEADLINE_MS, "slack_margin_ms": 5.0}
#: fixed serving parameters of the deployed model
MODEL_A, MODEL_B = 0.4, 0.5


@dataclass
class Rung:
    """The seeded arrivals of one offered rate."""

    rate: float
    offsets: np.ndarray          # due time of each chunk after the rung starts
    streams: np.ndarray          # stream each chunk belongs to
    chunks: np.ndarray           # (n, T, C) payloads


class Recording:
    """What the generator measured for one rung, on the engine clock (s).

    Results are copied into preallocated arrays as they arrive and the
    chunk result objects are dropped, so the generator keeps no growing
    population of Python objects for the garbage collector to scan
    while it measures.
    """

    def __init__(self, n: int, n_classes: int):
        self.due = np.full(n, np.nan)
        self.submitted = np.full(n, np.nan)
        self.done = np.full(n, np.nan)       # nan: failed, shed or refused
        self.completed = np.full(n, np.nan)  # the engine's completion stamp
        self.seq = np.full(n, -1, dtype=np.int64)
        self.labels = np.full(n, -1, dtype=np.int64)
        self.scores = np.full((n, n_classes), np.nan)
        self.failed = 0

    def done_or_none(self) -> list:
        return [None if np.isnan(d) else float(d) for d in self.done]


def make_schedule(seed: int, chunks=CHUNKS) -> List[Rung]:
    """Seeded Poisson arrivals, ``chunks[rate]`` per rate; each chunk goes
    to a uniformly drawn stream, so every stream is itself a Poisson
    process at ``rate / STREAMS``."""
    rng = np.random.default_rng([seed, 1])
    rungs = []
    for rate, n in chunks.items():
        offsets = np.cumsum(rng.exponential(1.0 / rate, n))
        streams = rng.integers(0, STREAMS, n)
        chunks = rng.standard_normal((n, CHUNK_LEN, N_CHANNELS))
        rungs.append(Rung(float(rate), offsets, streams, chunks))
    return rungs


def train_model(seed: int, workdir: Path):
    """Fit, save and reload the served model (the deployed artifact path)."""
    from repro.core.pipeline import DFRFeatureExtractor
    from repro.readout.ridge import select_beta
    from repro.serve.model_store import ServableModel, load_model, save_model

    rng = np.random.default_rng([seed, 0])
    u = rng.standard_normal((96, 2 * CHUNK_LEN, N_CHANNELS))
    y = rng.integers(0, 4, 96)
    extractor = DFRFeatureExtractor(n_nodes=N_NODES, seed=seed).fit(u)
    features, _ = extractor.features(u, MODEL_A, MODEL_B)
    selection = select_beta(features, y, seed=seed)
    model = ServableModel(name="m0", A=MODEL_A, B=MODEL_B,
                          config=extractor.snapshot(),
                          readout=selection.best_model)
    workdir.mkdir(parents=True, exist_ok=True)
    return load_model(save_model(model, str(workdir / "model.json")))


def _label(result) -> int:
    return -1 if result.label is None else result.label


def _on_done(rec: Recording, i: int, future) -> None:
    if future.cancelled() or future.exception() is not None:
        rec.failed += 1
        return
    rec.done[i] = time.monotonic()
    result = future.result()
    rec.completed[i] = result.completed
    rec.seq[i] = result.seq
    rec.labels[i] = _label(result)
    rec.scores[i] = result.scores  # None (a diverged stream) stores nan


async def _drive(model, rungs: List[Rung], recs: List[Recording]) -> None:
    from repro.serve.async_engine import AsyncServeEngine

    async with AsyncServeEngine(**ENGINE) as engine:
        engine.deploy(model)
        sessions = [await engine.open_session(model.name)
                    for _ in range(STREAMS)]
        for rung, rec in zip(rungs, recs):
            futures = []
            base = time.monotonic()
            for i in range(len(rung.offsets)):
                due = base + float(rung.offsets[i])
                delay = due - time.monotonic()
                # yield to the loop either way, so completions are
                # dispatched while the generator runs behind
                await asyncio.sleep(delay if delay > 0 else 0)
                rec.due[i] = due
                rec.submitted[i] = time.monotonic()
                try:
                    future = await sessions[rung.streams[i]].submit(
                        rung.chunks[i])
                except RuntimeError:  # refused (Backpressure) or shut down
                    rec.failed += 1
                    continue
                future.add_done_callback(partial(_on_done, rec, i))
                futures.append(future)
            await asyncio.gather(*futures, return_exceptions=True)
            await asyncio.sleep(0)  # let the last done-callbacks run
        for session in sessions:
            await session.close()


def run_pass(model, rungs: List[Rung]) -> List[Recording]:
    """Send every rung in turn through a fresh engine; one ladder pass."""
    n_classes = model.readout.n_classes
    recs = [Recording(len(r.offsets), n_classes) for r in rungs]
    asyncio.run(_drive(model, rungs, recs))
    return recs


def reference(model, rungs: List[Rung]) -> dict:
    """Every chunk's result from a serial engine (``max_batch=1``).

    Computed outside the timed region.  On NumPy batched serving is
    bit-identical to serial serving and chunked streams to one-shot ones,
    so the async results must equal these exactly.
    """
    from repro.serve.engine import ServeEngine

    engine = ServeEngine(max_batch=1)
    engine.deploy(model)
    sids = [engine.open_session(model.name) for _ in range(STREAMS)]
    for rung in rungs:
        for stream, chunk in zip(rung.streams, rung.chunks):
            engine.submit(sids[stream], chunk)
    engine.drain()
    index = {sid: stream for stream, sid in enumerate(sids)}
    return {(index[r.session_id], r.seq): r for r in engine.pop_results()}


def check_pass(recs: List[Recording], rungs: List[Rung],
               ref: dict) -> List[str]:
    """Compare every served chunk's label and scores with the reference."""
    errors = []
    for rung, rec in zip(rungs, recs):
        for i, stream in enumerate(rung.streams):
            if np.isnan(rec.done[i]):
                continue  # failed chunks are counted as misses, not compared
            key = (int(stream), int(rec.seq[i]))
            want = ref.get(key)
            if want is None or rec.labels[i] != _label(want):
                same = False
            elif want.scores is None:
                same = bool(np.isnan(rec.scores[i]).all())
            else:
                same = np.array_equal(rec.scores[i], want.scores)
            if not same:
                errors.append(f"rate {rung.rate:g}: chunk {key} differs from "
                              f"the serial reference")
    return errors


def rung_metrics(rung: Rung, rec: Recording) -> dict:
    """Latency, deadline share and capacity of one rung of one pass."""
    due = rec.due.tolist()
    done = rec.done_or_none()
    timing = stats.due_time_latency(due, done, rec.submitted.tolist())
    finished = [d for d in done if d is not None]
    # results per second between the first and the last result: at the
    # overload rate this is the engine's capacity
    completed_rate = ((len(finished) - 1) / (max(finished) - min(finished))
                      if len(finished) > 1 else 0.0)
    return {
        "latency_ms": timing["latency_ms"],
        "lateness_ms": timing["lateness_ms"],
        "deadline_met": stats.deadline_met(due, done, DEADLINE_MS / 1e3),
        "kept_up": stats.keeps_up(due, done),
        "completed_per_s": completed_rate,
        "sent": len(rung.offsets),
        "failed": rec.failed,
    }


class ServeWorkload:
    """The 64-stream open loop; one op is one pass up the rate ladder."""

    name = "serve"
    per_op = "one pass up the 256/1024/4096 chunks/s ladder"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int):
        model = train_model(seed, self.workdir)
        rungs = make_schedule(seed)
        # warm-up: a short burst through a live engine
        run_pass(model, make_schedule(seed + 1, {1024: 128}))
        return {"seed": seed, "model": model, "rungs": rungs}

    def op(self, state):
        from perfbench.workloads import Op

        start = time.perf_counter()
        recs = run_pass(state["model"], state["rungs"])
        wall = time.perf_counter() - start
        per_rung = [rung_metrics(r, rec) for r, rec in zip(state["rungs"], recs)]
        sent = sum(m["sent"] for m in per_rung)
        failed = sum(m["failed"] for m in per_rung)
        return Op(wall_s=wall, attempted=sent, failed=failed, work=sent,
                  output=recs, detail={"rungs": per_rung})

    def summary(self, op) -> None:
        return None  # every chunk is checked against the serial reference

    def check(self, ops, state) -> List[str]:
        ref = reference(state["model"], state["rungs"])
        errors = []
        for op in ops:
            errors += check_pass(op.output, state["rungs"], ref)
        return errors
