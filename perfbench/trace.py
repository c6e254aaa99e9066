"""Spans around the calls into each layer's public functions.

The program has no tracing of its own, so the traced run wraps, from the
benchmark's side, the public functions each layer exports and records one
span per call: name, start, end, parent, thread and request id.  Spans
stay in memory and are written when the run ends, as Chrome trace-event
JSON plus a flat table of calls, total and self time per layer.

Two module-resolution traps decide where a wrapper must go:

* ``repro.readout.softmax`` the *module* is shadowed by the ``softmax``
  function that ``repro.readout`` re-exports, so the module is reached
  through ``sys.modules``;
* ``select_beta`` is imported by name into ``repro.core.pipeline``, so it
  is patched there as well as in ``repro.readout.ridge``.

Methods are patched on their class, which every import style sees.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.stats import self_time

_MISSING = object()


class Tracer:
    """Records spans from any thread; one per benchmark run.

    A span is ``(id, name, start, end, parent, thread, request)``.  The
    parent is the innermost open span on the same thread, so a span opened
    on the serving engine's tick thread nests under that thread's own
    spans, never under the event loop's.  ``request`` is the id of the
    piece of work the span serves (a candidate index, a sample ordinal, or
    ``(session, seq)``); spans that open no request inherit their
    parent's current one.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def wrap(self, name: str, fn: Callable, *,
             request: Optional[Callable] = None,
             result_request: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span ``name`` per call.

        ``request(args, kwargs)`` may return the request id the call
        serves, opening it for the parent's later children too;
        ``result_request(args, kwargs, result)`` does the same for ids
        known only once the call returns.  ``after(args, kwargs, result)``
        sees every successful result.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            rid = request(args, kwargs) if request is not None else None
            if rid is None:
                rid = parent[2] if parent is not None else None
            elif parent is not None:
                parent[2] = rid
            frame = [next(tracer._ids), name, rid]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                if result_request is not None:
                    frame[2] = result_request(args, kwargs, result)
                    if parent is not None:
                        parent[2] = frame[2]
            finally:
                # a call that raises still spent its time in the layer
                tracer.spans.append((
                    frame[0], name, start, tracer.clock(),
                    parent[0] if parent is not None else None,
                    threading.get_ident(), frame[2],
                ))
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name`` (no span: hot per-step calls)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` by ``make(old)``."""
        module_name, _, qual = target.partition(":")
        importlib.import_module(module_name)
        # sys.modules, not the attribute chain: a package may re-export a
        # function under its submodule's name (repro.readout.softmax)
        owner = sys.modules[module_name]
        *classes, attr = qual.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # a method inherited from a base class is restored by deleting the
        # override, not by copying the base's function onto the subclass
        saved = owner.__dict__.get(attr, _MISSING) if classes else getattr(owner, attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._patches.append((owner, attr, saved))

    def unpatch(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def layer_table(self) -> Dict[str, dict]:
        """``{name: {calls, total_s, self_s}}`` over every recorded span."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        table: Dict[str, dict] = {}
        for sid, name, start, end, _, _, _ in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_time(start, end, children.get(sid, ()))
        for name, n in self.counts.items():
            table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            table[name]["calls"] += n
        return table

    def spans_named(self, name: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of every span called ``name``, by start."""
        return sorted((s[2], s[3]) for s in self.spans if s[1] == name)

    def write(self, directory: Path) -> Dict[str, Path]:
        """Write ``trace.json`` (Chrome trace events) and ``layers.json``/``.txt``."""
        directory.mkdir(parents=True, exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": tid,
            "args": {"id": sid, "parent": parent,
                     "request": None if rid is None else str(rid)},
        } for sid, name, start, end, parent, tid, rid in self.spans]
        trace_path = directory / "trace.json"
        with open(trace_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        table = self.layer_table()
        layers_path = directory / "layers.json"
        with open(layers_path, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
        text_path = directory / "layers.txt"
        text_path.write_text(format_table(table) + "\n")
        return {"trace": trace_path, "layers": layers_path, "table": text_path}


def format_table(table: Dict[str, dict]) -> str:
    """The per-layer table, largest self time first."""
    lines = [f"{'layer':<26} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<26} {row['calls']:>9d} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f}")
    return "\n".join(lines)


class LayerProbe:
    """Installs the layer wrappers and keeps the counts they derive.

    Besides spans, some layers report a count read from their own results:
    ridge solves per sweep, executor overhead, failures and retries,
    diverged evaluations, idle ticks, rows per sweep and the population's
    active share.  Each count is written from one thread only (the serve
    counts from the tick thread), so the counters need no lock.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.values: Counter = Counter()
        self._fit_samples = 0

    # request ids ------------------------------------------------------ #

    @staticmethod
    def _candidate(args, kwargs):
        work = args[1] if len(args) > 1 else (
            kwargs.get("candidate") or kwargs["candidates"])
        if isinstance(work, (list, tuple)):  # evaluate_block
            return tuple(c.index for c in work)
        return work.index

    def _sample(self, args, kwargs):
        # a reservoir run directly under a trainer is the next sample
        # (per-sample SGD) or minibatch (batched engines) of that fit
        if self.tracer.parent_name() in ("trainer.fit", "population.fit"):
            self._fit_samples += 1
            return self._fit_samples - 1
        return None

    # derived counts --------------------------------------------------- #

    def _after_sweep(self, args, kwargs, result):
        betas = args[2] if len(args) > 2 else kwargs["betas"]
        self.values["readout.ridge_solves"] += len(betas)

    def _after_exec(self, args, kwargs, report):
        self.values["exec.compute_s"] += report.compute_seconds
        self.values["exec.failed"] += report.n_failed
        self.values["exec.retries"] += report.retries + report.redispatches

    def _after_evaluate(self, args, kwargs, result):
        rows = result if isinstance(result, list) else [result]
        self.values["pipeline.evaluations"] += len(rows)
        self.values["pipeline.diverged"] += sum(1 for r in rows if r.diverged)

    def _after_tick(self, args, kwargs, report):
        self.values["serve.ticks"] += 1
        self.values["serve.idle_ticks"] += report.processed == 0
        self.values["serve.sweeps"] += report.sweeps
        self.values["serve.rows"] += report.rows_computed
        self.values["serve.violations"] += report.violations
        self.values["serve.shed"] += report.shed
        self.values["serve.sweep_retries"] += report.sweep_retries

    def _after_population(self, args, kwargs, result):
        trainer = args[0]
        self.values["population.active"] += sum(result.active_per_epoch)
        self.values["population.slots"] += (result.population
                                            * trainer.config.epochs)

    @staticmethod
    def _submitted(args, kwargs, seq):
        return (args[1], seq)

    # installation ----------------------------------------------------- #

    def install(self) -> None:
        t = self.tracer
        span = lambda name, **kw: (lambda fn: t.wrap(name, fn, **kw))  # noqa: E731
        count = lambda name: (lambda fn: t.count(name, fn))  # noqa: E731
        nb = "repro.backend.numpy_backend:NumpyBackend."
        plan = [
            ("repro.readout.ridge:fit_ridge_sweep",
             span("readout.ridge_sweep", after=self._after_sweep)),
            ("repro.readout.ridge:select_beta", span("readout.select_beta")),
            ("repro.core.pipeline:select_beta", span("readout.select_beta")),
            ("repro.readout.softmax:SoftmaxReadout.loss_and_grads",
             span("readout.softmax")),
            ("repro.readout.softmax:SoftmaxReadout.batch_loss_and_grads",
             span("readout.softmax")),
            ("repro.reservoir.modular:ModularDFR.run",
             span("reservoir.run", request=self._sample)),
            ("repro.reservoir.modular:ModularDFR.run_streaming",
             span("reservoir.run_streaming")),
            (nb + "masked_drive", span("backend.drive")),
            (nb + "streaming_masked_drive", span("backend.drive")),
            (nb + "first_order_filter", span("backend.filter")),
            (nb + "first_order_filter_stacked", span("backend.filter")),
            (nb + "lfilter_general", span("backend.filter")),
            (nb + "roll", count("backend.roll")),
            (nb + "to_numpy", count("backend.to_host")),
            ("repro.representation.dprr:DPRR.features", span("dprr.features")),
            ("repro.core.backprop:BackpropEngine.sample_gradients",
             span("backprop.gradients")),
            ("repro.core.backprop:BackpropEngine.batch_gradients",
             span("backprop.gradients")),
            ("repro.core.trainer:BackpropTrainer.fit", span("trainer.fit")),
            ("repro.core.population:PopulationTrainer.fit",
             span("population.fit", after=self._after_population)),
            ("repro.core.optimizer:SGD.step", span("optimizer.step")),
            ("repro.core.optimizer:MomentumSGD.step", span("optimizer.step")),
            ("repro.core.optimizer:Adam.step", span("optimizer.step")),
            ("repro.exec.context:EvaluationContext.evaluate",
             span("pipeline.evaluate", request=self._candidate,
                  after=self._after_evaluate)),
            ("repro.exec.context:EvaluationContext.evaluate_block",
             span("pipeline.evaluate", request=self._candidate,
                  after=self._after_evaluate)),
            ("repro.serve.engine:ServeEngine.submit",
             span("serve.submit", result_request=self._submitted)),
            ("repro.serve.engine:ServeEngine.tick",
             span("serve.tick", after=self._after_tick)),
        ]
        for executor in ("SerialExecutor", "BackendExecutor",
                         "VectorizedExecutor", "MultiprocessExecutor"):
            plan.append((f"repro.exec.executors:{executor}.run",
                         span("exec.run", after=self._after_exec)))
        for target, make in plan:
            t.patch(target, make)

    def uninstall(self) -> None:
        self.tracer.unpatch()
