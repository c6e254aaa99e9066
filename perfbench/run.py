"""The repository's benchmark: search, training and serving, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Workloads (the seed makes every input; the program gets only the arrays):

* ``grid``    one d=4 ``GridSearch.run_level`` on JPVOW (270/370, T=28,
  C=12, 9 classes), N_x=30, the paper's four betas, default executor;
* ``train``   the paper's BP+GD, ``DFRClassifier(n_nodes=30,
  TrainerConfig(epochs=25, batch_size=1))``, scored on the test set;
* ``descent`` population descent (``population=8, batch_size=32``, 25
  epochs) on the same split;
* ``serve``   a 64-stream open loop through ``AsyncServeEngine`` at 256,
  1024 and 4096 chunks/s (see ``perfbench/openloop.py``).

With ``--trace 0`` the run sets up three times (``setup_s`` is the
median), then repeats the workload's operation -- a grid level, a fit, a
ladder pass -- until ``--seconds`` would be exceeded (at least once), and
prints every end-to-end metric.  Every metric applies to every workload:

==============  ===================================================
setup_s         data, extractor/model, trace generation, warm-up
peak_rss_mb     peak resident set of the process
ok_frac         operations that did not fail over those attempted
                (grid: candidates without ``error``; train/descent:
                fits that did not raise; serve: chunks neither errored,
                shed nor refused)
p50_ms          median latency of what the user waits for: a level,
                a fit, a chunk from its due time (256 and 1024/s)
work_per_s      grid: candidates/s; train/descent: training samples
                presented per second of ``fit``; serve: chunks
                completed per second while 4096/s is offered
accuracy        test accuracy of the selected winner / fitted model;
                serve: share of chunk labels equal to the reference
==============  ===================================================

Serve's metrics are the median over the run's ladder passes of each
pass's value, so a pass hit by a stall elsewhere on a shared machine does
not set them.

The tail -- the highest percentile (at most p99) with ten samples beyond
it, or the maximum below 11 samples -- is printed with its percentile and
sample count (``tail_ms``), and so are the ladder's own numbers per rate
(``p50_ms.r256``, ``p99_ms.r256``, ``deadline_met.r256``, ...
``max_rate_cps``); all are kept in the result file.  They carry no bound.
On a shared virtual machine the serve tail moves with the host's load far
beyond the largest bound a run-to-run gate allows; the median chunk
latency sits close to the 10 ms budget, so ``deadline_met`` swings with
small shifts of it; and ``max_rate_cps`` is 0 whenever no rate meets the
limit, which a relative bound cannot handle.

With ``--trace 1`` the run does one untraced and one traced operation;
the traced one wraps each layer's public functions (``perfbench/trace.py``)
and prints the per-layer metrics for that one operation.  It writes a
Chrome trace and a per-layer table under ``.perfbench/`` and reports the
traced-minus-untraced wall time as ``trace.overhead_frac``.

Every result records the run facts (``perfbench/facts.py``); the output
checks run after the timed region and a failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac"),
    ("p50_ms", "ms"), ("work_per_s", "1/s"), ("accuracy", "frac"),
]

#: layers reported by calls and self time, and by self time alone
_SPAN_LAYERS = ["readout.ridge_sweep", "readout.select_beta",
                "readout.softmax", "reservoir.run", "reservoir.run_streaming",
                "backend.filter", "dprr.features", "backprop.gradients",
                "optimizer.step", "exec.run", "pipeline.evaluate",
                "serve.submit", "serve.tick"]
_SELF_ONLY = ["backend.drive", "trainer.fit", "population.fit"]

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [(f"{n}.{k}", u) for n in _SPAN_LAYERS
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{n}.self_s", "s") for n in _SELF_ONLY]
    + [("backend.roll.calls", "count"), ("backend.to_host", "count"),
       ("readout.ridge_solves", "count"), ("population.active_frac", "frac"),
       ("exec.overhead_s", "s"), ("exec.failed", "count"),
       ("exec.retries", "count"), ("pipeline.diverged_frac", "frac"),
       ("serve.idle_tick_frac", "frac"), ("serve.rows_per_sweep", "rows"),
       ("serve.wait_ms.p50", "ms"), ("serve.wait_ms.p99", "ms"),
       ("serve.sweep_ms.p50", "ms"), ("serve.sweep_ms.p99", "ms"),
       ("serve.violations", "count"), ("serve.shed", "count"),
       ("serve.sweep_retries", "count"),
       ("serve.generator_lateness_ms.p99", "ms"),
       ("trace.overhead_frac", "frac")]
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _workload(name: str):
    from perfbench.openloop import ServeWorkload
    from perfbench.workloads import WORKLOADS

    if name == "serve":
        return ServeWorkload(OUT / "tmp")
    return WORKLOADS[name]


def timed_loop(workload, state, seconds: float) -> list:
    """Repeat the operation while the next one is expected to fit in
    ``seconds``; always at least once."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(workload.op(state))
        elapsed = time.perf_counter() - start
        typical = statistics.median(op.wall_s for op in ops)
        if elapsed + typical > seconds:
            return ops


def _frac(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(workload, ops: list, setup_s: float,
               agreement: float) -> tuple:
    """``(metrics, report)``: the end-to-end values and the serve ladder."""
    from perfbench import stats

    attempted = sum(op.attempted for op in ops)
    ok = 1.0 - sum(op.failed for op in ops) / attempted
    if workload.name == "serve":
        metrics, report = _serve_metrics(ops)
        metrics["accuracy"] = agreement
    else:
        walls_ms = [op.wall_s * 1e3 for op in ops]
        tail_ms, q, n = stats.tail(walls_ms)
        report = {"tail_ms": tail_ms, "tail_ms.percentile": q,
                  "tail_ms.samples": n}
        accs = [workload.summary(op)["test_accuracy"]
                for op in ops if op.output is not None]
        metrics = {
            "p50_ms": statistics.median(walls_ms),
            "work_per_s": 1e3 * sum(op.work for op in ops) / sum(walls_ms),
            "accuracy": statistics.median(accs) if accs else 0.0,
        }
    metrics.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok,
    })
    return {name: metrics[name] for name, _ in END_TO_END}, report


def _serve_metrics(ops: list) -> tuple:
    """The ladder's numbers per rate, and the serve end-to-end metrics.

    The per-rate numbers pool every pass.  The end-to-end metrics are
    each the median over the run's passes, computed over the rates the
    engine is meant to sustain (capacity: at the overload rate); each pass
    has enough chunks for a median and a p99 with ten samples beyond.
    """
    from perfbench import stats
    from perfbench.openloop import DEADLINE_MS, LATENCY_RATES, RATES

    report, rungs = {}, []
    for r, rate in enumerate(RATES):
        per = [op.detail["rungs"][r] for op in ops]
        lat = [x for m in per for x in m["latency_ms"]]
        tail_ms, q, n = stats.tail(lat) if lat else (float("inf"), None, 0)
        kept = all(m["kept_up"] for m in per)
        rungs.append((rate, tail_ms, kept))
        tag = f"r{rate}"
        report[f"p50_ms.{tag}"] = statistics.median(lat) if lat else None
        report[f"p99_ms.{tag}"] = tail_ms
        report[f"p99_ms.{tag}.percentile"] = q
        report[f"samples.{tag}"] = n
        report[f"deadline_met.{tag}"] = (sum(m["deadline_met"] * m["sent"]
                                             for m in per)
                                         / sum(m["sent"] for m in per))
        report[f"kept_up.{tag}"] = kept
        report[f"completed_per_s.{tag}"] = statistics.median(
            m["completed_per_s"] for m in per)
        report[f"generator_lateness_ms.p99.{tag}"] = stats.tail(
            [x for m in per for x in m["lateness_ms"]])[0]
    report["max_rate_cps"] = stats.max_rate(rungs, DEADLINE_MS)
    passes = []
    for op in ops:
        ms = [m for rate, m in zip(RATES, op.detail["rungs"])
              if rate in LATENCY_RATES]
        lat = [x for m in ms for x in m["latency_ms"]]
        tail_ms, q, n = stats.tail(lat)
        passes.append({
            "p50_ms": statistics.median(lat), "tail_ms": tail_ms,
            "tail_percentile": q, "samples": n,
            "deadline_met": (sum(m["deadline_met"] * m["sent"] for m in ms)
                             / sum(m["sent"] for m in ms)),
            "work_per_s": op.detail["rungs"][-1]["completed_per_s"],
        })
    report["passes"] = passes
    report["tail_ms"] = statistics.median(p["tail_ms"] for p in passes)
    metrics = {key: statistics.median(p[key] for p in passes)
               for key in ("p50_ms", "work_per_s")}
    return metrics, report


def per_layer(tracer, probe, traced, untraced) -> dict:
    """The per-layer metrics of one traced operation."""
    import numpy as np

    from perfbench import stats

    table = tracer.layer_table()
    row = lambda n: table.get(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})  # noqa: E731
    v = probe.values
    m = {}
    for n in _SPAN_LAYERS:
        m[f"{n}.calls"] = row(n)["calls"]
        m[f"{n}.self_s"] = row(n)["self_s"]
    for n in _SELF_ONLY:
        m[f"{n}.self_s"] = row(n)["self_s"]
    m["backend.roll.calls"] = row("backend.roll")["calls"]
    m["backend.to_host"] = row("backend.to_host")["calls"]
    m["readout.ridge_solves"] = v["readout.ridge_solves"]
    m["population.active_frac"] = _frac(v["population.active"],
                                        v["population.slots"])
    m["exec.overhead_s"] = row("exec.run")["total_s"] - v["exec.compute_s"]
    m["exec.failed"] = v["exec.failed"]
    m["exec.retries"] = v["exec.retries"]
    m["pipeline.diverged_frac"] = _frac(v["pipeline.diverged"],
                                        v["pipeline.evaluations"])
    m["serve.idle_tick_frac"] = _frac(v["serve.idle_ticks"], v["serve.ticks"])
    m["serve.rows_per_sweep"] = _frac(v["serve.rows"], v["serve.sweeps"])
    m["serve.violations"] = v["serve.violations"]
    m["serve.shed"] = v["serve.shed"]
    m["serve.sweep_retries"] = v["serve.sweep_retries"]
    sweeps = tracer.spans_named("reservoir.run_streaming")
    sweep_ms = [(end - start) * 1e3 for start, end in sweeps]
    wait_ms, lateness = [], []
    if "rungs" in traced.detail:
        for rec in traced.output:
            completed = [None if np.isnan(c) else float(c)
                         for c in rec.completed]
            wait_ms += stats.sweep_waits(rec.due.tolist(), completed, sweeps)
        lateness = [x for r in traced.detail["rungs"] for x in r["lateness_ms"]]
    # layers a workload does not use report 0, like their call counts
    p50 = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    tail = lambda xs: stats.tail(xs)[0] if xs else 0.0  # noqa: E731
    m["serve.wait_ms.p50"] = p50(wait_ms)
    m["serve.wait_ms.p99"] = tail(wait_ms)
    m["serve.sweep_ms.p50"] = p50(sweep_ms)
    m["serve.sweep_ms.p99"] = tail(sweep_ms)
    m["serve.generator_lateness_ms.p99"] = tail(lateness)
    m["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    return {name: m[name] for name, _ in PER_LAYER}


def check_outputs(workload, name: str, seed: int, ops: list, state) -> list:
    """Every output check; an empty list means the outputs are correct."""
    errors = [f"operation {i} failed: {op.detail.get('error')}"
              for i, op in enumerate(ops) if op.detail.get("error")]
    errors += workload.check(ops, state)
    summaries = [workload.summary(op) for op in ops if op.output is not None]
    if any(s != summaries[0] for s in summaries[1:]):
        errors.append("repeated operations on the same inputs disagree")
    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    want = refs.get(name, {}).get(str(seed))
    if summaries and summaries[0] is not None and want is not None:
        if summaries[0] != want:
            errors.append(f"output {summaries[0]} differs from the recorded "
                          f"reference {want}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "train", "descent", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no program source under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import facts as run_facts
    from perfbench.trace import LayerProbe, Tracer, format_table

    run_facts.refuse_repro_env()
    workload = _workload(args.workload)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous set-up before building the next
        start = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)
    facts = run_facts.collect(ROOT)

    out_dir = OUT / args.workload / f"seed{args.seed}"
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}  per op: {workload.per_op}",
             "facts " + json.dumps(facts, sort_keys=True),
             "setup_s runs " + " ".join(f"{t:.4f}" for t in setup_times)]
    if args.trace:
        untraced = workload.op(state)
        tracer = Tracer()
        probe = LayerProbe(tracer)
        probe.install()
        try:
            traced = workload.op(state)
        finally:
            probe.uninstall()
        ops = [untraced, traced]
        metrics = per_layer(tracer, probe, traced, untraced)
        units = dict(PER_LAYER)
        paths = tracer.write(out_dir)
        lines.append(format_table(tracer.layer_table()))
        lines.append(f"chrome trace {paths['trace'].relative_to(ROOT)}  "
                     f"table {paths['table'].relative_to(ROOT)}")
        lines.append(f"tracing overhead: traced {traced.wall_s:.4f} s vs "
                     f"untraced {untraced.wall_s:.4f} s")
        report = {}
    else:
        before = run_facts.cpu_jiffies()
        ops = timed_loop(workload, state, args.seconds)
        steal = run_facts.steal_share(before, run_facts.cpu_jiffies())
        units = dict(END_TO_END)
    errors = check_outputs(workload, args.workload, args.seed, ops, state)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    if not args.trace:
        # serve's accuracy is agreement with the serial reference: each of
        # its check errors is one chunk that differs from it
        agreement = 1.0 - len(errors) / attempted
        metrics, report = end_to_end(workload, ops, setup_s, agreement)
        report["cpu_steal_share"] = steal
        lines.append("op walls " + " ".join(f"{op.wall_s:.4f}" for op in ops))
        for key, value in report.items():
            lines.append(f"  {key} = {value}")
    for key, value in metrics.items():
        lines.append(f"{key} = {value!r} {units[key]}")
    for error in errors[:20]:
        lines.append(f"CHECK FAILED: {error}")
    lines.append(f"checks: {'ok' if not errors else f'{len(errors)} failed'}")

    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "facts": facts, "setup_times": setup_times,
        "op_walls": [op.wall_s for op in ops], "report": report,
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str))
    print("\n".join(lines))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
