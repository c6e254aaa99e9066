"""Benchmark: fused population descent vs sequential BP+GD restarts.

Times K=16 restarts of the paper's backprop+GD training once as 16
sequential :class:`~repro.core.trainer.BackpropTrainer` fits and once as a
single fused :class:`~repro.core.population.PopulationTrainer` run (one
candidate-stacked ``(K, N, ...)`` forward/backward per minibatch), asserts
the two are bit-identical member for member, and records both timings plus
the speedup ratio in ``extra_info`` so the pytest-benchmark JSON report
tracks it across PRs.  At ``batch_size > 1`` a ``BackpropTrainer`` fit *is*
the population engine run on one member, so the "sequential" baseline is
16 K=1 runs of the same engine: the ratio measures what stacking the
members buys, not a difference between two implementations.  Every additional backend available on the host
(torch, cupy) gets its own fused timing recorded alongside.

What to expect from the ratio: the fused run shares the per-minibatch mask
drive, the stacked readout/backward contractions, and amortizes the Python
epoch/minibatch loop over the whole population, but on NumPy the
per-candidate flat-chain filters of the forward are inherent, so the CPU
win is real yet moderate (~1.3-2x at K=16 on short series).  The default
floor is therefore a conservative "measurably faster" gate;
``REPRO_POPULATION_SPEEDUP_FLOOR`` overrides it either way, mirroring the
other speedup gates on shared runners.  Accelerator backends are where the
fused stack pays most — one resident program instead of K training loops —
which is what the per-backend ``extra_info`` timings track.
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro.backend import available_backends
from repro.core.population import PopulationTrainer, draw_starting_points
from repro.core.trainer import BackpropTrainer, TrainerConfig
from repro.data.preprocessing import ChannelStandardizer
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR

POPULATION = 16
N_NODES = 24
EPOCHS = 3
BATCH_SIZE = 8
SEED = 0

DEFAULT_FLOOR = "1.05"


def test_population_descent_speedup(benchmark, jpvow_small):
    data = jpvow_small
    std = ChannelStandardizer().fit(data.u_train)
    u = std.transform(data.u_train)
    y = data.y_train
    mask = InputMask.binary(N_NODES, u.shape[2], seed=SEED)
    config = TrainerConfig(epochs=EPOCHS, batch_size=BATCH_SIZE)
    a0, b0 = draw_starting_points(
        np.random.default_rng(SEED), POPULATION,
        (-3.75, -0.25), (-2.75, -0.25),
        init_A=config.init_A, init_B=config.init_B,
    )

    def run_fused(backend=None):
        cfg = config if backend is None else replace(config, backend=backend)
        trainer = PopulationTrainer(ModularDFR(mask), data.n_classes,
                                    config=cfg, seed=SEED)
        return trainer.fit(u, y, a0, b0)

    def run_sequential():
        results = []
        for k in range(POPULATION):
            trainer = BackpropTrainer(
                ModularDFR(mask), data.n_classes,
                config=replace(config, init_A=float(a0[k]),
                               init_B=float(b0[k])),
                seed=SEED,
            )
            results.append(trainer.fit(u, y))
        return results

    def timed_sequential():
        t0 = time.perf_counter()
        results = run_sequential()
        return results, time.perf_counter() - t0

    # warm both paths once (allocator/cache effects), then time best-of-2
    run_fused()
    run_sequential()
    sequential, sequential_seconds = min(
        (timed_sequential() for _ in range(2)), key=lambda pair: pair[1])
    fused = min((run_fused() for _ in range(2)),
                key=lambda r: r.elapsed_seconds)

    # fusing K restarts must never change any member — bit for bit
    for k in range(POPULATION):
        member = fused.members[k].result
        assert member.A == sequential[k].A
        assert member.B == sequential[k].B
        np.testing.assert_array_equal(member.readout.weights,
                                      sequential[k].readout.weights)

    speedup = sequential_seconds / fused.elapsed_seconds
    benchmark.extra_info["population"] = POPULATION
    benchmark.extra_info["epochs"] = EPOCHS
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["sequential_seconds"] = sequential_seconds
    benchmark.extra_info["fused_seconds_numpy"] = fused.elapsed_seconds
    benchmark.extra_info["speedup_fused_numpy_vs_sequential"] = speedup

    # every other importable backend gets its fused timing recorded (no
    # bitwise pin there — only NumPy is the bit-exact reference)
    for name in available_backends():
        if name == "numpy":
            continue
        run_fused(backend=name)  # warm the device path
        fused_backend = run_fused(backend=name)
        benchmark.extra_info[f"fused_seconds_{name}"] = (
            fused_backend.elapsed_seconds)
        benchmark.extra_info[f"speedup_fused_{name}_vs_sequential_numpy"] = (
            sequential_seconds / fused_backend.elapsed_seconds)

    result = benchmark.pedantic(run_fused, rounds=1, iterations=1,
                                warmup_rounds=0)
    assert result.population == POPULATION

    floor = float(os.environ.get("REPRO_POPULATION_SPEEDUP_FLOOR",
                                 DEFAULT_FLOOR))
    assert speedup >= floor, (
        f"fused K={POPULATION} population descent only {speedup:.3f}x the "
        f"sequential restarts on the NumPy backend (floor {floor})"
    )
