"""Tests for the black-box (A, B, beta) search baselines."""

import numpy as np
import pytest

from repro.core.hyperopt import RandomSearch, SimulatedAnnealing
from repro.core.pipeline import DFRFeatureExtractor
from repro.data.loaders import make_toy_dataset
from repro.exec import SerialExecutor, VectorizedExecutor


@pytest.fixture(scope="module")
def setup():
    data = make_toy_dataset(n_classes=3, n_channels=2, length=25,
                            n_train=45, n_test=45, noise=0.3, seed=11)
    ext = DFRFeatureExtractor(n_nodes=6, seed=0).fit(data.u_train)
    return data, ext


class TestRandomSearch:
    def test_finds_reasonable_point(self, setup):
        data, ext = setup
        rs = RandomSearch(ext, seed=0)
        out = rs.search(data.u_train, data.y_train, data.u_test, data.y_test,
                        n_samples=12, n_classes=3)
        assert out.n_evaluations == 12
        assert out.best.test_accuracy > 0.5
        assert out.total_seconds > 0

    def test_samples_stay_in_box(self, setup):
        data, ext = setup
        rs = RandomSearch(ext, seed=1)
        out = rs.search(data.u_train, data.y_train, data.u_test, data.y_test,
                        n_samples=20, n_classes=3)
        for ev in out.evaluations:
            assert 10**-3.75 <= ev.A <= 10**-0.25
            assert 10**-2.75 <= ev.B <= 10**-0.25

    def test_best_is_incumbent_maximum(self, setup):
        data, ext = setup
        out = RandomSearch(ext, seed=2).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_samples=10, n_classes=3,
        )
        assert out.best.val_accuracy == max(
            ev.val_accuracy for ev in out.evaluations
        )

    def test_deterministic_under_seed(self, setup):
        data, ext = setup
        o1 = RandomSearch(ext, seed=3).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_samples=5, n_classes=3)
        o2 = RandomSearch(ext, seed=3).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_samples=5, n_classes=3)
        assert [e.A for e in o1.evaluations] == [e.A for e in o2.evaluations]

    def test_validation(self, setup):
        data, ext = setup
        with pytest.raises(ValueError):
            RandomSearch(ext).search(data.u_train, data.y_train,
                                     data.u_test, data.y_test, n_samples=0)


class TestParallelRandomSearch:
    def test_bit_identical_at_4_workers(self, setup):
        data, ext = setup
        kwargs = dict(n_samples=8, n_classes=3)
        serial = RandomSearch(ext, seed=5).search(
            data.u_train, data.y_train, data.u_test, data.y_test, **kwargs)
        parallel = RandomSearch(ext, seed=5, workers=4).search(
            data.u_train, data.y_train, data.u_test, data.y_test, **kwargs)
        assert serial.evaluations == parallel.evaluations
        assert serial.best == parallel.best

    def test_compute_seconds_recorded(self, setup):
        data, ext = setup
        # pinned serial: the wall >= compute invariant only holds without
        # worker parallelism (REPRO_WORKERS in CI would otherwise flip it)
        out = RandomSearch(ext, seed=0, workers=1).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_samples=4, n_classes=3)
        assert out.compute_seconds > 0
        assert out.total_seconds >= out.compute_seconds * 0.99
        assert out.n_wasted == 0


class TestSimulatedAnnealing:
    def test_walk_improves_or_matches_start(self, setup):
        data, ext = setup
        sa = SimulatedAnnealing(ext, seed=0)
        out = sa.search(data.u_train, data.y_train, data.u_test, data.y_test,
                        n_steps=10, n_classes=3)
        start = out.evaluations[0]
        assert out.best.val_accuracy >= start.val_accuracy
        assert out.n_evaluations == 11  # start + n_steps

    def test_proposals_respect_box(self, setup):
        data, ext = setup
        out = SimulatedAnnealing(ext, seed=4).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_steps=15, n_classes=3)
        for ev in out.evaluations:
            assert 10**-3.76 <= ev.A <= 10**-0.24
            assert 10**-2.76 <= ev.B <= 10**-0.24

    def test_validation(self, setup):
        data, ext = setup
        sa = SimulatedAnnealing(ext, seed=0)
        with pytest.raises(ValueError):
            sa.search(data.u_train, data.y_train, data.u_test, data.y_test,
                      n_steps=0)
        with pytest.raises(ValueError):
            sa.search(data.u_train, data.y_train, data.u_test, data.y_test,
                      n_steps=5, cooling=1.5)
        with pytest.raises(ValueError):
            sa.search(data.u_train, data.y_train, data.u_test, data.y_test,
                      n_steps=5, speculative=0)


class TestSpeculativeAnnealing:
    def test_speculative_one_matches_serial_trajectory(self, setup):
        data, ext = setup
        kwargs = dict(n_steps=8, n_classes=3)
        plain = SimulatedAnnealing(ext, seed=9).search(
            data.u_train, data.y_train, data.u_test, data.y_test, **kwargs)
        explicit = SimulatedAnnealing(ext, seed=9, workers=2).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            speculative=1, **kwargs)
        assert plain.evaluations == explicit.evaluations
        assert plain.best == explicit.best
        assert explicit.n_wasted == 0

    def test_speculative_batch_consumes_full_budget(self, setup):
        data, ext = setup
        out = SimulatedAnnealing(ext, seed=2).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_steps=10, speculative=4, n_classes=3)
        # exactly 1 (start) + n_steps consumed decisions are recorded;
        # wasted speculative evaluations are counted separately
        assert out.n_evaluations == 11
        assert out.n_wasted >= 0
        assert out.best.val_accuracy >= out.evaluations[0].val_accuracy

    def test_serial_executor_evaluates_speculation_lazily(self, setup):
        data, ext = setup
        # a serial executor has no concurrency to buy, so speculative mode
        # must not discard any evaluations — and the consumed trajectory
        # matches the eagerly-evaluated parallel run of the same seed.
        # (pinned to an explicit SerialExecutor: REPRO_WORKERS or
        # REPRO_CANDIDATE_BLOCK_SIZE in CI may make default-constructed
        # searches eager)
        from repro.exec import SerialExecutor

        serial = SimulatedAnnealing(ext, seed=2, executor=SerialExecutor()).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_steps=10, speculative=4, n_classes=3)
        assert serial.n_wasted == 0
        eager = SimulatedAnnealing(ext, seed=2, workers=2).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_steps=10, speculative=4, n_classes=3)
        assert serial.evaluations == eager.evaluations
        assert serial.best == eager.best

    def test_speculative_proposals_respect_box(self, setup):
        data, ext = setup
        out = SimulatedAnnealing(ext, seed=4, workers=2).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_steps=9, speculative=3, n_classes=3)
        for ev in out.evaluations:
            assert 10**-3.76 <= ev.A <= 10**-0.24
            assert 10**-2.76 <= ev.B <= 10**-0.24


class _CountingExecutor:
    """Wrap an executor, counting how many candidates it really evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.n_submitted = 0

    @property
    def workers(self):
        return self.inner.workers

    @property
    def prefers_batch(self):
        return self.inner.prefers_batch

    def run(self, context, candidates):
        self.n_submitted += len(candidates)
        return self.inner.run(context, candidates)


class TestSpeculativeWasteAccounting:
    """n_wasted counts proposals actually evaluated-then-discarded, per
    executor: lazily-fed executors never waste, eagerly-fed ones report
    exactly (evaluated - consumed)."""

    def _search(self, setup, executor, **kwargs):
        data, ext = setup
        counting = _CountingExecutor(executor)
        out = SimulatedAnnealing(ext, seed=2, executor=counting).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            n_steps=10, speculative=4, n_classes=3, **kwargs)
        return out, counting

    # block 1 is the serial loop, so a VectorizedExecutor there is lazy too
    @pytest.mark.parametrize("executor", [
        SerialExecutor(), VectorizedExecutor(block_size=1),
    ], ids=["serial", "vectorized-block1"])
    def test_serial_is_lazy_and_waste_free(self, setup, executor):
        assert not executor.prefers_batch
        out, counting = self._search(setup, executor)
        assert out.n_wasted == 0
        # everything submitted was consumed into the trajectory
        assert counting.n_submitted == out.n_evaluations

    def test_vectorized_is_eager_and_counts_real_waste(self, setup):
        from repro.exec import VectorizedExecutor

        executor = VectorizedExecutor(block_size=4)
        assert executor.prefers_batch
        out, counting = self._search(setup, executor)
        # eager speculation: whole batches were really evaluated, and the
        # discarded tail is exactly the submitted-minus-consumed difference
        assert counting.n_submitted == out.n_evaluations + out.n_wasted
        assert out.n_wasted > 0

    def test_vectorized_trajectory_matches_serial(self, setup):
        from repro.exec import SerialExecutor, VectorizedExecutor

        serial, _ = self._search(setup, SerialExecutor())
        fused, _ = self._search(setup, VectorizedExecutor(block_size=4))
        # lazy vs eager changes only what is computed, never the trajectory
        assert fused.evaluations == serial.evaluations
        assert fused.best == serial.best

    def test_multiprocess_single_worker_stays_lazy(self, setup):
        from repro.exec import MultiprocessExecutor

        executor = MultiprocessExecutor(1)
        try:
            assert not executor.prefers_batch
            out, counting = self._search(setup, executor)
            assert out.n_wasted == 0
            assert counting.n_submitted == out.n_evaluations
        finally:
            executor.close()
