"""Tests for the SGD trainer (paper Sec. 4 protocol)."""

import numpy as np
import pytest

from repro.core.trainer import BackpropTrainer, TrainerConfig
from repro.data.loaders import make_toy_dataset
from repro.data.preprocessing import ChannelStandardizer
from repro.readout.softmax import softmax
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR


@pytest.fixture(scope="module")
def toy():
    data = make_toy_dataset(n_classes=3, n_channels=2, length=30,
                            n_train=45, n_test=45, noise=0.25, seed=7)
    std = ChannelStandardizer().fit(data.u_train)
    return data, std.transform(data.u_train), std.transform(data.u_test)


def _trainer(n_nodes=8, seed=0, **config_kwargs):
    mask = InputMask.binary(n_nodes, 2, seed=seed)
    reservoir = ModularDFR(mask)
    config = TrainerConfig(**config_kwargs)
    return BackpropTrainer(reservoir, n_classes=3, config=config, seed=seed)


class TestTrainingDynamics:
    def test_loss_decreases_and_accuracy_improves(self, toy):
        data, u_train, _ = toy
        result = _trainer().fit(u_train, data.y_train)
        first, last = result.history[0], result.history[-1]
        assert last.mean_loss < first.mean_loss
        assert last.accuracy > max(first.accuracy, 0.5)

    def test_parameters_move_from_init(self, toy):
        data, u_train, _ = toy
        result = _trainer().fit(u_train, data.y_train)
        assert result.A != pytest.approx(0.01)
        assert result.B != pytest.approx(0.01)
        assert 1e-6 <= result.A <= 10 ** (-0.25) + 1e-12
        assert 1e-6 <= result.B <= 10 ** (-0.25) + 1e-12

    def test_history_records_schedule(self, toy):
        data, u_train, _ = toy
        result = _trainer(epochs=25).fit(u_train, data.y_train)
        by_epoch = {h.epoch: h for h in result.history}
        assert by_epoch[1].lr_reservoir == pytest.approx(1.0)
        assert by_epoch[5].lr_reservoir == pytest.approx(0.1)
        assert by_epoch[5].lr_output == pytest.approx(1.0)
        assert by_epoch[10].lr_output == pytest.approx(0.1)
        assert by_epoch[25].lr_reservoir == pytest.approx(1e-4)
        assert by_epoch[25].lr_output == pytest.approx(1e-3)
        assert len(result.history) == 25

    def test_deterministic_under_seed(self, toy):
        data, u_train, _ = toy
        r1 = _trainer(seed=5).fit(u_train, data.y_train)
        r2 = _trainer(seed=5).fit(u_train, data.y_train)
        assert r1.A == r2.A and r1.B == r2.B
        np.testing.assert_array_equal(r1.readout.weights, r2.readout.weights)

    def test_different_seeds_differ(self, toy):
        data, u_train, _ = toy
        r1 = _trainer(seed=5).fit(u_train, data.y_train)
        r2 = _trainer(seed=6).fit(u_train, data.y_train)
        assert (r1.A, r1.B) != (r2.A, r2.B)

    def test_trained_readout_beats_chance(self, toy):
        data, u_train, u_test = toy
        result = _trainer().fit(u_train, data.y_train)
        mask_dfr = _trainer(seed=0).reservoir  # same mask as training run
        trace = mask_dfr.run(u_test, result.A, result.B)
        feats = DPRR().features(trace)
        probs = softmax(feats @ result.readout.weights.T + result.readout.bias)
        acc = float((probs.argmax(axis=1) == data.y_test).mean())
        assert acc > 0.5  # 3 classes -> chance is 0.33

    def test_full_bptt_mode_runs(self, toy):
        data, u_train, _ = toy
        result = _trainer(window=None, epochs=3).fit(u_train, data.y_train)
        assert len(result.history) == 3
        assert np.isfinite(result.final_loss)

    def test_wider_window_mode_runs(self, toy):
        data, u_train, _ = toy
        result = _trainer(window=5, epochs=3).fit(u_train, data.y_train)
        assert np.isfinite(result.final_loss)


class TestGuards:
    def test_params_stay_in_bounds_under_adversarial_lr(self, toy):
        data, u_train, _ = toy
        result = _trainer(lr_reservoir=100.0, epochs=3).fit(u_train, data.y_train)
        cfg = TrainerConfig()
        assert cfg.param_min <= result.A <= cfg.param_max
        assert cfg.param_min <= result.B <= cfg.param_max

    def test_divergence_recovery(self):
        """Force the unstable corner: training must recover, not get stuck."""
        rng = np.random.default_rng(0)
        u = rng.normal(size=(12, 60, 1))
        y = rng.integers(0, 2, size=12)
        mask = InputMask.binary(6, 1, seed=0)
        # A = B = 3 is far outside the stable region: the first forward
        # passes diverge
        config = TrainerConfig(
            epochs=2, init_A=3.0, init_B=3.0, param_max=4.0
        )
        trainer = BackpropTrainer(ModularDFR(mask), n_classes=2,
                                  config=config, seed=0)
        result = trainer.fit(u, y)
        # diverged samples were skipped, and params end finite and pulled
        # back inside the box
        assert np.isfinite(result.A) and np.isfinite(result.B)
        assert result.history[0].n_skipped > 0
        assert result.history[0].A < 3.0  # pull-back actually happened
        assert config.param_min <= result.A <= config.param_max
        assert config.param_min <= result.B <= config.param_max

    def test_epoch_and_window_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(window=0)
        with pytest.raises(ValueError):
            TrainerConfig(param_min=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(divergence_shrink=1.5)

    @pytest.mark.parametrize("clip", [-1.0, 0.0, float("nan")])
    def test_reservoir_grad_clip_must_be_positive(self, clip):
        # a negative bound would clip every dA/dB to exactly that bound
        with pytest.raises(ValueError, match="reservoir_grad_clip"):
            TrainerConfig(reservoir_grad_clip=clip)

    @pytest.mark.parametrize("clip", [None, float("inf")])
    def test_reservoir_grad_clip_none_or_inf_accepted(self, clip):
        cfg = TrainerConfig(reservoir_grad_clip=clip)
        assert cfg.reservoir_grad_clip is clip

    @pytest.mark.parametrize("name", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "3", True])
    def test_counts_must_be_integers(self, name, value):
        # a fractional count would only fail later, inside range()
        with pytest.raises(ValueError, match=name):
            TrainerConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self, toy):
        data, u_train, _ = toy
        result = _trainer(epochs=np.int64(2), batch_size=np.int32(8)).fit(
            u_train, data.y_train)
        assert len(result.history) == 2

    def test_label_out_of_range_rejected_batched(self, toy):
        data, u_train, _ = toy
        with pytest.raises(ValueError, match="out of range"):
            _trainer(batch_size=4).fit(u_train, data.y_train + 10)

    def test_label_out_of_range_rejected(self, toy):
        data, u_train, _ = toy
        trainer = _trainer()
        with pytest.raises(ValueError, match="out of range"):
            trainer.fit(u_train, data.y_train + 10)

    def test_elapsed_time_recorded(self, toy):
        data, u_train, _ = toy
        result = _trainer(epochs=2).fit(u_train, data.y_train)
        assert result.elapsed_seconds > 0
