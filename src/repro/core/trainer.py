"""SGD training of the DFR parameters by backpropagation (paper Sec. 4).

The training protocol reproduced here is exactly the paper's:

* parameters ``A``, ``B`` initialized to 0.01 each, output layer ``W``, ``b``
  initialized to zeros;
* per-sample stochastic gradient descent for 25 epochs
  (``batch_size=1``; larger minibatches vectorize the identical gradients
  over samples and average them, trading the paper's update granularity for
  throughput — that minibatch engine is
  :class:`~repro.core.population.PopulationTrainer`'s fused epoch, run here
  on a population of one);
* learning rates start at 1; the reservoir rate decays x0.1 at epochs
  5/10/15/20, the output rate at 10/15/20;
* backpropagation truncated to the final reservoir state (``window=1``),
  with full BPTT available for comparison (``window=None``).

Numerical guards (the paper is silent on these; both are configurable and
documented): global gradient-norm clipping, and clamping ``A``, ``B`` to a
positive box so the identity-shape reservoir cannot be driven into
divergence by one bad step.  Divergent forward passes are skipped and
counted rather than allowed to poison the parameters.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.backend import resolve_backend
from repro.core.backprop import window_backward
from repro.core.optimizer import StepSchedule, clip_global_norm, get_optimizer
from repro.readout.softmax import SoftmaxReadout, one_hot, sample_output_grads
from repro.representation.dprr import DPRR, dprr_contract
from repro.reservoir.modular import ModularDFR, _check_params, sweep_into
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import as_batch, ensure_1d_labels

__all__ = ["TrainerConfig", "EpochStats", "TrainingResult", "BackpropTrainer"]


@dataclass
class TrainerConfig:
    """Hyperparameters of the backpropagation phase (defaults = the paper)."""

    epochs: int = 25
    #: samples per SGD update; 1 = the paper's per-sample protocol (kept
    #: numerically identical to the original loop), > 1 runs the minibatch
    #: engine (the population engine on one member): one vectorized
    #: forward/backward per minibatch, gradients averaged over the batch's
    #: non-diverged rows
    batch_size: int = 1
    lr_reservoir: float = 1.0
    lr_output: float = 1.0
    reservoir_milestones: tuple = (5, 10, 15, 20)
    output_milestones: tuple = (10, 15, 20)
    lr_decay: float = 0.1
    init_A: float = 0.01
    init_B: float = 0.01
    #: truncation window; 1 = the paper's method, None = full BPTT
    window: Optional[int] = 1
    #: global L2 gradient-norm clip (None disables); implementation guard
    grad_clip: Optional[float] = 10.0
    #: separate magnitude clip for the scalar dA/dB gradients, so one noisy
    #: sample cannot jump the reservoir into the unstable region (None
    #: disables; otherwise it must be positive)
    reservoir_grad_clip: Optional[float] = 1.0
    #: clamp box for A and B after each update; the default upper bound is
    #: the top of the paper's own grid-search range (10^-0.25 ~ 0.562),
    #: i.e. the region the paper considers meaningful
    param_min: float = 1e-6
    param_max: float = 10 ** (-0.25)
    #: multiplicative pull-back applied to A and B when a forward pass
    #: diverges, so training recovers instead of skipping samples forever
    divergence_shrink: float = 0.7
    shuffle: bool = True
    optimizer: str = "sgd"
    #: array backend for the minibatch engine (``batch_size > 1``): a name
    #: such as "numpy" / "torch" / "torch:cuda:0" / "cupy", or None to
    #: defer to the ``REPRO_BACKEND`` environment variable (NumPy when
    #: unset).  The ``batch_size=1`` per-sample path is the paper's pinned
    #: NumPy reference and ignores this knob.
    backend: Optional[str] = None
    #: working float precision of the minibatch engine: None defers to the
    #: spec's ``@dtype`` suffix / ``REPRO_DTYPE`` (float64 when unset);
    #: "float32" opts into single precision (rtol-bounded, see
    #: docs/ARCHITECTURE.md).  The per-sample path stays float64.
    dtype: Optional[str] = None

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.dtype not in (None, "float64", "float32"):
            raise ValueError(
                f"dtype must be None, 'float64' or 'float32', "
                f"got {self.dtype!r}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be None or >= 1, got {self.window}")
        if self.param_min <= 0 or self.param_max <= self.param_min:
            raise ValueError("need 0 < param_min < param_max")
        if (self.grad_clip is not None and np.isfinite(self.grad_clip)
                and self.grad_clip <= 0):
            raise ValueError(
                f"grad_clip must be None or positive, got {self.grad_clip}"
            )
        # ``not > 0`` also rejects NaN
        if (self.reservoir_grad_clip is not None
                and not self.reservoir_grad_clip > 0):
            raise ValueError(
                f"reservoir_grad_clip must be None or positive, "
                f"got {self.reservoir_grad_clip}"
            )
        if not 0.0 < self.divergence_shrink < 1.0:
            raise ValueError(
                f"divergence_shrink must lie in (0, 1), got {self.divergence_shrink}"
            )


@dataclass
class EpochStats:
    """Per-epoch training telemetry."""

    epoch: int
    mean_loss: float
    accuracy: float
    lr_reservoir: float
    lr_output: float
    A: float
    B: float
    n_skipped: int = 0


@dataclass
class TrainingResult:
    """Outcome of the backpropagation phase."""

    A: float
    B: float
    readout: SoftmaxReadout
    history: List[EpochStats] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.history[-1].mean_loss if self.history else float("nan")


def _training_set(u, y, n_classes: int):
    """Validated ``(u, y)`` of a fit: a ``(N, T, C)`` batch and its labels."""
    u = as_batch(u)
    y = ensure_1d_labels(y, n_samples=u.shape[0])
    if y.size and y.max() >= n_classes:
        raise ValueError(
            f"label {y.max()} out of range for {n_classes} classes"
        )
    return u, y


class _SampleScratch:
    """Per-fit buffers of the per-sample step: one sample's trace.

    ``states`` keeps its zero initial row (the forward fills rows
    ``1..T``); the window arrays are fixed views of the last ``window``
    steps, exactly what ``ReservoirTrace.final_window`` would slice.
    """

    def __init__(self, n_nodes: int, t_len: int, window: int, scale: float):
        self.states = np.zeros((1, t_len + 1, n_nodes))
        self.pre = np.empty((1, t_len, n_nodes))
        self.window_states = self.states[0, -(window + 1):, :]
        self.window_pre = self.pre[0, -window:, :]
        self.scale = scale


class BackpropTrainer:
    """Trains ``(A, B, W, b)`` of a modular-DFR classifier by SGD.

    Parameters
    ----------
    reservoir:
        The :class:`~repro.reservoir.modular.ModularDFR` (mask and
        nonlinearity fixed; ``A`` and ``B`` are what gets trained).
    n_classes:
        Number of output classes.
    dprr:
        Feature extractor; defaults to a length-normalized DPRR.
    config:
        :class:`TrainerConfig`; defaults to the paper's protocol.
    seed:
        Seed for shuffling.
    """

    def __init__(
        self,
        reservoir: ModularDFR,
        n_classes: int,
        *,
        dprr: Optional[DPRR] = None,
        config: Optional[TrainerConfig] = None,
        seed: SeedLike = None,
    ):
        self.reservoir = reservoir
        self.n_classes = int(n_classes)
        self.dprr = dprr if dprr is not None else DPRR()
        self.config = config if config is not None else TrainerConfig()
        self.rng = ensure_rng(seed)
        #: the per-sample step always runs the NumPy reference
        self._numpy = resolve_backend(None)

    def _pull_back(self, params) -> None:
        """Shrink A and B after a divergent forward pass (recovery guard)."""
        params["A"] *= self.config.divergence_shrink
        params["B"] *= self.config.divergence_shrink
        np.clip(params["A"], self.config.param_min, self.config.param_max,
                out=params["A"])
        np.clip(params["B"], self.config.param_min, self.config.param_max,
                out=params["B"])

    def _apply_update(self, params, grads, optimizer, lrs) -> None:
        """Clip, step and clamp one per-sample update.

        The minibatch engine's
        ``PopulationTrainer._apply_update_stacked`` is the row-wise twin.
        """
        cfg = self.config
        clip_global_norm(grads.values(), cfg.grad_clip)
        # ndarray.clip is the ufunc np.clip dispatches to, without the
        # dispatch: these four run on 0-d arrays once per update
        if cfg.reservoir_grad_clip is not None:
            grads["A"].clip(-cfg.reservoir_grad_clip, cfg.reservoir_grad_clip,
                            out=grads["A"])
            grads["B"].clip(-cfg.reservoir_grad_clip, cfg.reservoir_grad_clip,
                            out=grads["B"])
        optimizer.step(params, grads, lrs)
        params["A"].clip(cfg.param_min, cfg.param_max, out=params["A"])
        params["B"].clip(cfg.param_min, cfg.param_max, out=params["B"])

    def fit(self, u: np.ndarray, y: np.ndarray) -> TrainingResult:
        """Run the full SGD protocol on a training set.

        ``batch_size > 1`` runs the minibatch engine,
        :class:`~repro.core.population.PopulationTrainer`'s fused epoch, on
        one member started at ``(init_A, init_B)`` and shuffled by this
        trainer's rng; ``batch_size=1`` runs the per-sample step below.

        Parameters
        ----------
        u:
            Training inputs ``(N, T, C)`` (standardize beforehand; the
            pipeline does this automatically).
        y:
            Integer labels ``(N,)``.
        """
        cfg = self.config
        if cfg.batch_size > 1:
            # population.py imports this module
            from repro.core.population import PopulationTrainer

            population = PopulationTrainer(
                self.reservoir, self.n_classes, dprr=self.dprr, config=cfg,
                seed=self.rng,
            )
            return population._fit_fused(
                u, y, np.array([float(cfg.init_A)]),
                np.array([float(cfg.init_B)]),
            ).members[0].result
        start = time.perf_counter()
        u, y = _training_set(u, y, self.n_classes)
        targets = one_hot(y, self.n_classes)
        n_samples, t_len, _ = u.shape

        res_schedule = StepSchedule(
            cfg.lr_reservoir, cfg.reservoir_milestones, cfg.lr_decay
        )
        out_schedule = StepSchedule(cfg.lr_output, cfg.output_milestones, cfg.lr_decay)
        optimizer = get_optimizer(cfg.optimizer)
        optimizer.reset()

        readout = SoftmaxReadout(self.dprr.n_features(self.reservoir.n_nodes),
                                 self.n_classes)
        params = {
            "A": np.array(float(cfg.init_A)),
            "B": np.array(float(cfg.init_B)),
            "W": readout.weights,
            "b": readout.bias,
        }
        backward_window = min(cfg.window or t_len, t_len)
        scratch = _SampleScratch(self.reservoir.n_nodes, t_len,
                                 backward_window, self.dprr.scale(t_len))

        history: List[EpochStats] = []
        for epoch in range(1, cfg.epochs + 1):
            lr_r = res_schedule.lr_at(epoch)
            lr_o = out_schedule.lr_at(epoch)
            order = self.rng.permutation(n_samples) if cfg.shuffle else np.arange(
                n_samples
            )
            lrs = {"A": lr_r, "B": lr_r, "W": lr_o, "b": lr_o}
            losses, n_correct, n_skipped = self._epoch_per_sample(
                u, y, targets, order, params, readout, optimizer, lrs,
                scratch=scratch,
            )
            n_seen = len(losses)
            history.append(
                EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)) if n_seen else float("inf"),
                    accuracy=n_correct / n_seen if n_seen else 0.0,
                    lr_reservoir=lr_r,
                    lr_output=lr_o,
                    A=float(params["A"]),
                    B=float(params["B"]),
                    n_skipped=n_skipped,
                )
            )
        return TrainingResult(
            A=float(params["A"]),
            B=float(params["B"]),
            readout=readout,
            history=history,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _epoch_per_sample(self, u, y, targets, order, params, readout,
                          optimizer, lrs, *, scratch):
        """One epoch of the paper's per-sample SGD (``batch_size=1``).

        Each sample is one straight-line step on the layers' arithmetic
        kernels: forward (:func:`~repro.reservoir.modular.sweep_into`) →
        DPRR (:func:`~repro.representation.dprr.dprr_contract`) → softmax
        readout (:func:`~repro.readout.softmax.sample_output_grads`) →
        truncated backward
        (:func:`~repro.core.backprop.window_backward`) → clip/step.  The
        public layer calls (``ModularDFR.run``, ``DPRR.features``,
        ``SoftmaxReadout.loss_and_grads``, ``reservoir_backward``,
        ``clip_gradients``) validate their inputs and then run these same
        kernels, so the step skips only validation; buffers that do not
        change between samples come from ``scratch``, built once per fit.

        The full trace is computed for speed (the identity shape admits a
        single-filter forward); the backward pass then consumes only the
        truncation window, so the *mathematics* is identical to the
        memory-bounded streaming execution (``ModularDFR.run_streaming``),
        as pinned by tests.  The step always runs on NumPy: it is the
        paper's reference protocol, and its trajectory is pinned bit for
        bit by regression tests regardless of ``REPRO_BACKEND`` — any
        change here must keep the arithmetic (and its order) intact.
        """
        xb = self._numpy
        mask = self.reservoir.mask
        nonlinearity = self.reservoir.nonlinearity
        states, pre, scale = scratch.states, scratch.pre, scratch.scale
        losses = []
        n_correct = 0
        n_skipped = 0
        for idx in order:
            # same finiteness check (and error) as ModularDFR.run
            a_val, b_val, _ = _check_params(params["A"], params["B"])
            j = xb.masked_drive(mask, u[idx: idx + 1])
            if sweep_into(xb, nonlinearity, j, a_val, b_val, states, pre)[0]:
                n_skipped += 1
                self._pull_back(params)
                continue
            feats = dprr_contract(xb, states, scale)[0]
            out = sample_output_grads(readout.weights, readout.bias, feats,
                                      targets[idx])
            # undo the DPRR normalization so d_repr is w.r.t. the raw sums
            d_a, d_b, _ = window_backward(
                scratch.window_states, scratch.window_pre,
                out.d_features * scale, a_val, b_val, nonlinearity)
            losses.append(out.loss)
            if out.probs.argmax() == y[idx]:
                n_correct += 1
            grads = {
                "A": np.array(d_a),
                "B": np.array(d_b),
                "W": out.d_weights,
                "b": out.d_bias,
            }
            self._apply_update(params, grads, optimizer, lrs)
        return losses, n_correct, n_skipped

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BackpropTrainer(reservoir={self.reservoir!r}, "
            f"n_classes={self.n_classes}, config={self.config!r})"
        )
