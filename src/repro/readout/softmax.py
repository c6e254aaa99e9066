"""Softmax/cross-entropy output layer (paper Sec. 3.1).

The trained output layer computes ``z = W r + b`` (paper Eq. 12) and the
loss is the cross-entropy of the softmax of ``z`` against a one-hot target
(paper Eqs. 14–15).  The paper's Eq. 16, ``dL/dy = y - d``, is exactly the
gradient of that composite with respect to the pre-softmax activations, so
the layer here makes the softmax explicit.

All gradients of Eq. 17 are implemented in closed form:

.. math::

    \\frac{\\partial L}{\\partial b} = \\delta,\\qquad
    \\frac{\\partial L}{\\partial W} = \\delta r^T,\\qquad
    \\frac{\\partial L}{\\partial r} = W^T \\delta,
    \\qquad \\delta = y - d.

The batched path (:meth:`SoftmaxReadout.batch_loss_and_grads`) routes its
array ops through an :class:`~repro.backend.ArrayBackend` — inferred from
the feature matrix by default — so device-resident features produce
device-resident gradients; the layer's parameters stay NumPy (they are
tiny and updated by the NumPy optimizer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import infer_backend, resolve_backend

__all__ = [
    "softmax",
    "cross_entropy",
    "one_hot",
    "SoftmaxReadout",
    "OutputGradients",
    "BatchOutputGradients",
]

#: clamp for log() arguments so that a confidently wrong prediction yields a
#: large-but-finite loss
_EPS = 1e-300


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Cross-entropy per sample (paper Eq. 15).

    Parameters
    ----------
    probs:
        ``(N, N_y)`` predicted class probabilities.
    targets:
        ``(N, N_y)`` one-hot targets.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return -(targets * np.log(np.maximum(probs, _EPS))).sum(axis=-1)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Encode integer labels ``(N,)`` as a one-hot matrix ``(N, n_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes - 1}], got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def sample_output_grads(weights: np.ndarray, bias: np.ndarray, r: np.ndarray,
                        d: np.ndarray) -> "OutputGradients":
    """The arithmetic of :meth:`SoftmaxReadout.loss_and_grads`, unvalidated.

    ``weights`` ``(N_y, N_r)``, ``bias`` ``(N_y,)``, one float64 feature
    vector ``r`` ``(N_r,)`` and one-hot target ``d`` ``(N_y,)``.
    """
    z = weights @ r + bias
    probs = softmax(z)
    loss = float(cross_entropy(probs[np.newaxis], d[np.newaxis])[0])
    delta = probs - d                          # Eq. 16 (w.r.t. pre-softmax z)
    return OutputGradients(
        loss=loss,
        probs=probs,
        d_weights=delta[:, np.newaxis] * r,    # Eq. 17, np.outer(delta, r)
        d_bias=delta,                          # Eq. 17
        d_features=weights.T @ delta,          # Eq. 17
    )


@dataclass
class OutputGradients:
    """Closed-form gradients of the output layer for one sample."""

    loss: float
    probs: np.ndarray     # (N_y,)
    d_weights: np.ndarray  # (N_y, N_r)
    d_bias: np.ndarray     # (N_y,)
    d_features: np.ndarray  # (N_r,)


@dataclass
class BatchOutputGradients:
    """Closed-form output-layer gradients for a whole minibatch.

    Per-sample weight gradients are rank-1 (``dL_i/dW = outer(deltas[i],
    r[i])``), so the batch carries ``deltas`` instead of materializing ``N``
    full ``(N_y, N_r)`` matrices; reduced weight/bias gradients follow as
    ``deltas.T @ r / N`` and ``deltas.mean(axis=0)``.

    Candidate-stacked batches (``(K, N, N_r)`` features against a
    ``(K, N_y, N_r)`` weight stack) prepend the candidate axis to every
    array here.
    """

    losses: np.ndarray      # (N,)   [stacked: (K, N)]
    probs: np.ndarray       # (N, N_y) = probs - targets  [stacked: (K, N, N_y)]
    deltas: np.ndarray      # (N, N_y) (Eq. 16, per row)  [stacked: (K, N, N_y)]
    d_features: np.ndarray  # (N, N_r) = deltas @ W (Eq. 17) [stacked: (K, N, N_r)]


class SoftmaxReadout:
    """Trainable softmax output layer ``y = softmax(W r + b)``.

    Parameters
    ----------
    n_features:
        Representation width ``N_r``.
    n_classes:
        Class count ``N_y``.

    The paper initializes both ``W`` and ``b`` to zero (Sec. 4).
    """

    def __init__(self, n_features: int, n_classes: int):
        if n_features < 1 or n_classes < 2:
            raise ValueError(
                f"need n_features >= 1 and n_classes >= 2, got {n_features}, {n_classes}"
            )
        self.weights = np.zeros((n_classes, n_features))
        self.bias = np.zeros(n_classes)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Pre-softmax activations ``z = W r + b`` for a batch ``(N, N_r)``."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return features @ self.weights.T + self.bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of representations."""
        return softmax(self.logits(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard class predictions for a batch of representations."""
        return self.predict_proba(features).argmax(axis=-1)

    def loss_and_grads(
        self, features: np.ndarray, target_onehot: np.ndarray
    ) -> OutputGradients:
        """Loss and all Eq.-17 gradients for ONE sample.

        Parameters
        ----------
        features:
            ``(N_r,)`` representation vector ``r``.
        target_onehot:
            ``(N_y,)`` one-hot target ``d``.
        """
        r = np.asarray(features, dtype=np.float64).reshape(-1)
        d = np.asarray(target_onehot, dtype=np.float64).reshape(-1)
        if r.shape[0] != self.n_features:
            raise ValueError(
                f"feature size {r.shape[0]} != readout width {self.n_features}"
            )
        if d.shape[0] != self.n_classes:
            raise ValueError(
                f"target size {d.shape[0]} != class count {self.n_classes}"
            )
        return sample_output_grads(self.weights, self.bias, r, d)

    def batch_loss_and_grads(
        self, features: np.ndarray, targets_onehot: np.ndarray,
        *, backend=None, weights=None, bias=None,
    ) -> BatchOutputGradients:
        """Vectorized Eq.-17 gradients for a minibatch.

        Parameters
        ----------
        features:
            ``(N, N_r)`` representation matrix (one row per sample) — or
            ``(K, N, N_r)`` for K candidate models evaluated on the same
            (or per-candidate) batch in one fused call.
        targets_onehot:
            ``(N, N_y)`` one-hot target matrix; a candidate-stacked call
            may also pass a per-candidate ``(K, N, N_y)`` stack.
        backend:
            :class:`~repro.backend.ArrayBackend` executing the batch;
            ``None`` infers it from ``features``.  All returned arrays are
            that backend's arrays (NumPy in the default case).
        weights, bias:
            Optional parameter overrides.  A candidate-stacked call trains
            one output layer *per candidate*, so it passes a
            ``(K, N_y, N_r)`` weight stack and ``(K, N_y)`` bias stack here
            instead of mutating K readout objects; ``None`` uses this
            readout's own (shared) parameters for every candidate.
        """
        xb = infer_backend(features) if backend is None else resolve_backend(backend)
        r = xb.asarray(features, dtype=xb.float_dtype)
        if r.ndim < 2:
            r = xb.atleast_2d(r)
        stacked = r.ndim == 3
        d = xb.asarray(targets_onehot, dtype=xb.float_dtype)
        if not stacked:
            d = xb.atleast_2d(d)
        if r.shape[-1] != self.n_features:
            raise ValueError(
                f"feature size {r.shape[-1]} != readout width {self.n_features}"
            )
        expected = tuple(r.shape[:-1]) + (self.n_classes,)
        if tuple(d.shape) != expected and tuple(d.shape) != expected[-2:]:
            raise ValueError(
                f"targets must be {expected}"
                + (f" or {expected[-2:]}" if stacked else "")
                + f", got {tuple(d.shape)}"
            )
        weights = xb.asarray(self.weights if weights is None else weights,
                             dtype=xb.float_dtype)
        bias = xb.asarray(self.bias if bias is None else bias,
                          dtype=xb.float_dtype)
        if weights.ndim == 3:
            if not stacked or weights.shape[0] != r.shape[0]:
                raise ValueError(
                    f"a weight stack {tuple(weights.shape)} needs matching "
                    f"(K, N, N_r) features, got {tuple(r.shape)}"
                )
            # batched matmul per candidate — the same BLAS call row the
            # 2-D path makes, once per stack entry
            z = r @ xb.swapaxes(weights, -1, -2)
        else:
            z = r @ weights.T
        # the bias may be a (K, N_y) per-candidate stack or a shared (N_y,)
        # vector, independently of how the weights were passed
        if bias.ndim == 2:
            if not stacked or tuple(bias.shape) != (r.shape[0], self.n_classes):
                raise ValueError(
                    f"a bias stack {tuple(bias.shape)} needs matching "
                    f"(K, N, N_r) features, got {tuple(r.shape)}"
                )
            z = z + bias[:, None, :]
        else:
            z = z + bias
        # inline backend form of softmax()/cross_entropy(): same ops in the
        # same order, so the NumPy backend is bit-identical to those helpers
        shifted = z - xb.max(z, axis=-1, keepdims=True)
        e = xb.exp(shifted)
        probs = e / xb.sum(e, axis=-1, keepdims=True)
        # _EPS (1e-300) underflows to 0 in float32 working precision, which
        # would reintroduce log(0); floor it at the dtype's smallest normal.
        # In float64 tiny < _EPS, so the bit-pinned floor is unchanged.
        eps = max(_EPS, float(np.finfo(np.dtype(xb.dtype_name)).tiny))
        losses = -xb.sum(d * xb.log(xb.maximum_scalar(probs, eps)), axis=-1)
        deltas = probs - d
        return BatchOutputGradients(
            losses=losses,
            probs=probs,
            deltas=deltas,
            d_features=deltas @ weights,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SoftmaxReadout(n_features={self.n_features}, n_classes={self.n_classes})"
