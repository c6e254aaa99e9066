"""Dot-Product Reservoir Representation (DPRR, paper Sec. 2.2).

Classification needs one fixed-length feature vector per (variable-length)
series.  The DPRR builds it from lag-1 dot products of virtual-node
trajectories plus the plain time sums (paper Eqs. 10–11, 18–19):

.. math::

    r_{(i-1)N_x + j} = \\sum_{k=1}^{T} x(k)_i\\, x(k-1)_j, \\qquad
    r_{N_x^2 + i}    = \\sum_{k=1}^{T} x(k)_i,

giving :math:`N_r = N_x (N_x + 1)` features, i.e.
:math:`r = \\mathrm{vec}\\bigl(\\sum_k x(k)\\,[x(k-1), 1]^T\\bigr)`.

Normalization
-------------
The default (``normalize=None``) keeps the literal paper sums — the SGD
protocol of Sec. 4 (learning rate 1, 25 epochs) is tuned for exactly this
scale, and experiments with a ``1/T`` normalization destabilized training
on long-series datasets.  ``normalize="length"`` divides by ``T``; the
constant is carried through the analytic backward pass, so gradients are
exact either way.

The contraction is a single ``einsum`` plus a sum, so :meth:`DPRR.features`
routes through an :class:`~repro.backend.ArrayBackend` — inferred from the
source arrays by default, so a device-resident reservoir trace stays on its
device all the way to the feature matrix.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backend import infer_backend, resolve_backend
from repro.reservoir.modular import ReservoirTrace, StreamingResult

__all__ = ["DPRR"]


class DPRR:
    """Dot-product reservoir representation extractor.

    Parameters
    ----------
    normalize:
        ``None`` (default) keeps the literal paper sums;
        ``"length"`` divides them by the series length ``T``.

    Examples
    --------
    >>> dprr = DPRR()
    >>> dprr.n_features(n_nodes=30)
    930
    """

    def __init__(self, normalize: Optional[str] = None):
        if normalize not in (None, "length"):
            raise ValueError(f"normalize must be None or 'length', got {normalize!r}")
        self.normalize = normalize

    @staticmethod
    def n_features(n_nodes: int) -> int:
        """Feature count ``N_r = N_x (N_x + 1)``."""
        return n_nodes * (n_nodes + 1)

    def scale(self, n_steps: int) -> float:
        """The constant multiplying the raw sums (1 or ``1/T``)."""
        return 1.0 / n_steps if self.normalize == "length" else 1.0

    def features(
        self, source: Union[ReservoirTrace, StreamingResult, np.ndarray],
        *, backend=None,
    ) -> np.ndarray:
        """Compute DPRR features ``(N, N_x (N_x + 1))``.

        Candidate-stacked sources (a vector-``(A, B)`` reservoir run, whose
        arrays carry a leading candidate axis) yield ``(K, N, N_x (N_x+1))``
        — K feature matrices from one fused contraction.

        Parameters
        ----------
        source:
            A :class:`ReservoirTrace` (or a raw ``(N, T+1, N_x)`` /
            ``(K, N, T+1, N_x)`` state array including the zero initial
            row), or a :class:`StreamingResult` whose online accumulators
            are reused directly.
        backend:
            :class:`~repro.backend.ArrayBackend` running the contraction;
            ``None`` infers it from the source arrays, so a device-resident
            trace yields device-resident features with no extra threading.
        """
        if isinstance(source, StreamingResult):
            if source.dprr_sums is None:
                raise ValueError(
                    "StreamingResult carries no DPRR accumulators (it was sliced "
                    "from a full trace); pass the trace instead"
                )
            p_acc, s_acc = source.dprr_sums
            xb = infer_backend(p_acc) if backend is None else resolve_backend(backend)
            p_flat = p_acc.reshape(tuple(p_acc.shape[:-2]) + (-1,))
            raw = xb.concatenate([p_flat, s_acc], axis=-1)
            return raw * self.scale(source.n_steps)

        states = source.states if isinstance(source, ReservoirTrace) else source
        xb = infer_backend(states) if backend is None else resolve_backend(backend)
        states = xb.asarray(states)
        if states.ndim not in (3, 4):
            raise ValueError(
                f"states must be (N, T+1, N_x) including the initial row — or "
                f"(K, N, T+1, N_x) for a candidate-stacked trace — got "
                f"{states.shape}"
            )
        t_len = states.shape[-2] - 1
        if t_len < 1:
            raise ValueError("need at least one time step")
        return dprr_contract(xb, states, self.scale(t_len))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DPRR(normalize={self.normalize!r})"


def dprr_contract(xb, states, scale: float):
    """The DPRR arithmetic of :meth:`DPRR.features`, without validation.

    ``states`` is a ``(..., T+1, N_x)`` array of backend ``xb`` including
    the zero initial row; returns ``(..., N_x (N_x+1))`` features times
    ``scale``.
    """
    x_k = states[..., 1:, :]   # x(1) .. x(T)
    x_prev = states[..., :-1, :]  # x(0) .. x(T-1)
    # the ellipsis covers the sample axis — and, for a stacked trace,
    # the candidate axis in front of it — in one contraction
    p_mat = xb.einsum("...ti,...tj->...ij", x_k, x_prev)
    s_vec = xb.sum(x_k, axis=-2)
    p_flat = p_mat.reshape(tuple(p_mat.shape[:-2]) + (-1,))
    raw = xb.concatenate([p_flat, s_vec], axis=-1)
    return raw * scale
