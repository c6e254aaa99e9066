"""Reservoir model-space representation (Chen et al. 2013; Bianchi et al. 2020).

The representation baseline the DPRR was originally compared against
(paper Sec. 2.2, refs [4, 6]): instead of aggregating reservoir states
directly, fit — per sample — a small ridge readout that predicts the next
reservoir state (or next input) from the current state, and use the
flattened readout coefficients as the fixed-length representation.  Samples
whose dynamics differ get different one-step models, hence separable
coefficient vectors.

Two flavors are provided, matching the literature:

* ``target="states"`` — *reservoir model space*: predict ``x(k+1)`` from
  ``x(k)``; features per sample: ``N_x * (N_x + 1)`` (coefficients +
  intercept), the same width as the DPRR at equal ``N_x``.
* ``target="input"`` — *output model space*: predict ``u(k+1)`` from
  ``x(k)``; features per sample: ``C * (N_x + 1)``.
"""

from __future__ import annotations

import numpy as np

from repro.readout.ridge import ridge_solve
from repro.reservoir.modular import ReservoirTrace

__all__ = ["ModelSpace"]


class ModelSpace:
    """Per-sample one-step-prediction model coefficients as features.

    Parameters
    ----------
    ridge:
        Regularization of the per-sample one-step model (these fits see
        ``T`` rows of ``N_x`` features, so a small positive value is
        required for stability).
    target:
        ``"states"`` (reservoir model space) or ``"input"`` (output model
        space; requires passing the input batch to :meth:`features`).
    """

    def __init__(self, ridge: float = 1e-4, target: str = "states"):
        if ridge <= 0.0:
            raise ValueError(f"ridge must be positive, got {ridge}")
        if target not in ("states", "input"):
            raise ValueError(f"target must be 'states' or 'input', got {target!r}")
        self.ridge = float(ridge)
        self.target = target

    def n_features(self, n_nodes: int, n_channels: int = None) -> int:
        """Feature width for a given reservoir size."""
        if self.target == "states":
            return n_nodes * (n_nodes + 1)
        if n_channels is None:
            raise ValueError("n_channels is required for target='input'")
        return n_channels * (n_nodes + 1)

    def features(self, source, u: np.ndarray = None) -> np.ndarray:
        """Compute model-space features ``(N, n_features)``.

        Parameters
        ----------
        source:
            A :class:`ReservoirTrace` or raw ``(N, T+1, N_x)`` state array.
        u:
            The input batch ``(N, T, C)``; required for ``target="input"``.
        """
        states = source.states if isinstance(source, ReservoirTrace) else np.asarray(source)
        if states.ndim != 3:
            raise ValueError(f"states must be (N, T+1, N_x), got {states.shape}")
        n, t_plus_1, nx = states.shape
        if t_plus_1 < 3:
            raise ValueError("need at least two time steps to fit a one-step model")
        if self.target == "input":
            if u is None:
                raise ValueError("target='input' requires the input batch u")
            u = np.asarray(u, dtype=np.float64)
            if u.shape[:2] != (n, t_plus_1 - 1):
                raise ValueError(
                    f"u must be (N, T, C) matching the trace, got {u.shape}"
                )
        # one stacked fit: every sample's one-step model is a candidate row
        x_now = states[:, 1:-1, :]             # x(1) .. x(T-1)
        design = np.concatenate(
            [x_now, np.ones(x_now.shape[:2] + (1,))], axis=2
        )
        if self.target == "states":
            target = states[:, 2:, :]          # x(2) .. x(T)
        else:
            target = u[:, 1:, :]               # u(2) .. u(T)
        penalty = np.full((1, n), self.ridge * design.shape[1])
        coef = ridge_solve(design, np.asarray(target, dtype=np.float64),
                           penalty)[0]
        return coef.transpose(0, 2, 1).reshape(n, -1)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ModelSpace(ridge={self.ridge}, target={self.target!r})"
