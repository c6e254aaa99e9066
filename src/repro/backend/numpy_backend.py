"""The reference backend: NumPy + SciPy, bit-identical to the seed code.

Every method delegates to exactly the NumPy/SciPy call the pre-backend hot
path made (same functions, same argument order — or, for reductions, the
ndarray method that call dispatches to), so a pipeline routed
through :class:`NumpyBackend` reproduces the historical results *bit for
bit* — ``tests/test_backend.py`` pins this with hard-coded gradients, and
the seed-trajectory pins in ``tests/test_batched_training.py`` ride on it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.signal import lfilter

from repro.backend.base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """CPU reference backend (NumPy arrays, SciPy filters).

    Parameters
    ----------
    dtype:
        Working float precision: ``"float64"`` (default — the bit-pinned
        reference; every operation below is then byte-for-byte the
        historical call) or ``"float32"`` (opt-in reduced precision,
        validated against the float64 reference by rtol-bounded parity
        tests).
    """

    name = "numpy"
    float64 = np.float64
    device = "cpu"
    has_general_lfilter = True

    def __init__(self, dtype: str = "float64"):
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        self.dtype_name = dtype
        self.float_dtype = np.float64 if dtype == "float64" else np.float32

    def asarray(self, a, dtype=None):
        out = np.asarray(a, dtype=dtype)
        # float32 mode narrows incoming double-precision data; the default
        # float64 mode never touches the array (bit-pinned reference path)
        if (dtype is None and self.float_dtype is not np.float64
                and out.dtype == np.float64):
            out = out.astype(self.float_dtype)
        return out

    def to_numpy(self, a):
        return np.asarray(a)

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.float_dtype)

    def empty(self, shape):
        return np.empty(shape, dtype=self.float_dtype)

    def atleast_2d(self, a):
        return np.atleast_2d(a)

    def flip(self, a, axis: int):
        # the slice spelling the hot path historically used; a view, no copy
        index = [slice(None)] * a.ndim
        index[axis] = slice(None, None, -1)
        return a[tuple(index)]

    def roll(self, a, shift: int, axis: int):
        return np.roll(a, shift, axis=axis)

    def concatenate(self, arrays: Sequence, axis: int = 0):
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays: Sequence, axis: int = 0):
        return np.stack(arrays, axis=axis)

    def take(self, a, indices, axis: int = 0):
        return np.take(a, indices, axis=axis)

    def swapaxes(self, a, axis1: int, axis2: int):
        return np.swapaxes(a, axis1, axis2)

    def einsum(self, subscripts: str, *operands):
        return np.einsum(subscripts, *operands)

    def exp(self, a):
        return np.exp(a)

    def log(self, a):
        return np.log(a)

    def abs(self, a):
        return np.abs(a)

    def maximum_scalar(self, a, value: float):
        return np.maximum(a, value)

    def isfinite(self, a):
        return np.isfinite(a)

    # reductions call the ndarray methods: the same ufunc reductions as
    # np.any/np.sum/..., without their Python-level dispatch, which costs
    # more than the reduction itself on one sample's arrays

    def any(self, a, axis: Optional[int] = None):
        return a.any(axis=axis)

    def sum(self, a, axis: Optional[int] = None, keepdims: bool = False):
        return a.sum(axis=axis, keepdims=keepdims)

    def mean(self, a, axis: Optional[int] = None):
        return a.mean(axis=axis)

    def max(self, a, axis: Optional[int] = None, keepdims: bool = False):
        return a.max(axis=axis, keepdims=keepdims)

    def phi(self, nonlinearity, s):
        return nonlinearity.phi(s)

    def dphi(self, nonlinearity, s):
        return nonlinearity.dphi(s)

    def streaming_masked_drive(self, mask, u):
        # one GEMM per time step: the (N, 1, C) @ (C, N_x) kernel is the
        # same whatever chunk length the stream arrives in, so streaming
        # drives are bit-identical across any chunking of the same series
        # (BLAS picks shape-dependent kernels for a full-chunk GEMM, which
        # shifts last-ulp bits between chunk sizes)
        u = np.asarray(u, dtype=np.float64)
        n, t_len, _ = u.shape
        out = np.empty((n, t_len, mask.n_nodes))
        for k in range(t_len):
            out[:, k, :] = mask.apply(u[:, k:k + 1, :])[:, 0, :]
        return self.asarray(out)

    def first_order_filter(self, x, coef: float, zi):
        y, _ = lfilter([1.0], np.array([1.0, -coef]), x, axis=-1, zi=zi)
        if y.dtype != self.float_dtype:  # float32 mode: lfilter upcasts
            y = y.astype(self.float_dtype)
        return y

    def first_order_filter_stacked(self, x, coefs, zi):
        # candidate rows are swept by the very lfilter call the scalar path
        # makes, so row k is bit-identical to a scalar sweep with coefs[k]
        out = np.empty_like(x)
        for k, coef in enumerate(coefs):
            out[k], _ = lfilter([1.0], np.array([1.0, -coef]), x[k],
                                axis=-1, zi=zi[k])
        return out

    def lfilter_general(self, b, a, x, axis: int = -1):
        return lfilter(b, a, x, axis=axis)

    def errstate(self):
        # the context manager itself: no generator frame per sweep
        return np.errstate(over="ignore", invalid="ignore")
