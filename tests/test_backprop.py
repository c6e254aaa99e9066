"""Gradient verification: the paper's analytic backward pass against two
independent oracles (scalar autodiff and central finite differences), plus
the truncation semantics of Sec. 3.4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from repro.autodiff.dfr_graph import dfr_loss_gradients
from repro.core.backprop import (
    BackpropEngine,
    backward_chain,
    reservoir_backward,
)
from repro.representation.dprr import DPRR
from repro.reservoir.modular import ModularDFR
from repro.reservoir.nonlinearity import get_nonlinearity
from repro.reservoir.reference import naive_full_backward

from tests.helpers import central_difference, end_to_end_loss, small_instance


def _engine_grads(inst, window, normalize="length"):
    """Run forward + analytic backward for one sample instance."""
    dfr = inst["dfr"]
    trace = dfr.run(inst["u"], inst["A"], inst["B"])
    dprr = DPRR(normalize=normalize)
    feats = dprr.features(trace)[0]
    engine = BackpropEngine(inst["nonlinearity"], dprr=dprr, window=window)
    eff = engine.effective_window(trace.n_steps)
    win = trace.final_window(eff)
    return engine.sample_gradients(
        win.window_states[0],
        win.window_pre_activations[0],
        feats,
        inst["readout"],
        inst["target"],
        inst["A"],
        inst["B"],
        n_steps=trace.n_steps,
        keep_state_grads=True,
    )


class TestFullBPTTAgainstAutodiff:
    @pytest.mark.parametrize(
        "nonlinearity", ["identity", "tanh", "sine", "mackey-glass"]
    )
    def test_matches_autodiff_oracle(self, rng, nonlinearity):
        inst = small_instance(rng, nonlinearity=nonlinearity)
        grads = _engine_grads(inst, window=None)
        oracle = dfr_loss_gradients(
            inst["u"],
            inst["mask"].matrix,
            inst["A"],
            inst["B"],
            inst["readout"].weights,
            inst["readout"].bias,
            inst["target"],
            nonlinearity=nonlinearity,
        )
        assert grads.loss == pytest.approx(oracle.loss, rel=1e-10)
        assert grads.d_A == pytest.approx(oracle.d_A, rel=1e-8, abs=1e-10)
        assert grads.d_B == pytest.approx(oracle.d_B, rel=1e-8, abs=1e-10)
        np.testing.assert_allclose(
            grads.d_weights, oracle.d_weights, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(grads.d_bias, oracle.d_bias, rtol=1e-8, atol=1e-10)

    def test_matches_autodiff_without_normalization(self, rng):
        inst = small_instance(rng)
        grads = _engine_grads(inst, window=None, normalize=None)
        oracle = dfr_loss_gradients(
            inst["u"],
            inst["mask"].matrix,
            inst["A"],
            inst["B"],
            inst["readout"].weights,
            inst["readout"].bias,
            inst["target"],
            normalize=None,
        )
        assert grads.d_A == pytest.approx(oracle.d_A, rel=1e-8)
        assert grads.d_B == pytest.approx(oracle.d_B, rel=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 99_999),
        n_nodes=st.integers(2, 6),
        n_steps=st.integers(2, 8),
    )
    def test_matches_autodiff_property(self, seed, n_nodes, n_steps):
        rng = np.random.default_rng(seed)
        inst = small_instance(rng, n_nodes=n_nodes, n_steps=n_steps)
        grads = _engine_grads(inst, window=None)
        oracle = dfr_loss_gradients(
            inst["u"],
            inst["mask"].matrix,
            inst["A"],
            inst["B"],
            inst["readout"].weights,
            inst["readout"].bias,
            inst["target"],
        )
        assert grads.d_A == pytest.approx(oracle.d_A, rel=1e-7, abs=1e-10)
        assert grads.d_B == pytest.approx(oracle.d_B, rel=1e-7, abs=1e-10)


class TestFullBPTTAgainstFiniteDifferences:
    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh", "mackey-glass"])
    def test_dA_dB_match_central_differences(self, rng, nonlinearity):
        inst = small_instance(rng, nonlinearity=nonlinearity)
        grads = _engine_grads(inst, window=None)

        def loss_of_a(a_val):
            return end_to_end_loss(
                inst["u"], inst["mask"], a_val, inst["B"],
                inst["readout"].weights, inst["readout"].bias, inst["target"],
                nonlinearity=nonlinearity,
            )

        def loss_of_b(b_val):
            return end_to_end_loss(
                inst["u"], inst["mask"], inst["A"], b_val,
                inst["readout"].weights, inst["readout"].bias, inst["target"],
                nonlinearity=nonlinearity,
            )

        assert grads.d_A == pytest.approx(
            central_difference(loss_of_a, inst["A"]), rel=1e-4, abs=1e-7
        )
        assert grads.d_B == pytest.approx(
            central_difference(loss_of_b, inst["B"]), rel=1e-4, abs=1e-7
        )


class TestAgainstNaiveReferenceBackward:
    def test_fast_reservoir_backward_matches_naive(self, rng):
        """The lfilter-based backward equals the literal Eq. 23/30 loops."""
        inst = small_instance(rng, n_nodes=5, n_steps=7)
        trace = inst["dfr"].run(inst["u"], inst["A"], inst["B"])
        dr = rng.normal(size=DPRR.n_features(5))
        d_a, d_b, g = reservoir_backward(
            trace.states[0],
            trace.pre_activations[0],
            dr,
            inst["A"],
            inst["B"],
            n_steps=trace.n_steps,
            nonlinearity=get_nonlinearity("identity"),
        )
        ref_da, ref_db, ref_g = naive_full_backward(
            trace.states[0],
            trace.pre_activations[0],
            None,
            inst["A"],
            inst["B"],
            dr,
        )
        assert d_a == pytest.approx(ref_da, rel=1e-10)
        assert d_b == pytest.approx(ref_db, rel=1e-10)
        np.testing.assert_allclose(g, ref_g, rtol=1e-10, atol=1e-12)


class TestTruncation:
    def test_window_T_equals_full_bptt(self, rng):
        inst = small_instance(rng, n_steps=6)
        full = _engine_grads(inst, window=None)
        windowed = _engine_grads(inst, window=6)
        assert windowed.d_A == pytest.approx(full.d_A, rel=1e-12)
        assert windowed.d_B == pytest.approx(full.d_B, rel=1e-12)
        np.testing.assert_allclose(windowed.state_grads, full.state_grads)

    def test_window_larger_than_T_is_clamped(self, rng):
        inst = small_instance(rng, n_steps=5)
        full = _engine_grads(inst, window=None)
        clamped = _engine_grads(inst, window=50)
        assert clamped.d_A == pytest.approx(full.d_A, rel=1e-12)

    def test_truncated_window1_matches_paper_equations(self, rng):
        """Re-derive Eqs. 33-36 by hand for a random instance and compare."""
        inst = small_instance(rng, n_nodes=4, n_steps=6)
        nx = 4
        grads = _engine_grads(inst, window=1)
        trace = inst["dfr"].run(inst["u"], inst["A"], inst["B"])
        dprr = DPRR(normalize="length")  # must match _engine_grads' default
        feats = dprr.features(trace)[0]
        out = inst["readout"].loss_and_grads(feats, inst["target"])
        dr = out.d_features * dprr.scale(trace.n_steps)
        g_mat = dr[: nx * nx].reshape(nx, nx)
        g_sum = dr[nx * nx:]
        x_t = trace.states[0, -1]
        x_tm1 = trace.states[0, -2]
        s_t = trace.pre_activations[0, -1]
        # Eq. 33
        bpv = g_mat @ x_tm1 + g_sum
        # Eq. 34, solved from n = N_x down to 1 (g(T)_{N_x + 1} = 0)
        g = np.zeros(nx)
        acc = 0.0
        for n in range(nx - 1, -1, -1):
            acc = bpv[n] + inst["B"] * acc
            g[n] = acc
        # Eq. 35 with f = A * phi: df/dA = phi(s(T))
        expected_da = float(s_t @ g)  # identity shape: phi(s) = s
        # Eq. 36 with x(T)_0 = x(T-1)_{N_x}
        x_left = np.concatenate(([x_tm1[-1]], x_t[:-1]))
        expected_db = float(x_left @ g)
        assert grads.d_A == pytest.approx(expected_da, rel=1e-10)
        assert grads.d_B == pytest.approx(expected_db, rel=1e-10)

    def test_truncated_gradient_aligns_on_convergent_trajectories(self):
        """The paper justifies truncation by "the last reservoir state
        cumulatively reflects past reservoir states, and the impact of past
        states gradually attenuates".  That premise holds exactly when the
        state trajectory converges — e.g. under a constant input — where the
        per-step gradient contributions become proportional, so the
        truncated direction must align with the full BPTT direction."""
        for seed in range(6):
            rng = np.random.default_rng(seed)
            inst = small_instance(rng, n_steps=40)
            inst["u"] = np.tile(rng.normal(size=(1, 2)), (40, 1))
            full = _engine_grads(inst, window=None)
            trunc = _engine_grads(inst, window=1)
            v_full = np.array([full.d_A, full.d_B])
            v_trunc = np.array([trunc.d_A, trunc.d_B])
            cos = float(v_full @ v_trunc) / (
                np.linalg.norm(v_full) * np.linalg.norm(v_trunc)
            )
            assert cos > 0.97

    def test_intermediate_windows_interpolate(self, rng):
        """On a convergent trajectory (constant input) the truncation error
        shrinks monotonically as the window grows, reaching 0 at W = T."""
        inst = small_instance(rng, n_steps=16)
        inst["u"] = np.tile(rng.normal(size=(1, 2)), (16, 1))
        full = _engine_grads(inst, window=None)
        errs = []
        for window in (1, 4, 16):
            g = _engine_grads(inst, window=window)
            errs.append(abs(g.d_A - full.d_A) + abs(g.d_B - full.d_B))
        assert errs[2] == pytest.approx(0.0, abs=1e-12)
        assert errs[0] >= errs[1] >= errs[2]

    def test_output_layer_grads_unaffected_by_truncation(self, rng):
        inst = small_instance(rng)
        full = _engine_grads(inst, window=None)
        trunc = _engine_grads(inst, window=1)
        np.testing.assert_allclose(full.d_weights, trunc.d_weights)
        np.testing.assert_allclose(full.d_bias, trunc.d_bias)


class TestValidation:
    def test_window_shape_mismatch_rejected(self, rng):
        inst = small_instance(rng)
        with pytest.raises(ValueError, match="window_states"):
            reservoir_backward(
                np.zeros((3, 4)),
                np.zeros((3, 4)),
                np.zeros(20),
                0.1,
                0.1,
                n_steps=6,
                nonlinearity=get_nonlinearity("identity"),
            )

    def test_d_repr_size_rejected(self):
        with pytest.raises(ValueError, match="d_repr"):
            reservoir_backward(
                np.zeros((2, 4)),
                np.zeros((1, 4)),
                np.zeros(7),
                0.1,
                0.1,
                n_steps=5,
                nonlinearity=get_nonlinearity("identity"),
            )

    def test_window_exceeding_length_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            reservoir_backward(
                np.zeros((7, 3)),
                np.zeros((6, 3)),
                np.zeros(12),
                0.1,
                0.1,
                n_steps=4,
                nonlinearity=get_nonlinearity("identity"),
            )

    def test_engine_rejects_bad_window(self):
        with pytest.raises(ValueError):
            BackpropEngine(window=0)


def _lfilter_chain(drive, B, z0):
    """The reversed first-order lfilter call the backward chain replaces."""
    return lfilter([1.0], np.array([1.0, -B]), drive[::-1],
                   zi=np.array([z0]))[0][::-1]


def _lfilter_reservoir_backward(window_states, window_pre, d_repr, A, B,
                                nonlinearity):
    """The per-step lfilter form of :func:`reservoir_backward`, kept as its
    bitwise oracle."""
    window, nx = window_pre.shape
    g_mat = d_repr[: nx * nx].reshape(nx, nx)
    g_sum = d_repr[nx * nx:]
    g_next = np.zeros(nx)
    d_a = 0.0
    d_b = 0.0
    state_grads = np.zeros((window, nx))
    for idx in range(window - 1, -1, -1):
        k_is_last = idx == window - 1
        x_prev = window_states[idx]
        x_here = window_states[idx + 1]
        drive = g_mat @ x_prev + g_sum
        if not k_is_last:
            drive = drive + g_mat.T @ window_states[idx + 2]
            drive = drive + A * nonlinearity.dphi(window_pre[idx + 1]) * g_next
        g_here = _lfilter_chain(drive, B, B * g_next[0])
        state_grads[idx] = g_here
        d_a += float(nonlinearity.phi(window_pre[idx]) @ g_here)
        x_left = np.concatenate(([x_prev[-1]], x_here[:-1]))
        d_b += float(x_left @ g_here)
        g_next = g_here
    return d_a, d_b, state_grads


def _same_bits(got, want):
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


class TestBackwardChain:
    """The scalar B-chain equals the reversed lfilter call bit for bit —
    values, NaN signs and the reversed-view layout."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_random_drives(self, rng, n):
        for scale in (1e-3, 1.0, 1e3):
            drive = rng.normal(scale=scale, size=n)
            for B in (0.05, 0.5623413251903491, float(rng.uniform(-1, 1))):
                _same_bits(backward_chain(drive, B, 0.0),
                           _lfilter_chain(drive, B, 0.0))

    def test_nonzero_boundary(self, rng):
        for n in (1, 2, 7, 30):
            drive = rng.normal(size=n)
            for z0 in (float(rng.normal()), -3.5, 1e-300, 1e300):
                _same_bits(backward_chain(drive, 0.3, z0),
                           _lfilter_chain(drive, 0.3, z0))

    def test_signed_zeros(self):
        drives = [np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0]),
                  np.array([-0.0]), np.array([1.0, -0.0, -1.0, 0.0])]
        for drive in drives:
            for B in (0.0, -0.0, 0.25, -0.25):
                for z0 in (0.0, -0.0):
                    _same_bits(backward_chain(drive, B, z0),
                               _lfilter_chain(drive, B, z0))

    def test_inf_and_nan_propagate_like_lfilter(self, rng):
        specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308])
        for trial in range(200):
            n = int(rng.integers(1, 31))
            drive = rng.normal(size=n)
            hit = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
            drive[hit] = rng.choice(specials, size=hit.shape[0])
            B = float(rng.choice([0.3, -0.7, 1e200]))
            z0 = float(rng.choice([0.0, -0.0, 2.0, np.inf, -np.inf, np.nan]))
            _same_bits(backward_chain(drive, B, z0),
                       _lfilter_chain(drive, B, z0))

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh",
                                              "mackey-glass"])
    @pytest.mark.parametrize("window", [1, 3, None])
    def test_reservoir_backward_matches_lfilter_form(self, rng, nonlinearity,
                                                     window):
        inst = small_instance(rng, n_nodes=5, n_steps=7,
                              nonlinearity=nonlinearity)
        trace = inst["dfr"].run(inst["u"], inst["A"], inst["B"])
        t_len = trace.n_steps
        win = trace.final_window(t_len if window is None else window)
        nl = get_nonlinearity(nonlinearity)
        d_repr = rng.normal(size=5 * 6)
        args = (win.window_states[0], win.window_pre_activations[0], d_repr,
                inst["A"], inst["B"])
        d_a, d_b, grads = reservoir_backward(*args, n_steps=t_len,
                                             nonlinearity=nl)
        want_a, want_b, want_grads = _lfilter_reservoir_backward(*args, nl)
        assert (d_a, d_b) == (want_a, want_b)
        _same_bits(grads, want_grads)
