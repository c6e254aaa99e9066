"""Tests for the ridge readout and beta model selection."""

import numpy as np
import pytest

from repro.core.grid_search import PAPER_A_RANGE, PAPER_B_RANGE, grid_values
from repro.core.pipeline import (
    DFRFeatureExtractor,
    FixedParamsEvaluation,
    evaluate_fixed_params,
)
from repro.core.selection import best_evaluation
from repro.data.loaders import load_dataset
from repro.data.preprocessing import stratified_split
from repro.readout.ridge import (
    PAPER_BETAS,
    fit_ridge,
    fit_ridge_regressor,
    fit_ridge_sweep,
    ridge_solve,
    select_beta,
)
from repro.readout.softmax import cross_entropy, one_hot, softmax


def _separable_problem(rng, n=60, n_features=8, n_classes=3, scale=3.0):
    """Gaussian blobs: linearly separable when scale is large."""
    y = rng.integers(0, n_classes, size=n)
    centers = rng.normal(size=(n_classes, n_features)) * scale
    x = centers[y] + rng.normal(size=(n, n_features))
    return x, y


def test_fit_ridge_learns_separable_blobs(rng):
    x, y = _separable_problem(rng)
    model = fit_ridge(x, y, beta=1e-4)
    assert model.accuracy(x, y) >= 0.95


def test_predictions_generalize(rng):
    x, y = _separable_problem(rng, n=200)
    model = fit_ridge(x[:100], y[:100], beta=1e-2)
    assert model.accuracy(x[100:], y[100:]) >= 0.9


def test_small_beta_approaches_least_squares(rng):
    """As beta -> 0 on a well-conditioned problem, ridge -> OLS."""
    x = rng.normal(size=(100, 5))
    w_true = rng.normal(size=(5, 2))
    scores = x @ w_true
    y = scores.argmax(axis=1)
    m_small = fit_ridge(x, y, beta=1e-10)
    m_tiny = fit_ridge(x, y, beta=1e-12)
    np.testing.assert_allclose(m_small.coef, m_tiny.coef, rtol=1e-3, atol=1e-6)


def test_heavier_beta_shrinks_coefficients(rng):
    x, y = _separable_problem(rng)
    sweep = fit_ridge_sweep(x, y, [1e-6, 1e2])
    assert np.linalg.norm(sweep[1e2].coef) < np.linalg.norm(sweep[1e-6].coef)


def test_sweep_matches_individual_fits(rng):
    x, y = _separable_problem(rng)
    sweep = fit_ridge_sweep(x, y, PAPER_BETAS)
    for beta in PAPER_BETAS:
        single = fit_ridge(x, y, beta)
        np.testing.assert_allclose(sweep[beta].coef, single.coef, rtol=1e-10)


def test_rank_deficient_features_are_handled(rng):
    """More features than samples (the DPRR regime: N_r=930 >> N)."""
    x = rng.normal(size=(20, 50))
    y = rng.integers(0, 2, size=20)
    model = fit_ridge(x, y, beta=1e-2)
    assert np.all(np.isfinite(model.coef))
    assert model.accuracy(x, y) >= 0.5


def test_constant_feature_does_not_blow_up(rng):
    x, y = _separable_problem(rng)
    x[:, 0] = 5.0  # zero variance
    model = fit_ridge(x, y, beta=1e-4)
    assert np.all(np.isfinite(model.coef))


def test_scores_shape_and_intercept(rng):
    x, y = _separable_problem(rng, n_classes=4)
    model = fit_ridge(x, y, beta=1e-2)
    assert model.scores(x).shape == (60, 4)
    # one-hot regression scores should average to the class priors
    np.testing.assert_allclose(
        model.scores(x).mean(axis=0),
        np.bincount(y, minlength=4) / len(y),
        atol=0.05,
    )


def test_nonfinite_features_rejected(rng):
    x, y = _separable_problem(rng)
    x[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fit_ridge(x, y, beta=1e-2)


def test_nonpositive_beta_rejected(rng):
    x, y = _separable_problem(rng)
    with pytest.raises(ValueError):
        fit_ridge(x, y, beta=0.0)
    with pytest.raises(ValueError):
        fit_ridge(x, y, beta=-1.0)


class TestSelectBeta:
    def test_selects_regularized_model_when_overfitting(self, rng):
        # high-dimensional noise + weak signal: tiny beta overfits badly
        n, n_features = 40, 200
        y = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, n_features))
        x[:, 0] += 0.5 * (2 * y - 1)
        sel = select_beta(x, y, betas=PAPER_BETAS, seed=0)
        assert sel.best_beta >= 1e-4

    def test_selection_returns_all_candidates(self, rng):
        x, y = _separable_problem(rng)
        sel = select_beta(x, y, betas=PAPER_BETAS, seed=0)
        assert set(sel.val_losses) == set(PAPER_BETAS)
        assert set(sel.val_accuracies) == set(PAPER_BETAS)
        assert sel.best_val_loss == sel.val_losses[sel.best_beta]

    def test_final_model_is_refit_on_all_data(self, rng):
        x, y = _separable_problem(rng)
        sel = select_beta(x, y, betas=[1e-2], seed=0)
        direct = fit_ridge(x, y, beta=1e-2)
        np.testing.assert_allclose(sel.best_model.coef, direct.coef, rtol=1e-10)

    def test_tiny_dataset_fallback(self, rng):
        # every class has a single sample -> empty holdout -> fallback
        x = rng.normal(size=(3, 5))
        y = np.array([0, 1, 2])
        sel = select_beta(x, y, betas=PAPER_BETAS, seed=0)
        assert sel.best_beta in PAPER_BETAS

    def test_deterministic_under_seed(self, rng):
        x, y = _separable_problem(rng)
        s1 = select_beta(x, y, seed=7)
        s2 = select_beta(x, y, seed=7)
        assert s1.best_beta == s2.best_beta
        assert s1.val_losses == s2.val_losses


# --------------------------------------------------------------------- #
# betas validation
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-2])
def test_sweep_rejects_bad_beta(rng, bad):
    x, y = _separable_problem(rng)
    with pytest.raises(ValueError, match=repr(bad)):
        fit_ridge_sweep(x, y, [1e-2, bad])


def test_select_beta_rejects_infinite_beta(rng):
    x, y = _separable_problem(rng)
    with pytest.raises(ValueError, match="inf"):
        select_beta(x, y, betas=[1e-2, float("inf")], seed=0)


def test_select_beta_rejects_empty_betas(rng):
    x, y = _separable_problem(rng)
    with pytest.raises(ValueError, match="non-empty"):
        select_beta(x, y, betas=[], seed=0)


def test_regressor_rejects_nan_beta(rng):
    x = rng.normal(size=(30, 4))
    with pytest.raises(ValueError, match="nan"):
        fit_ridge_regressor(x, x[:, 0], float("nan"))


# --------------------------------------------------------------------- #
# the solver against a thin-SVD reference
# --------------------------------------------------------------------- #

def _svd_ridge(x, y, lam):
    """``V diag(s / (s^2 + lam)) U^T y`` of centered ``x``, ``y``."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    u, s, vt = np.linalg.svd(xc, full_matrices=False)
    return vt.T @ ((s / (s**2 + lam))[:, np.newaxis] * (u.T @ yc))


@pytest.fixture(scope="module")
def dprr_features():
    """Real DPRR features: N = 60 series, N_r = 12 * 13 = 156 > N."""
    data = load_dataset("JPVOW", seed=0, n_train=60, n_test=10)
    ext = DFRFeatureExtractor(n_nodes=12, seed=0).fit(data.u_train)
    features, diverged = ext.features(data.u_train, 0.05, 0.1)
    assert not diverged.any()
    return features, data.y_train, data.n_classes


@pytest.mark.parametrize("beta", PAPER_BETAS)
def test_dual_form_matches_svd_reference(dprr_features, beta):
    """N < N_r and rank-deficient after centering (rank N - 1)."""
    x, y, n_classes = dprr_features
    assert x.shape[0] < x.shape[1]
    model = fit_ridge(x, y, beta, n_classes=n_classes)
    ref = _svd_ridge(x, one_hot(y, n_classes), beta * x.shape[0])
    np.testing.assert_allclose(model.coef, ref, rtol=1e-6)


@pytest.mark.parametrize("beta", PAPER_BETAS)
def test_primal_form_matches_svd_reference(rng, beta):
    x, y = _separable_problem(rng, n=120, n_features=20, n_classes=4)
    model = fit_ridge(x, y, beta)
    ref = _svd_ridge(x, one_hot(y, 4), beta * x.shape[0])
    np.testing.assert_allclose(model.coef, ref, rtol=1e-6)


def test_regressor_matches_svd_reference(rng):
    x = rng.normal(size=(25, 40))
    t = rng.normal(size=(25, 2))
    model = fit_ridge_regressor(x, t, 1e-3)
    np.testing.assert_allclose(model.coef, _svd_ridge(x, t, 1e-3 * 25),
                               rtol=1e-6)


# --------------------------------------------------------------------- #
# candidate stacks: each slice is bit-identical to its K=1 call
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("n, n_features", [(40, 90), (90, 12)])
def test_stacked_sweep_slices_are_bitwise_single_calls(rng, n, n_features):
    x = rng.normal(size=(5, n, n_features))
    y = rng.integers(0, 3, size=n)
    stacked = fit_ridge_sweep(x, y, PAPER_BETAS)
    assert len(stacked) == 5
    for k in range(5):
        single = fit_ridge_sweep(x[k], y, PAPER_BETAS)
        for beta in PAPER_BETAS:
            assert np.array_equal(stacked[k][beta].coef, single[beta].coef)
            assert np.array_equal(stacked[k][beta].intercept,
                                  single[beta].intercept)


@pytest.mark.parametrize("n, n_features", [(40, 90), (90, 12)])
def test_stacked_selection_slices_are_bitwise_single_calls(rng, n,
                                                           n_features):
    x = rng.normal(size=(6, n, n_features))
    y = rng.integers(0, 3, size=n)
    x[:, :, 0] += y  # some signal, so rows pick different betas
    seeds = [0, 0, 1, 2, 2, 3]
    for seed in (seeds, 7):
        stacked = select_beta(x, y, seed=seed)
        for k in range(6):
            single = select_beta(
                x[k], y, seed=seed[k] if isinstance(seed, list) else seed)
            assert stacked[k].best_beta == single.best_beta
            assert stacked[k].val_losses == single.val_losses
            assert stacked[k].val_accuracies == single.val_accuracies
            assert np.array_equal(stacked[k].best_model.coef,
                                  single.best_model.coef)


def test_singular_slice_falls_back_to_least_squares(rng):
    """A singular system in a stack costs only its own slice: the healthy
    slices keep their LU solution bit for bit."""
    x = rng.normal(size=(3, 10, 25))
    y = rng.normal(size=(3, 10, 2))
    x[1] = 0.0
    penalties = np.array([[0.5, 0.0, 0.5]])  # slice 1: the zero matrix
    coef = ridge_solve(x, y, penalties)
    assert np.array_equal(coef[0, 1], np.zeros((25, 2)))
    for k in (0, 2):
        single = ridge_solve(x[k:k + 1], y[k:k + 1], penalties[:, k:k + 1])
        assert np.array_equal(coef[0, k], single[0, 0])


def test_stacked_selection_needs_one_seed_per_row(rng):
    x = rng.normal(size=(3, 30, 5))
    y = rng.integers(0, 2, size=30)
    with pytest.raises(ValueError, match="one seed per"):
        select_beta(x, y, seed=[0, 1])


# --------------------------------------------------------------------- #
# pins: selections agree with the primal-Cholesky readout it replaced
# --------------------------------------------------------------------- #

def _cholesky_fit(x, y, n_classes, beta):
    """The former readout: primal ``X^T X + beta n I`` by Cholesky."""
    mean = x.mean(axis=0)
    xc = x - mean
    targets = one_hot(y, n_classes)
    y_mean = targets.mean(axis=0)
    lhs = xc.T @ xc + beta * x.shape[0] * np.eye(x.shape[1])
    chol = np.linalg.cholesky(lhs)
    coef = np.linalg.solve(chol.T, np.linalg.solve(
        chol, xc.T @ (targets - y_mean)))
    return lambda f: (f - mean) @ coef + y_mean


def _cholesky_select(x, y, n_classes, seed):
    """``(beta, val_accuracy, val_loss, refit scorer)`` of the oracle."""
    fit_idx, val_idx = stratified_split(y, 0.2, seed=np.random.default_rng(seed))
    rows = []
    for beta in PAPER_BETAS:
        scores = _cholesky_fit(x[fit_idx], y[fit_idx], n_classes, beta)(
            x[val_idx])
        acc = float((scores.argmax(axis=1) == y[val_idx]).mean())
        loss = float(cross_entropy(softmax(scores),
                                   one_hot(y[val_idx], n_classes)).mean())
        rows.append((-acc, loss, beta))
    neg_acc, loss, beta = min(rows)
    return beta, -neg_acc, loss, _cholesky_fit(x, y, n_classes, beta)


@pytest.mark.parametrize("key, n_train, n_test", [
    ("JPVOW", 90, 90), ("LIB", 75, 75), ("ECG", 80, 80),
    ("UWAV", 80, 80), ("WAF", 80, 80),
])
def test_selection_and_grid_winner_match_cholesky_oracle(key, n_train,
                                                         n_test):
    data = load_dataset(key, seed=0, n_train=n_train, n_test=n_test)
    ext = DFRFeatureExtractor(n_nodes=12, seed=0).fit(data.u_train)
    split_seed = 1234
    ours, oracle = [], []
    for a in grid_values(*PAPER_A_RANGE, 3):
        for b in grid_values(*PAPER_B_RANGE, 3):
            ev = evaluate_fixed_params(
                ext, data.u_train, data.y_train, data.u_test, data.y_test,
                float(a), float(b), n_classes=data.n_classes, seed=split_seed)
            ours.append(ev)
            if ev.diverged:
                oracle.append(ev)
                continue
            f_train, _ = ext.features(data.u_train, float(a), float(b))
            f_test, _ = ext.features(data.u_test, float(a), float(b))
            beta, acc, loss, scorer = _cholesky_select(
                f_train, data.y_train, data.n_classes, split_seed)
            assert ev.beta == beta, (key, a, b)
            oracle.append(FixedParamsEvaluation(
                A=ev.A, B=ev.B, beta=beta, val_loss=loss, val_accuracy=acc,
                test_accuracy=float(
                    (scorer(f_test).argmax(axis=1) == data.y_test).mean()),
                diverged=False,
            ))
    ours_best, oracle_best = best_evaluation(ours), best_evaluation(oracle)
    assert (ours_best.A, ours_best.B, ours_best.beta) == (
        oracle_best.A, oracle_best.B, oracle_best.beta)
    assert ours_best.test_accuracy == oracle_best.test_accuracy
