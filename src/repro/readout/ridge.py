"""Ridge-regression readout with regularization selection (paper Sec. 4).

After the backpropagation phase fixes the reservoir parameters, the paper
retrains the output layer by ridge regression on one-hot targets, trying
``beta in {1e-6, 1e-4, 1e-2, 1}`` and keeping "the one with the smallest
loss L".  The split used for that loss is not specified; selecting by
*training* loss degenerates to the smallest ``beta``, so this implementation
scores each candidate on a seeded stratified holdout of the training set
(documented substitution — see DESIGN.md).  Grid search uses the identical
criterion so the comparison stays fair.

Conventions
-----------
* Features are *centered* (and targets centered) so the intercept never
  needs regularizing, but **not variance-scaled** by default: with the
  identity reservoir shape, feature variance scales as ``A^2``, and it is
  precisely the interplay between that scale and a fixed ``beta`` that
  makes the paper's accuracy landscape depend on ``A`` (Fig. 6).  Full
  standardization (``standardize=True``) is available but would flatten
  the ``A`` axis of the landscape.
* The regularizer is ``beta * n`` — scaling it by the sample count makes
  ``beta`` comparable across datasets of different sizes.
* One solver, :func:`ridge_solve`, serves every ridge fit in the package.
  It solves in the smaller Gram form: the dual ``x x^T + beta n I``
  (``N x N``) when there are fewer samples than features — the DPRR
  regime, e.g. ``N = 270`` series against ``N_r = 930`` features — and
  the primal ``x^T x + beta n I`` (``N_r x N_r``) otherwise.  It runs on
  numpy's own LAPACK (``np.linalg.solve``; least squares for a singular
  system) and only on it: scipy bundles a second OpenBLAS, and the two
  libraries' thread pools contending for the same cores cost several
  times the solve.
* Fits take a leading candidate axis: :func:`fit_ridge_sweep` and
  :func:`select_beta` accept a ``(K, N, N_r)`` stack and return one
  result per candidate, bit-identical to the 2-D call on each slice, so a
  fused block of grid candidates scores its readouts in one call.
* For model selection, scores are converted to probabilities with a softmax
  and scored by cross-entropy, mirroring the loss the backpropagation phase
  optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.preprocessing import stratified_split
from repro.readout.softmax import cross_entropy, one_hot, softmax
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import ensure_1d_labels

__all__ = [
    "RidgeModel",
    "fit_ridge",
    "fit_ridge_sweep",
    "RidgeSelection",
    "select_beta",
    "RidgeRegressor",
    "fit_ridge_regressor",
    "ridge_solve",
]

#: the paper's candidate regularization values
PAPER_BETAS = (1e-6, 1e-4, 1e-2, 1.0)


@dataclass
class RidgeModel:
    """A fitted multi-output ridge readout."""

    beta: float
    coef: np.ndarray        # (N_r, N_y)
    intercept: np.ndarray   # (N_y,)
    feature_mean: np.ndarray
    feature_std: np.ndarray
    n_classes: int

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Linear scores ``(N, N_y)`` (one-hot regression outputs)."""
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        z = (f - self.feature_mean) / self.feature_std
        return z @ self.coef + self.intercept

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.scores(features).argmax(axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax-calibrated probabilities of the linear scores."""
        return softmax(self.scores(features))

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean softmax cross-entropy on ``(features, labels)``."""
        labels = ensure_1d_labels(labels)
        probs = self.predict_proba(features)
        return float(cross_entropy(probs, one_hot(labels, self.n_classes)).mean())

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on ``(features, labels)``."""
        labels = ensure_1d_labels(labels)
        return float((self.predict(features) == labels).mean())

    def to_dict(self) -> dict:
        """A JSON-serializable dict of the fitted readout (exact round trip).

        Python's ``json`` serializes finite floats via ``repr`` and parses
        them back to the same IEEE-754 doubles, so :meth:`from_dict` of the
        serialized form scores bit-identically.
        """
        return {
            "beta": float(self.beta),
            "coef": np.asarray(self.coef, dtype=np.float64).tolist(),
            "intercept": np.asarray(self.intercept,
                                    dtype=np.float64).tolist(),
            "feature_mean": np.asarray(self.feature_mean,
                                       dtype=np.float64).tolist(),
            "feature_std": np.asarray(self.feature_std,
                                      dtype=np.float64).tolist(),
            "n_classes": int(self.n_classes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RidgeModel":
        """Rebuild a readout from :meth:`to_dict` output — strictly.

        Unknown or missing keys raise ``ValueError`` so a snapshot written
        by an incompatible release fails loudly instead of scoring wrong.
        """
        if not isinstance(data, dict):
            raise TypeError(
                f"RidgeModel.from_dict needs a dict, got "
                f"{type(data).__name__}"
            )
        expected = {"beta", "coef", "intercept", "feature_mean",
                    "feature_std", "n_classes"}
        unknown = sorted(set(data) - expected)
        missing = sorted(expected - set(data))
        if unknown or missing:
            parts = []
            if unknown:
                parts.append(f"unknown keys {unknown}")
            if missing:
                parts.append(f"missing keys {missing}")
            raise ValueError(
                f"RidgeModel snapshot does not match schema: "
                f"{'; '.join(parts)}"
            )
        return cls(
            beta=float(data["beta"]),
            coef=np.asarray(data["coef"], dtype=np.float64),
            intercept=np.asarray(data["intercept"], dtype=np.float64),
            feature_mean=np.asarray(data["feature_mean"], dtype=np.float64),
            feature_std=np.asarray(data["feature_std"], dtype=np.float64),
            n_classes=int(data["n_classes"]),
        )


def _check_betas(betas: Sequence[float]) -> Tuple[float, ...]:
    """Validate a ``beta`` sweep: a non-empty sequence of finite, positive values.

    Returns the values as Python floats; raises ``ValueError`` naming the
    first bad value.
    """
    values = tuple(float(beta) for beta in betas)
    if not values:
        raise ValueError("betas must be a non-empty sequence of positive values")
    for beta in values:
        if not (np.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta must be finite and positive, got {beta}")
    return values


def _lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked ``lhs^-1 rhs`` on numpy's LAPACK, least squares per singular slice."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        out = np.empty(lhs.shape[:-1] + rhs.shape[-1:])
        for k in range(lhs.shape[0]):
            try:
                out[k] = np.linalg.solve(lhs[k:k + 1], rhs[k:k + 1])[0]
            except np.linalg.LinAlgError:
                out[k] = np.linalg.lstsq(lhs[k], rhs[k], rcond=None)[0]
        return out


def ridge_solve(x: np.ndarray, y: np.ndarray,
                penalties: np.ndarray) -> np.ndarray:
    """Ridge coefficients for a stack of problems and several penalties.

    Solves ``min_w |x_k w - y_k|^2 + p |w|^2`` for every candidate ``k``
    and every penalty row ``p`` — the one ridge solver of the package.

    Parameters
    ----------
    x:
        ``(K, N, d)`` design matrices (already centered, if wanted).
    y:
        ``(K, N, m)`` targets.
    penalties:
        ``(P, K)`` positive penalties, one row per sweep value and one
        column per candidate.

    Returns
    -------
    ``(P, K, d, m)`` coefficients.

    The Gram form is picked by shape.  With fewer samples than features
    (the DPRR regime: ``N_r = N_x (N_x + 1)`` against a few hundred
    series) the dual ``w = x^T (x x^T + p I)^-1 y`` solves an ``N x N``
    system; otherwise the primal ``(x^T x + p I)^-1 x^T y`` solves a
    ``d x d`` one.  Both are exact rewritings of the same estimator.  The
    Gram matrix is built once per stack and shared by every penalty.

    Every product and solve is a 3-D ``matmul`` / ``np.linalg.solve``, so
    the slices of a ``K``-stack are bit-identical to ``K = 1`` calls on
    each slice; that is what keeps serial and fused candidate scoring
    identical.  Only numpy's own LAPACK is used: scipy ships a second
    OpenBLAS, and two BLAS thread pools contending for the same cores cost
    several times the solve itself.
    """
    xt = x.transpose(0, 2, 1)
    dual = x.shape[1] < x.shape[2]
    gram = x @ xt if dual else xt @ x
    rhs = y if dual else xt @ y
    eye = np.eye(gram.shape[-1])
    sol = np.concatenate([_lu_solve(gram + penalty[:, None, None] * eye, rhs)
                          for penalty in penalties], axis=-1)
    coef = xt @ sol if dual else sol              # (K, d, P * m)
    coef = coef.reshape(coef.shape[:2] + (len(penalties), y.shape[-1]))
    return np.ascontiguousarray(coef.transpose(2, 0, 1, 3))


def _as_stack(features: np.ndarray) -> Tuple[np.ndarray, bool]:
    """``(features as a (K, N, d) float64 stack, whether it was stacked)``."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 3:
        return features, True
    return np.atleast_2d(features)[np.newaxis], False


def fit_ridge(
    features: np.ndarray,
    labels: np.ndarray,
    beta: float,
    *,
    n_classes: Optional[int] = None,
    standardize: bool = False,
) -> RidgeModel:
    """Fit one ridge readout; see :func:`fit_ridge_sweep` for several betas."""
    return fit_ridge_sweep(
        features, labels, [beta], n_classes=n_classes, standardize=standardize
    )[float(beta)]


def fit_ridge_sweep(
    features: np.ndarray,
    labels: np.ndarray,
    betas: Sequence[float],
    *,
    n_classes: Optional[int] = None,
    standardize: bool = False,
) -> Union[Dict[float, RidgeModel], List[Dict[float, RidgeModel]]]:
    """Fit ridge readouts for several ``beta`` values, sharing the Gram matrix.

    The Gram matrix is computed once; each ``beta`` then costs one linear
    solve — this mirrors how a careful grid-search implementation
    amortizes the per-point ridge cost.  With fewer samples than features
    (every DPRR readout of the paper's protocols) the solve is the dual
    ``N x N`` system ``x x^T + beta N I``, not the ``N_r x N_r`` primal
    one; see :func:`ridge_solve` for the form rule and why only numpy's
    LAPACK runs it.

    Parameters
    ----------
    features:
        ``(N, N_r)`` training representations, or a ``(K, N, N_r)`` stack
        of K candidates' representations fitted in one call.
    labels:
        ``(N,)`` integer labels (shared by a stack), or ``(K, N)`` labels
        per stacked candidate.
    betas:
        Regularization values (a non-empty sequence of finite, positive
        values) shared by every candidate, or a ``(P, K)`` table giving
        each stacked candidate its own P values (a refit at each row's
        selected ``beta`` is one call).
    n_classes:
        Total class count; inferred as ``max(labels) + 1`` when omitted.

    Returns
    -------
    ``{beta: RidgeModel}`` for 2-D features; one such dict per candidate
    for a stack.  A stack's slices are bit-identical to 2-D calls on them.
    """
    x, stacked = _as_stack(features)
    n_cand, n = x.shape[:2]
    if np.ndim(betas) == 2:
        table = np.asarray(betas, dtype=np.float64)
        _check_betas(table.ravel())
        if table.shape[1] != n_cand:
            raise ValueError(f"a betas table needs one column per stacked "
                             f"candidate ({n_cand}), got {table.shape[1]}")
    else:
        table = np.array(_check_betas(betas))[:, np.newaxis].repeat(n_cand, 1)
    labels = np.asarray(labels)
    if labels.ndim == 2:
        if labels.shape != (n_cand, n):
            raise ValueError(
                f"stacked labels must be {(n_cand, n)}, got {labels.shape}")
        labels = ensure_1d_labels(labels.ravel()).reshape(n_cand, n)
    else:
        labels = np.broadcast_to(ensure_1d_labels(labels, n_samples=n),
                                 (n_cand, n))
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values (diverged reservoir?)")
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    mean = x.mean(axis=1)
    x = x - mean[:, np.newaxis]
    if standardize:
        std = x.std(axis=1)
        std = np.where(std < 1e-12, 1.0, std)
        x /= std[:, np.newaxis]
    else:
        std = np.ones_like(mean)
    targets = one_hot(labels.ravel(), n_classes).reshape(n_cand, n, n_classes)
    y_mean = targets.mean(axis=1)
    y_c = targets - y_mean[:, np.newaxis]

    coefs = ridge_solve(x, y_c, table * n)
    sweeps = [
        {float(table[i, k]): RidgeModel(
            beta=float(table[i, k]), coef=coefs[i, k], intercept=y_mean[k],
            feature_mean=mean[k], feature_std=std[k], n_classes=n_classes)
         for i in range(table.shape[0])}
        for k in range(n_cand)
    ]
    return sweeps if stacked else sweeps[0]


@dataclass
class RidgeSelection:
    """Outcome of the ``beta`` model selection."""

    best_beta: float
    best_model: RidgeModel          # refitted on the full training set
    val_losses: Dict[float, float] = field(default_factory=dict)
    val_accuracies: Dict[float, float] = field(default_factory=dict)

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_beta]


def _split_rows(
    labels: np.ndarray, val_fraction: float,
    seed: Union[SeedLike, Sequence[SeedLike]], n_cand: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-candidate ``(fit_idx, val_idx)`` as ``(K, N_fit)``/``(K, N_val)``.

    ``seed`` is one seed for a split shared by every row, or a list of
    ``K`` per-row seeds (equal integer seeds share one split).  Split sizes
    depend only on the class counts, so every row's split has one shape.
    """
    shared = not isinstance(seed, (list, tuple))
    if not shared and len(seed) != n_cand:
        raise ValueError(f"need one seed per stacked candidate ({n_cand}), "
                         f"got {len(seed)}")
    cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def split(row_seed):
        key = int(row_seed) if isinstance(row_seed, (int, np.integer)) else None
        if key in cache:
            return cache[key]
        fit_idx, val_idx = stratified_split(labels, val_fraction,
                                            seed=ensure_rng(row_seed))
        if val_idx.size == 0:
            fit_idx = np.arange(labels.shape[0])
            val_idx = fit_idx  # degenerate fallback: score on the fit data
        if key is not None:
            cache[key] = (fit_idx, val_idx)
        return fit_idx, val_idx

    if shared:
        fit_idx, val_idx = split(seed)
        return (np.broadcast_to(fit_idx, (n_cand, fit_idx.size)),
                np.broadcast_to(val_idx, (n_cand, val_idx.size)))
    parts = [split(s) for s in seed]
    return np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts])


def _gather_rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``x[k, idx[k]]`` for every row ``k`` as one contiguous stack."""
    if (idx == idx[:1]).all():
        return x[:, idx[0]]
    return x[np.arange(x.shape[0])[:, np.newaxis], idx]


def select_beta(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    betas: Sequence[float] = PAPER_BETAS,
    val_fraction: float = 0.2,
    n_classes: Optional[int] = None,
    standardize: bool = False,
    seed: Union[SeedLike, Sequence[SeedLike]] = None,
) -> Union[RidgeSelection, List[RidgeSelection]]:
    """Select ``beta`` by holdout cross-entropy and refit on all data.

    A stratified ``val_fraction`` holdout of the training set scores each
    candidate ``beta`` by validation error, with mean softmax cross-entropy
    as the tiebreak and smaller ``beta`` last; the winning ``beta`` is then
    refitted on the full training set.  (The paper selects by "the smallest
    loss L" without specifying the split; cross-entropy on raw ridge outputs
    is ill-defined — they can be negative — so holdout error with a CE
    tiebreak is the faithful executable version.  See DESIGN.md.)

    When the holdout would be empty (tiny datasets where every class has one
    sample), selection falls back to training loss on the full set.

    ``features`` may be one candidate's ``(N, N_r)`` matrix (returns one
    :class:`RidgeSelection`) or a ``(K, N, N_r)`` stack of K candidates
    sharing ``labels`` (returns K selections, each bit-identical to the
    2-D call on its slice).  For a stack, ``seed`` is either one seed for a
    split shared by all rows or a list of K per-row split seeds.
    """
    betas = _check_betas(betas)
    x, stacked = _as_stack(features)
    n_cand = x.shape[0]
    labels = ensure_1d_labels(labels, n_samples=x.shape[1])
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    fit_idx, val_idx = _split_rows(labels, val_fraction, seed, n_cand)

    sweeps = fit_ridge_sweep(
        _gather_rows(x, fit_idx), labels[fit_idx], betas, n_classes=n_classes,
        standardize=standardize,
    )
    # all of a row's models share its centering and intercept, so the
    # holdout is centered once and scored for every beta in one product
    first = [sweep[betas[0]] for sweep in sweeps]
    z = _gather_rows(x, val_idx) - np.stack(
        [m.feature_mean for m in first])[:, np.newaxis]
    if standardize:
        z /= np.stack([m.feature_std for m in first])[:, np.newaxis]
    coef = np.stack([np.concatenate([sweep[b].coef for b in betas], axis=1)
                     for sweep in sweeps])
    scores = (z @ coef).reshape(z.shape[:2] + (len(betas), n_classes))
    scores += np.stack([m.intercept for m in first])[:, np.newaxis, np.newaxis]
    y_val = labels[val_idx][:, :, np.newaxis]
    targets = one_hot(y_val.ravel(), n_classes).reshape(y_val.shape + (-1,))
    losses = cross_entropy(softmax(scores), targets).mean(axis=1)
    accs = (scores.argmax(axis=-1) == y_val).mean(axis=1)
    val_losses = [dict(zip(betas, map(float, row))) for row in losses]
    val_accs = [dict(zip(betas, map(float, row))) for row in accs]
    best = [min(loss, key=lambda b: (-acc[b], loss[b], b))
            for loss, acc in zip(val_losses, val_accs)]

    # refit every row on all data at its own winning beta, in one call
    refit = fit_ridge_sweep(x, labels, np.array([best]), n_classes=n_classes,
                            standardize=standardize)
    selections = [
        RidgeSelection(best_beta=best[k], best_model=refit[k][best[k]],
                       val_losses=val_losses[k], val_accuracies=val_accs[k])
        for k in range(n_cand)
    ]
    return selections if stacked else selections[0]


@dataclass
class RidgeRegressor:
    """A fitted multi-output ridge *regressor* (continuous targets).

    The classification pipeline uses :class:`RidgeModel`; this lighter
    variant serves the time-series regression tasks of the classic DFR
    literature (NARMA-10, Mackey-Glass prediction; see
    ``examples/narma_prediction.py``).
    """

    beta: float
    coef: np.ndarray        # (N_f, N_out)
    intercept: np.ndarray   # (N_out,)
    feature_mean: np.ndarray

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted targets ``(N, N_out)`` (squeezed to 1-D for N_out=1)."""
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        out = (f - self.feature_mean) @ self.coef + self.intercept
        return out[:, 0] if out.shape[1] == 1 else out


def fit_ridge_regressor(
    features: np.ndarray, targets: np.ndarray, beta: float
) -> RidgeRegressor:
    """Fit centered ridge regression of continuous ``targets`` on ``features``.

    Parameters
    ----------
    features:
        ``(N, N_f)`` design matrix.
    targets:
        ``(N,)`` or ``(N, N_out)`` continuous targets.
    beta:
        Regularization strength (scaled by ``N`` as in the classifier).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, np.newaxis]
    if targets.shape[0] != features.shape[0]:
        raise ValueError(
            f"{targets.shape[0]} targets for {features.shape[0]} samples"
        )
    (beta,) = _check_betas([beta])
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    n = features.shape[0]
    mean = features.mean(axis=0)
    x = features - mean
    y_mean = targets.mean(axis=0)
    y_c = targets - y_mean
    coef = ridge_solve(x[np.newaxis], y_c[np.newaxis],
                       np.array([[beta * n]]))[0, 0]
    return RidgeRegressor(beta=beta, coef=coef, intercept=y_mean,
                          feature_mean=mean)
