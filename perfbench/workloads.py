"""The batch workloads: one grid level, the paper's BP+GD, population descent.

Each workload builds its inputs from the seed alone (the program receives
only the generated arrays), runs the program at its defaults, and reports
one :class:`Op` per unit of work the user waits for: a d=4 grid level or
one ``fit``.  Output checks run on the returned ops, after the timed
region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

#: JPVOW at the bench size profile: 270 train / 370 test, T=28, C=12, 9 classes
DATASET = "JPVOW"
N_NODES = 30
GRID_DIVISIONS = 4
EPOCHS = 25


@dataclass
class Op:
    """One unit of work: its wall time, how many operations it attempted
    and how many failed, and the output the checks compare."""

    wall_s: float
    attempted: int
    failed: int
    #: units of work done: candidates scored, or training samples presented
    work: float = 0.0
    output: Any = None
    detail: dict = field(default_factory=dict)


def _load(seed: int):
    from repro.data.loaders import load_dataset

    return load_dataset(DATASET, seed=seed)


def _selection_key(ev):
    """The selection rule restated: highest validation accuracy, then lowest
    validation loss, then the smallest ``(A, B)``."""
    return (-ev.val_accuracy, ev.val_loss, ev.A, ev.B)


class GridWorkload:
    """One d=4 ``GridSearch.run_level``: 16 candidates x the paper's 4 betas,
    default executor.  Few, large, ridge-readout-heavy calls."""

    name = "grid"
    per_op = f"one d={GRID_DIVISIONS} grid level ({GRID_DIVISIONS ** 2} candidates)"

    def setup(self, seed: int):
        from repro.core.grid_search import GridSearch
        from repro.core.pipeline import DFRFeatureExtractor

        data = _load(seed)
        extractor = DFRFeatureExtractor(N_NODES, seed=seed).fit(data.u_train)
        # warm-up: one single-candidate level fills every lazy cache
        GridSearch(extractor, seed=seed).run_level(
            data.u_train, data.y_train, data.u_test, data.y_test, 1)
        return {"seed": seed, "data": data, "extractor": extractor}

    def op(self, state) -> Op:
        from repro.core.grid_search import GridSearch

        data = state["data"]
        search = GridSearch(state["extractor"], seed=state["seed"])
        start = time.perf_counter()
        level = search.run_level(data.u_train, data.y_train, data.u_test,
                                 data.y_test, GRID_DIVISIONS)
        wall = time.perf_counter() - start
        failed = sum(1 for ev in level.evaluations if ev.error is not None)
        return Op(wall_s=wall, attempted=len(level.evaluations), failed=failed,
                  work=len(level.evaluations), output=level)

    def summary(self, op: Op) -> dict:
        best = op.output.best
        return {"A": best.A, "B": best.B, "beta": best.beta,
                "test_accuracy": best.test_accuracy}

    def check(self, ops: List[Op], state) -> List[str]:
        errors = []
        for i, op in enumerate(ops):
            level = op.output
            ranked = min(level.evaluations, key=_selection_key)
            if self.summary(op) != {"A": ranked.A, "B": ranked.B,
                                    "beta": ranked.beta,
                                    "test_accuracy": ranked.test_accuracy}:
                errors.append(f"level {i}: winner is not the best candidate "
                              f"by the selection rule")
        return errors


class FitWorkload:
    """``DFRClassifier.fit`` on JPVOW, scored on its test set."""

    per_op = "one DFRClassifier.fit"

    def __init__(self, name: str, **classifier_kwargs):
        self.name = name
        self.kwargs = classifier_kwargs

    def _classifier(self, seed: int, epochs: int):
        from repro.core.pipeline import DFRClassifier
        from repro.core.trainer import TrainerConfig

        kwargs = dict(self.kwargs)
        config = TrainerConfig(epochs=epochs,
                               batch_size=kwargs.pop("batch_size"))
        return DFRClassifier(n_nodes=N_NODES, config=config, seed=seed,
                             **kwargs)

    def setup(self, seed: int):
        data = _load(seed)
        # warm-up: a one-epoch fit runs every layer the timed fits use
        self._classifier(seed, 1).fit(data.u_train, data.y_train)
        return {"seed": seed, "data": data}

    def op(self, state) -> Op:
        data = state["data"]
        clf = self._classifier(state["seed"], EPOCHS)
        start = time.perf_counter()
        try:
            clf.fit(data.u_train, data.y_train)
        except Exception as exc:  # a fit that raises is a failed operation
            return Op(wall_s=time.perf_counter() - start, attempted=1,
                      failed=1, detail={"error": repr(exc)})
        wall = time.perf_counter() - start
        accuracy = clf.score(data.u_test, data.y_test)
        return Op(wall_s=wall, attempted=1, failed=0,
                  work=EPOCHS * len(data.u_train),
                  output=(clf.A_, clf.B_, clf.beta_, accuracy))

    def summary(self, op: Op) -> Optional[dict]:
        if op.output is None:
            return None
        a, b, beta, accuracy = op.output
        return {"A": a, "B": b, "beta": beta, "test_accuracy": accuracy}

    def check(self, ops: List[Op], state) -> List[str]:
        return []


WORKLOADS = {
    "grid": GridWorkload(),
    # the paper's BP+GD: per-sample SGD, ~13.5k tiny reservoir/backprop calls
    "train": FitWorkload("train", batch_size=1),
    # population gradient descent: fused candidate-axis calls, batched
    # backprop, the stacked optimizer
    "descent": FitWorkload("descent", batch_size=32, search="descent",
                           population=8),
}
