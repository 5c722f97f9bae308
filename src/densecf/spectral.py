"""Spectral graph features, the KNN black box, and the call-counting oracle.

The classifier side of the toolkit: graphs are embedded as the k smallest
positive eigenvalues of their normalized Laplacian and classified by a
deterministic KNN vote. Every search talks to the classifier only through an
Oracle, which counts each prediction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import DatasetFormatError, GraphDataset, read_versioned_json, write_json
from .graph import Graph, adjacency_matrix

POSITIVE_EIGENVALUE_TOL = 1e-8

DEFAULT_NEIGHBOR_GRID = (1, 3, 5, 7)
DEFAULT_EIG_GRID = (5, 10, 15, 20)
DEFAULT_FOLDS = 5

KNN_METRICS = ("euclidean", "manhattan")
DEFAULT_METRIC = "euclidean"

MODEL_FORMAT = "densecf-sf-knn"
MODEL_VERSION = 1


class DegenerateLabelsError(ValueError):
    """Training data contains only one class."""


def normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^(-1/2) A D^(-1/2); zero-degree rows keep only the identity part,
    so every isolated node contributes an eigenvalue of exactly 1."""
    a = adjacency_matrix(g)
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    # eye(n) - (s[:, None] * a) * s[None, :] with the same rounding, computed in
    # the adjacency array: one n x n allocation per oracle call instead of five
    a *= inv_sqrt[:, None]
    a *= inv_sqrt
    diagonal = 1.0 - a.diagonal()
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, diagonal)
    return a


def positive_laplacian_eigenvalues(g: Graph) -> np.ndarray:
    """Ascending eigenvalues of the normalized Laplacian above the positivity
    tolerance."""
    eigs = np.linalg.eigvalsh(normalized_laplacian(g))
    return eigs[eigs > POSITIVE_EIGENVALUE_TOL]


def spectral_features(g: Graph, k: int) -> np.ndarray:
    """The k smallest positive normalized-Laplacian eigenvalues, ascending,
    zero-padded at the end when the graph has fewer than k."""
    if k <= 0:
        raise ValueError(f"k must be a positive integer, got {k}")
    return _first_k(positive_laplacian_eigenvalues(g), k)


def _first_k(positives: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros(k)
    out[: min(k, len(positives))] = positives[:k]
    return out


def _check_metric(metric: str) -> None:
    if metric not in KNN_METRICS:
        raise ValueError(f"metric must be one of {KNN_METRICS}")


@dataclass(frozen=True)
class SFKnnModel:
    """KNN classifier over spectral-feature vectors.

    Prediction is fully deterministic: neighbors at equal distance are taken
    in training-index order and a tied vote resolves to class 0. A model with
    no training rows or a non-finite feature cannot be built, so any model
    can predict.
    ``training_matrix`` is ``training_features`` as an array, built once here
    for every prediction; equality, hashing and ``save_model`` ignore it.
    """

    training_features: tuple[tuple[float, ...], ...]
    training_labels: tuple[int, ...]
    n_neighbors: int
    n_eigs: int
    metric: str = DEFAULT_METRIC
    seed: int | None = None
    training_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.training_features) != len(self.training_labels):
            raise ValueError("features and labels must have the same length")
        if any(label not in (0, 1) for label in self.training_labels):
            raise ValueError("labels must be 0 or 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")
        if self.n_neighbors > len(self.training_features):
            raise ValueError("n_neighbors exceeds training-set size")
        if self.n_eigs < 1:
            raise ValueError("n_eigs must be positive")
        _check_metric(self.metric)
        if any(len(f) != self.n_eigs for f in self.training_features):
            raise ValueError("every feature vector must have length n_eigs")
        matrix = np.asarray(self.training_features)
        if not np.isfinite(matrix).all():
            raise ValueError("every feature must be finite")
        object.__setattr__(self, "training_matrix", matrix)


def _predict_from_features(
    train: np.ndarray,
    labels: Sequence[int],
    query: np.ndarray,
    n_neighbors: int,
    metric: str,
) -> int:
    if metric == "euclidean":
        dists = np.sqrt(((train - query) ** 2).sum(axis=1))
    else:
        dists = np.abs(train - query).sum(axis=1)
    order = np.argsort(dists, kind="stable")  # equal distance -> lower index first
    ones = sum(labels[i] for i in order[:n_neighbors])
    return 1 if 2 * ones > n_neighbors else 0  # tied vote -> 0


def knn_predict(model: SFKnnModel, g: Graph) -> int:
    """The model's class for ``g``."""
    return _predict_from_features(
        model.training_matrix,
        model.training_labels,
        spectral_features(g, model.n_eigs),
        model.n_neighbors,
        model.metric,
    )


def knn_classifier(model: SFKnnModel) -> Callable[[Graph], int]:
    """``knn_predict`` over one model that answers a graph equal to the last
    one it classified without computing it again, so re-checking the graph a
    search just charged costs no eigendecomposition."""
    last = None  # (graph, class), replaced whole so the classifier can be shared

    def classify(g: Graph) -> int:
        nonlocal last
        memo = last
        if memo is not None and memo[0] == g:
            return memo[1]
        label = knn_predict(model, g)  # looked up per call, so rebinding it takes effect
        last = (g, label)
        return label

    return classify


class Oracle:
    """Black-box wrapper that counts every prediction it performs.

    Searches must go through :meth:`predict`, which charges one call. Only
    the check that a found counterfactual flips the class goes through
    :meth:`check`, which evaluates without charging the search; the input's
    class is the one the search charged, carried on its result. Both read
    ``classifier`` at call time, so replacing that attribute (to wrap it in
    a counter, say) reroutes both.
    """

    def __init__(self, classifier: Callable[[Graph], int]) -> None:
        self.classifier = classifier
        self.call_count = 0

    def predict(self, g: Graph) -> int:
        self.call_count += 1
        return int(self.classifier(g))

    def check(self, g: Graph) -> int:
        """The class of ``g``, evaluated without charging a call."""
        return int(self.classifier(g))


@dataclass(frozen=True)
class TrainReport:
    """Cross-validation outcome for the selected configuration."""

    accuracy: float
    f1: float
    n_neighbors: int
    n_eigs: int
    fold_accuracies: tuple[float, ...]
    fold_f1s: tuple[float, ...]
    fold_assignment: tuple[int, ...]
    seed: int
    grid_scores: tuple[tuple[int, int, float, float], ...]


def _binary_f1(true: Sequence[int], pred: Sequence[int]) -> float:
    tp = sum(1 for t, p in zip(true, pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(true, pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(true, pred) if t == 1 and p == 0)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def train_sf_knn(
    dataset: GraphDataset,
    neighbor_grid: Sequence[int] = DEFAULT_NEIGHBOR_GRID,
    eig_grid: Sequence[int] = DEFAULT_EIG_GRID,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    metric: str = DEFAULT_METRIC,
) -> tuple[SFKnnModel, TrainReport]:
    """Grid-search a KNN configuration by seeded k-fold cross-validation.

    The configuration with the best mean CV accuracy wins; ties go to higher
    mean F1, then fewer neighbors, then fewer eigenvalues. The returned model
    is refit on the full dataset.
    """
    if folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {folds}")
    if seed < 0:  # random.Random seeds from abs(seed): -1 would repeat seed 1's folds
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = len(dataset)
    if n < folds:
        raise ValueError(f"dataset has {n} graphs, fewer than {folds} folds")
    labels = list(dataset.labels)
    if len(set(labels)) < 2:
        raise DegenerateLabelsError("training requires both classes to be present")
    if not neighbor_grid or not eig_grid:
        raise ValueError("parameter grid must be nonempty")
    for name, grid in (("neighbor", neighbor_grid), ("eigenvalue", eig_grid)):
        if min(grid) < 1:
            raise ValueError(f"{name} counts must be positive, got {min(grid)}")
    _check_metric(metric)

    order = list(range(n))
    random.Random(seed).shuffle(order)
    fold_of = [0] * n
    for pos, idx in enumerate(order):
        fold_of[idx] = pos % folds

    eigenvalues = [positive_laplacian_eigenvalues(e.graph) for e in dataset]
    features = {
        k: np.asarray([_first_k(eigs, k) for eigs in eigenvalues]) for k in sorted(set(eig_grid))
    }
    splits = [
        ([i for i in range(n) if fold_of[i] != fold], [i for i in range(n) if fold_of[i] == fold])
        for fold in range(folds)
    ]
    max_neighbors = min(len(train_idx) for train_idx, _ in splits)

    grid = []  # (nn, k, mean_acc, mean_f1, fold_accs, fold_f1s)
    for k in eig_grid:
        feats = features[k]
        for nn in neighbor_grid:
            if nn > max_neighbors:
                continue
            fold_accs, fold_f1s = [], []
            for train_idx, test_idx in splits:
                train, train_labels = feats[train_idx], [labels[i] for i in train_idx]
                preds = [
                    _predict_from_features(train, train_labels, feats[i], nn, metric)
                    for i in test_idx
                ]
                true = [labels[i] for i in test_idx]
                fold_accs.append(sum(t == p for t, p in zip(true, preds)) / len(true))
                fold_f1s.append(_binary_f1(true, preds))
            mean_acc, mean_f1 = sum(fold_accs) / folds, sum(fold_f1s) / folds
            grid.append((nn, k, mean_acc, mean_f1, fold_accs, fold_f1s))
    if not grid:
        raise ValueError("no feasible grid configuration for this dataset/fold count")

    nn, k, mean_acc, mean_f1, fold_accs, fold_f1s = max(
        grid, key=lambda c: (c[2], c[3], -c[0], -c[1])
    )
    model = SFKnnModel(
        training_features=tuple(tuple(row) for row in features[k]),
        training_labels=tuple(labels),
        n_neighbors=nn,
        n_eigs=k,
        metric=metric,
        seed=seed,
    )
    report = TrainReport(
        accuracy=mean_acc,
        f1=mean_f1,
        n_neighbors=nn,
        n_eigs=k,
        fold_accuracies=tuple(fold_accs),
        fold_f1s=tuple(fold_f1s),
        fold_assignment=tuple(fold_of),
        seed=seed,
        grid_scores=tuple(row[:4] for row in grid),
    )
    return model, report


def save_model(model: SFKnnModel, path: Path | str) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_neighbors": model.n_neighbors,
        "n_eigs": model.n_eigs,
        "metric": model.metric,
        "seed": model.seed,
        "training_labels": list(model.training_labels),
        "training_features": [list(row) for row in model.training_features],
    }
    write_json(payload, path)


def load_model(path: Path | str) -> SFKnnModel:
    payload = read_versioned_json(path, MODEL_FORMAT, MODEL_VERSION)
    try:
        features = tuple(tuple(row) for row in payload["training_features"])
        labels, seed = tuple(payload["training_labels"]), payload.get("seed")
        # JSON numbers load as exactly int or float, and a bool is no int here
        if any(type(x) is not int for x in (payload["n_neighbors"], payload["n_eigs"], *labels)):
            raise TypeError("n_neighbors, n_eigs and the labels must be integers")
        if any(type(x) not in (int, float) for row in features for x in row):
            raise TypeError("the features must be numbers")
        if seed is not None and type(seed) is not int:
            raise TypeError("seed must be an integer or null")
        return SFKnnModel(
            training_features=tuple(tuple(float(x) for x in row) for row in features),
            training_labels=labels,
            n_neighbors=payload["n_neighbors"],
            n_eigs=payload["n_eigs"],
            metric=payload.get("metric", "euclidean"),
            seed=seed,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{path}: malformed model ({exc!r})") from exc
