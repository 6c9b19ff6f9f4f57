"""Self-contained learners for categorical state features.

A plain random forest with multiway categorical splits, out-of-bag error and
Breiman-Cutler permutation importance, plus an L2-regularized logistic
baseline fitted by iteratively reweighted least squares.  Everything is
bitwise deterministic for fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    mtry: int | None = None  # candidate features per split; default ceil(sqrt(K))
    min_node_size: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")


@dataclass
class ForestModel:
    config: ForestConfig
    seed: int
    classes: np.ndarray  # sorted ascending; argmax ties resolve to smallest
    levels: list  # per-column sorted level values
    trees: list
    oob_indices: list
    degenerate: bool = False
    n_rows: int = 0

    @property
    def n_features(self) -> int:
        return len(self.levels)


def _encode(X, levels=None):
    X = np.asarray(X)
    if levels is None:
        levels = [np.unique(X[:, c]) for c in range(X.shape[1])]
    enc = np.empty(X.shape, dtype=np.int64)
    for c, lv in enumerate(levels):
        enc[:, c] = np.searchsorted(lv, X[:, c])
        # unseen levels clamp to a sentinel one past the end
        known = np.isin(X[:, c], lv)
        enc[~known, c] = len(lv)
    return enc, levels


def _gini_split(xcol, ycls, n_levels, n_classes):
    """Weighted Gini impurity of splitting a node by one categorical column."""
    counts = np.bincount(xcol * n_classes + ycls, minlength=n_levels * n_classes)
    counts = counts.reshape(n_levels, n_classes).astype(np.float64)
    nv = counts.sum(axis=1)
    occupied = nv > 0
    if occupied.sum() < 2:
        return None
    n = nv.sum()
    within = (counts[occupied] ** 2).sum(axis=1) / nv[occupied]
    return 1.0 - within.sum() / n


def _grow(Xenc, ycls, idx, rng, cfg, n_levels, n_classes):
    counts = np.bincount(ycls[idx], minlength=n_classes)
    majority = int(np.argmax(counts))
    node = {"counts": counts, "majority": majority}
    if len(idx) < cfg.min_node_size or counts.max() == len(idx):
        return node
    K = Xenc.shape[1]
    mtry = cfg.mtry or int(np.ceil(np.sqrt(K)))
    cand = np.sort(rng.choice(K, size=min(mtry, K), replace=False))
    parent_imp = 1.0 - ((counts / len(idx)) ** 2).sum()
    best_imp, best_f = None, None
    for f in cand:
        imp = _gini_split(Xenc[idx, f], ycls[idx], n_levels[f] + 1, n_classes)
        if imp is not None and (best_imp is None or imp < best_imp):
            best_imp, best_f = imp, f
    if best_f is None or best_imp >= parent_imp - 1e-12:
        return node
    node["feature"] = int(best_f)
    node["children"] = {}
    col = Xenc[idx, best_f]
    for v in np.unique(col):
        node["children"][int(v)] = _grow(Xenc, ycls, idx[col == v], rng, cfg, n_levels, n_classes)
    return node


def _tree_apply(node, Xenc, idx, out):
    if "feature" not in node:
        out[idx] = node["majority"]
        return
    col = Xenc[idx, node["feature"]]
    matched = np.zeros(len(idx), dtype=bool)
    for v, child in node["children"].items():
        sel = col == v
        if sel.any():
            _tree_apply(child, Xenc, idx[sel], out)
            matched |= sel
    if not matched.all():
        out[idx[~matched]] = node["majority"]  # unseen branch: node majority


def _tree_predict(tree, Xenc):
    out = np.empty(len(Xenc), dtype=np.int64)
    _tree_apply(tree, Xenc, np.arange(len(Xenc)), out)
    return out


def train_forest(X, y, config: ForestConfig = ForestConfig(), seed: int = 0) -> ForestModel:
    """Train a random forest on categorical features.

    Trees bootstrap rows with replacement; each tree is reproducible from
    (seed, tree index).  A single-class target yields a degenerate model
    that always predicts that class (flagged, not fatal).
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) < 50:
        raise ValueError(f"need at least 50 rows, got {len(X)}")
    classes = np.unique(y)
    Xenc, levels = _encode(X)
    model = ForestModel(
        config=config,
        seed=seed,
        classes=classes,
        levels=levels,
        trees=[],
        oob_indices=[],
        degenerate=len(classes) == 1,
        n_rows=len(X),
    )
    if model.degenerate:
        return model
    ycls = np.searchsorted(classes, y)
    n = len(X)
    n_levels = np.array([len(lv) for lv in levels])
    for t in range(config.n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        oob = np.setdiff1d(np.arange(n), boot)
        tree = _grow(Xenc, ycls, boot, rng, config, n_levels, len(classes))
        model.trees.append(tree)
        model.oob_indices.append(oob)
    return model


def forest_votes(model: ForestModel, X) -> np.ndarray:
    """Per-row vote fractions over model.classes."""
    X = np.atleast_2d(np.asarray(X))
    if X.shape[1] != model.n_features and not model.degenerate:
        raise ValueError(f"row has {X.shape[1]} features, model expects {model.n_features}")
    if model.degenerate:
        votes = np.zeros((len(X), len(model.classes)))
        votes[:, 0] = 1.0
        return votes
    Xenc, _ = _encode(X, model.levels)
    votes = np.zeros((len(X), len(model.classes)))
    for tree in model.trees:
        pred = _tree_predict(tree, Xenc)
        votes[np.arange(len(X)), pred] += 1
    return votes / len(model.trees)


def forest_predict(model: ForestModel, row):
    """Predict one row; returns (class, vote fractions).

    Vote ties resolve to the smallest class value.
    """
    votes = forest_votes(model, np.atleast_2d(row))[0]
    cls = model.classes[int(np.argmax(votes))]
    return cls, votes


def forest_predict_batch(model: ForestModel, X) -> np.ndarray:
    votes = forest_votes(model, X)
    return model.classes[np.argmax(votes, axis=1)]


def oob_predictions(model: ForestModel, X) -> np.ndarray:
    """Ensemble OOB class per training row (-inf rows never OOB keep majority)."""
    X = np.asarray(X)
    if model.degenerate:
        return np.full(len(X), model.classes[0])
    Xenc, _ = _encode(X, model.levels)
    votes = np.zeros((len(X), len(model.classes)))
    for tree, oob in zip(model.trees, model.oob_indices):
        if len(oob) == 0:
            continue
        pred = _tree_predict(tree, Xenc[oob])
        votes[oob, pred] += 1
    return model.classes[np.argmax(votes, axis=1)]


def oob_accuracy(model: ForestModel, X, y) -> float:
    if model.degenerate:
        return float(np.mean(np.asarray(y) == model.classes[0]))
    return float(np.mean(oob_predictions(model, X) == np.asarray(y)))


@dataclass
class ImportanceReport:
    importance: np.ndarray  # per-column mean OOB error increase
    ranks: np.ndarray  # 1 = most important; ties by column index

    @property
    def n_features(self) -> int:
        return len(self.importance)


def permutation_importance(model: ForestModel, X, y, seed: int = 0) -> ImportanceReport:
    """Breiman-Cutler importance: OOB error increase under column shuffling.

    importance(c) = mean over trees of (OOB error with column c permuted
    minus plain OOB error); permutations are seeded per (tree, column).
    """
    X = np.asarray(X)
    y = np.asarray(y)
    K = X.shape[1]
    if model.degenerate:
        return ImportanceReport(importance=np.zeros(K), ranks=np.arange(1, K + 1))
    Xenc, _ = _encode(X, model.levels)
    ycls = np.searchsorted(model.classes, y)
    deltas = np.zeros(K)
    used = 0
    for t, (tree, oob) in enumerate(zip(model.trees, model.oob_indices)):
        if len(oob) == 0:
            continue
        used += 1
        sub = Xenc[oob]
        base_err = np.mean(_tree_predict(tree, sub) != ycls[oob])
        rng = np.random.default_rng([seed, t])
        for c in range(K):
            perm = rng.permutation(len(oob))
            shuffled = sub.copy()
            shuffled[:, c] = sub[perm, c]
            err = np.mean(_tree_predict(tree, shuffled) != ycls[oob])
            deltas[c] += err - base_err
    importance = deltas / max(used, 1)
    order = np.lexsort((np.arange(K), -importance))
    ranks = np.empty(K, dtype=np.int64)
    ranks[order] = np.arange(1, K + 1)
    return ImportanceReport(importance=importance, ranks=ranks)


def adjusted_rank_ratio(report: ImportanceReport, column: int) -> float:
    """Normalized importance rank: 0 = most important, 1 = least."""
    K = report.n_features
    if K < 2:
        raise ValueError("adjusted rank ratio requires at least 2 columns")
    return (int(report.ranks[column]) - 1) / (K - 1)


@dataclass
class LogisticModel:
    levels: list
    coef: np.ndarray  # intercept first, then one-hot blocks per column
    converged: bool
    n_iter: int


def _one_hot(X, levels):
    X = np.asarray(X)
    blocks = [np.ones((len(X), 1))]
    for c, lv in enumerate(levels):
        block = np.zeros((len(X), len(lv)))
        pos = np.searchsorted(lv, X[:, c])
        known = np.isin(X[:, c], lv)
        rows = np.flatnonzero(known)
        block[rows, pos[known]] = 1.0
        blocks.append(block)
    return np.hstack(blocks)


def train_logistic(X, y, l2: float = 1e-4, max_iter: int = 100, tol: float = 1e-8) -> LogisticModel:
    """Binary logistic baseline on one-hot encoded categorical columns.

    Rows with target 0 are dropped; targets must then be -1/+1.  Fitted by
    IRLS with ridge penalty on all non-intercept coefficients, which keeps
    perfectly separable problems well-posed.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    keep = y != 0
    X, y = X[keep], y[keep]
    if len(X) == 0 or set(np.unique(y)) - {-1, 1}:
        raise ValueError("logistic targets must be -1/+1 after dropping zeros")
    levels = [np.unique(X[:, c]) for c in range(X.shape[1])]
    Z = _one_hot(X, levels)
    t = (y + 1) / 2.0
    beta = np.zeros(Z.shape[1])
    pen = np.full(Z.shape[1], l2)
    pen[0] = 0.0  # intercept unpenalized
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        eta = Z @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -35, 35)))
        w = np.maximum(p * (1 - p), 1e-12)
        grad = Z.T @ (t - p) - pen * beta
        H = (Z * w[:, None]).T @ Z + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        beta = beta + step
        if np.linalg.norm(step) < tol:
            converged = True
            break
    return LogisticModel(levels=levels, coef=beta, converged=converged, n_iter=it)


def logistic_predict(model: LogisticModel, X) -> np.ndarray:
    """Predict -1/+1; probability exactly 1/2 rounds to +1."""
    Z = _one_hot(np.atleast_2d(np.asarray(X)), model.levels)
    p = 1.0 / (1.0 + np.exp(-np.clip(Z @ model.coef, -35, 35)))
    return np.where(p >= 0.5, 1, -1)
