import numpy as np
import pytest

from tradeflow.learn import (
    ForestConfig,
    adjusted_rank_ratio,
    forest_predict,
    forest_predict_batch,
    forest_votes,
    logistic_predict,
    oob_accuracy,
    permutation_importance,
    train_forest,
    train_logistic,
)


def _single_informative(n=400, n_noise=5, seed=0):
    """Column 0 determines the class; the rest are iid noise."""
    rng = np.random.default_rng(seed)
    X = rng.choice([-1, 1, 2], size=(n, 1 + n_noise))
    y = np.where(X[:, 0] == 2, 0, X[:, 0])
    return X, y


def test_forest_fits_separable_data():
    X, y = _single_informative()
    model = train_forest(X, y, ForestConfig(n_trees=30), seed=1)
    pred = forest_predict_batch(model, X)
    assert np.mean(pred == y) == 1.0


def test_forest_oob_accuracy_high_on_informative_task():
    X, y = _single_informative(seed=3)
    model = train_forest(X, y, ForestConfig(n_trees=60), seed=2)
    assert oob_accuracy(model, X, y) >= 0.95


def test_forest_bitwise_reproducible():
    X, y = _single_informative(seed=5)
    Xq = np.random.default_rng(9).choice([-1, 1, 2], size=(50, X.shape[1]))
    a = train_forest(X, y, ForestConfig(n_trees=20), seed=7)
    b = train_forest(X, y, ForestConfig(n_trees=20), seed=7)
    assert np.array_equal(forest_votes(a, Xq), forest_votes(b, Xq))
    c = train_forest(X, y, ForestConfig(n_trees=20), seed=8)
    assert not np.array_equal(forest_votes(a, Xq), forest_votes(c, Xq))


def test_forest_requires_enough_rows():
    with pytest.raises(ValueError):
        train_forest(np.zeros((10, 3)), np.zeros(10))


def test_forest_config_refuses_empty_forest():
    # no tree means NaN votes and a silent abstention on every row
    for n_trees in (0, -1):
        with pytest.raises(ValueError, match="n_trees"):
            ForestConfig(n_trees=n_trees)
    assert ForestConfig(n_trees=1).n_trees == 1


def test_forest_single_class_degenerates_gracefully():
    X = np.random.default_rng(0).choice([-1, 1], size=(60, 3))
    model = train_forest(X, np.ones(60), ForestConfig(n_trees=5))
    assert model.degenerate
    cls, votes = forest_predict(model, X[0])
    assert cls == 1
    assert votes.tolist() == [1.0]


def test_forest_vote_tie_resolves_to_smallest_class():
    X, y = _single_informative()
    model = train_forest(X, y, ForestConfig(n_trees=30), seed=1)
    # classes sorted ascending; equal vote mass picks index 0 via argmax
    assert model.classes.tolist() == sorted(model.classes.tolist())
    votes = np.array([1 / 3, 1 / 3, 1 / 3])
    assert model.classes[int(np.argmax(votes))] == model.classes[0]


def test_forest_unseen_level_does_not_crash():
    X, y = _single_informative()
    model = train_forest(X, y, ForestConfig(n_trees=10), seed=0)
    row = X[0].copy()
    row[1] = 99  # level never seen in training
    cls, _ = forest_predict(model, row)
    assert cls in model.classes


def test_permutation_importance_ranks_informative_first():
    X, y = _single_informative(seed=11)
    model = train_forest(X, y, ForestConfig(n_trees=40), seed=4)
    report = permutation_importance(model, X, y, seed=0)
    assert report.ranks[0] == 1
    assert report.importance[0] > max(report.importance[1:])


def test_adjusted_rank_ratio_endpoints():
    X, y = _single_informative(seed=13)
    model = train_forest(X, y, ForestConfig(n_trees=40), seed=4)
    report = permutation_importance(model, X, y, seed=0)
    ratios = [adjusted_rank_ratio(report, c) for c in range(report.n_features)]
    assert min(ratios) == 0.0
    assert max(ratios) == 1.0


def test_logistic_separable_toy_set():
    X, y = _single_informative(seed=17)
    keep = y != 0
    model = train_logistic(X, y)
    pred = logistic_predict(model, X[keep])
    assert np.mean(pred == y[keep]) == 1.0


def test_logistic_drops_zero_targets():
    X = np.array([[1], [1], [-1], [-1], [2]])
    y = np.array([1, 1, -1, -1, 0])
    model = train_logistic(X, y)
    assert logistic_predict(model, [[1]])[0] == 1
    assert logistic_predict(model, [[-1]])[0] == -1


def test_logistic_rejects_bad_targets():
    with pytest.raises(ValueError):
        train_logistic(np.ones((4, 1)), np.array([1, 2, 1, 2]))
    with pytest.raises(ValueError):
        train_logistic(np.ones((2, 1)), np.zeros(2))


def test_logistic_midpoint_rounds_up():
    # symmetric data leaves the intercept-only fit at p = 1/2
    X = np.array([[1], [1]])
    y = np.array([1, -1])
    model = train_logistic(X, y)
    assert logistic_predict(model, [[1]])[0] == 1
