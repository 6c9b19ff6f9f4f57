import numpy as np
import pytest

from tradeflow.learn import (
    ForestConfig,
    _CandidateDraws,
    _encode,
    _grow_forest,
    _oob_votes,
    _split_impurities,
    adjusted_rank_ratio,
    forest_predict_batch,
    forest_votes,
    logistic_predict,
    oob_accuracy,
    permutation_importance,
    train_forest,
    train_logistic,
)

# The recursive grower and per-tree traversal that the lockstep forest
# replaced, kept as the reference: trees are nested dicts grown depth-first,
# one node per call, from the same per-tree generators.


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
    cand = np.sort(rng.choice(K, size=int(np.ceil(np.sqrt(K))), replace=False))
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


def _tree_predict(tree, Xenc):
    def apply(node, idx):
        if "feature" not in node:
            out[idx] = node["majority"]
            return
        col = Xenc[idx, node["feature"]]
        matched = np.zeros(len(idx), dtype=bool)
        for v, child in node["children"].items():
            sel = col == v
            if sel.any():
                apply(child, idx[sel])
                matched |= sel
        if not matched.all():
            out[idx[~matched]] = node["majority"]  # unseen branch: node majority

    out = np.empty(len(Xenc), dtype=np.int64)
    apply(tree, np.arange(len(Xenc)))
    return out


def _reference_forest(X, y, config, seed):
    """(trees, oob sets) of the recursive grower with train_forest's draws."""
    Xenc, levels = _encode(X)
    ycls = np.searchsorted(np.unique(y), y)
    n_levels = np.array([len(lv) for lv in levels])
    trees, oobs = [], []
    for t in range(config.n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, len(X), size=len(X))
        oobs.append(np.setdiff1d(np.arange(len(X)), boot))
        trees.append(_grow(Xenc, ycls, boot, rng, config, n_levels, int(ycls.max()) + 1))
    return trees, oobs


def _reference_votes(trees, Xenc, n_classes):
    votes = np.zeros((len(Xenc), n_classes))
    for tree in trees:
        votes[np.arange(len(Xenc)), _tree_predict(tree, Xenc)] += 1
    return votes / len(trees)


def _reference_oob_votes(trees, oobs, Xenc, n_classes):
    votes = np.zeros((len(Xenc), n_classes))
    for tree, oob in zip(trees, oobs):
        if len(oob):
            votes[oob, _tree_predict(tree, Xenc[oob])] += 1
    return votes


def _reference_importance(trees, oobs, Xenc, ycls, seed):
    K = Xenc.shape[1]
    deltas = np.zeros(K)
    used = 0
    for t, (tree, oob) in enumerate(zip(trees, oobs)):
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
    return deltas / max(used, 1)


def _oob_classes(model, X):
    """The forest's OOB class per training row: the plurality of the trees
    that left it out of bag (``classes[0]`` for a row with no vote)."""
    return model.classes[np.argmax(_oob_votes(model, X), axis=1)]


def _preorder(tree):
    """A dict tree as the flat layout's preorder: (feature, majority, counts, {level: child})."""
    nodes = []

    def visit(node):
        nodes.append(None)
        k = len(nodes) - 1
        kids = {v: visit(child) for v, child in node.get("children", {}).items()}
        nodes[k] = (node.get("feature", -1), node["majority"], node["counts"].tolist(), kids)
        return k

    visit(tree)
    return nodes


def _flat_tree(model, t):
    """Tree t of a trained model in the same form as `_preorder`."""
    trees = model.trees
    first = trees.start[t]
    nodes = []
    for k in range(first, trees.start[t + 1]):
        f = int(trees.feature[k])
        kids = {}
        if f >= 0:
            row = trees.child[trees.child_start[k]:trees.child_start[k] + len(model.levels[f]) + 1]
            kids = {v: int(c) - first for v, c in enumerate(row) if c >= 0}
        nodes.append((f, int(trees.majority[k]), trees.counts[k].tolist(), kids))
    return nodes


def _test10_matrix():
    rng = np.random.default_rng(17)
    X = rng.choice([-1, 1, 2], size=(400, 6))
    return X, np.where(X[:, 0] == 2, 0, X[:, 0])


def _hour_matrix():
    """A paper-sized predictor matrix: 36 state columns and a 24-level hour column."""
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.choice([-1, 1, 2], size=(539, 36)), rng.integers(0, 24, size=539)])
    y = np.where(X[:, 0] + X[:, 1] + rng.integers(-1, 2, size=539) > 1, 1, -1)
    return X, y


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


def test_forest_refuses_mismatched_inputs():
    X, y = _single_informative(n=60)
    # a longer y was silently cut to len(X) labels; a shorter one failed inside the grower
    with pytest.raises(ValueError, match="labels"):
        train_forest(X, np.concatenate([y, y[:5]]), ForestConfig(n_trees=2))
    with pytest.raises(ValueError, match="labels"):
        train_forest(X, y[:-1], ForestConfig(n_trees=2))
    for bad in (X[:, 0], X[:, :0]):
        with pytest.raises(ValueError, match="2-D"):
            train_forest(bad, y, ForestConfig(n_trees=2))


def test_forest_config_refuses_empty_forest():
    # no tree means NaN votes and a silent abstention on every row
    for n_trees in (0, -1):
        with pytest.raises(ValueError, match="n_trees"):
            ForestConfig(n_trees=n_trees)
    assert ForestConfig(n_trees=1).n_trees == 1
    # a node size below 1 was accepted
    for size in (0, -3):
        with pytest.raises(ValueError, match="min_node_size"):
            ForestConfig(min_node_size=size)
    assert ForestConfig(min_node_size=1).min_node_size == 1


def test_split_impurities_equal_reference_to_the_bit():
    rng = np.random.default_rng(0)
    tables, n_occupied, sizes, expected = [], [], [], []
    for _ in range(400):
        n_levels, n_classes = int(rng.integers(2, 30)), 3
        counts = rng.integers(0, 12, size=(n_levels, n_classes))
        counts[rng.random(n_levels) < 0.3] = 0  # empty levels between occupied ones
        occupied = counts.sum(axis=1) > 0
        if not 2 <= occupied.sum() <= 24:
            continue
        xcol = np.repeat(np.repeat(np.arange(n_levels), n_classes), counts.ravel())
        ycls = np.repeat(np.tile(np.arange(n_classes), n_levels), counts.ravel())
        expected.append(_gini_split(xcol, ycls, n_levels, n_classes))
        tables.append(counts[occupied])
        n_occupied.append(occupied.sum())
        sizes.append(counts.sum())
    # a candidate with one occupied level cannot split
    tables.append(np.array([[4, 1, 0]]))
    n_occupied.append(1)
    sizes.append(5)
    got = _split_impurities(np.concatenate(tables), np.array(n_occupied), np.array(sizes))
    assert len(expected) > 300
    assert set(n_occupied[:-1]) == set(range(2, 25))
    assert got[:-1].tolist() == expected
    assert got[-1] == np.inf


@pytest.mark.parametrize(
    "matrix, config, seed",
    [
        (_test10_matrix, ForestConfig(n_trees=60), 2),
        (_hour_matrix, ForestConfig(n_trees=100), 1),
        (_hour_matrix, ForestConfig(n_trees=40, min_node_size=2), 4),
    ],
    ids=["test10", "hour-539x37", "hour-node2"],
)
def test_forest_equals_recursive_reference(matrix, config, seed):
    X, y = matrix()
    ref_trees, ref_oobs = _reference_forest(X, y, config, seed)
    model = train_forest(X, y, config, seed=seed)
    assert len(model.trees) == config.n_trees
    for t, tree in enumerate(ref_trees):
        assert _flat_tree(model, t) == _preorder(tree), f"tree {t}"
        assert np.array_equal(model.oob_indices[t], ref_oobs[t])
    Xenc, _ = _encode(X, model.levels)
    ycls = np.searchsorted(model.classes, y)
    C = len(model.classes)
    Xq = np.vstack([X[::7], np.full((1, X.shape[1]), 99)])  # last row: every level unseen
    assert np.array_equal(forest_votes(model, Xq), _reference_votes(ref_trees, _encode(Xq, model.levels)[0], C))
    ref_oob = model.classes[np.argmax(_reference_oob_votes(ref_trees, ref_oobs, Xenc, C), axis=1)]
    assert np.array_equal(_oob_classes(model, X), ref_oob)
    report = permutation_importance(model, X, y, seed=3)
    assert np.array_equal(report.importance, _reference_importance(ref_trees, ref_oobs, Xenc, ycls, 3))


@pytest.mark.parametrize("gain", [False, True])
def test_split_needs_more_than_a_rounding_gain(gain):
    # level 0 holds 1:6 of the two classes and level 1 2:12, the same mix as
    # the node, so the split gains nothing; in floating point its impurity
    # still comes out one rounding step below the node's, and only the 1e-12
    # margin keeps the node a leaf.  Moving one row of class 0 gives a real gain.
    counts = np.array([[1, 6], [2, 12]]) if not gain else np.array([[2, 6], [1, 12]])
    Xenc = np.repeat([0, 0, 1, 1], counts.ravel())[:, None]
    ycls = np.repeat([0, 1, 0, 1], counts.ravel())
    n = len(ycls)
    parent = 1.0 - ((counts.sum(axis=0) / n) ** 2).sum()
    imp = _split_impurities(counts, np.array([2]), np.array([n]))[0]
    assert imp == _gini_split(Xenc[:, 0], ycls, 2, 2)
    assert (parent - 1e-12 <= imp < parent) != gain
    trees = _grow_forest(Xenc, ycls, [np.arange(n)], [np.random.default_rng(0)], 1, np.array([2]), 2)
    ref = _grow(Xenc, ycls, np.arange(n), np.random.default_rng(0), ForestConfig(min_node_size=1), np.array([2]), 2)
    assert (trees.feature[0] == 0) == gain == ("feature" in ref)
    assert len(trees) == 1 and len(trees.feature) == len(_preorder(ref))


# Split-candidate draws: `_CandidateDraws` must give, tree by tree, the sorted
# sets of numpy's `Generator.choice(K, m, replace=False)`.  The scalar
# reference below replays numpy's algorithm on a stream of 32-bit words in the
# plainest form; it is itself checked against `choice` on real generators.


class _CraftedGenerator:
    """Stands in for a `Generator`: its bit generator serves fixed raw 64-bit
    outputs and starts with ``half`` as the buffered 32-bit word, if given."""

    def __init__(self, raw, half=None):
        self.bit_generator = self
        self.raw = [int(r) for r in raw]
        self.state = {"has_uint32": int(half is not None), "uinteger": half or 0}

    def random_raw(self, size=None):
        if size is None:
            return self.raw.pop(0)
        out, self.raw = self.raw[:size], self.raw[size:]
        assert len(out) == size, "crafted words ran out"
        return np.array(out, dtype=np.uint64)


def _word_stream(bit_generator, half=None):
    """A generator's 32-bit words: the buffered half, then each raw output's low and high half."""
    if half is not None:
        yield half
    while True:
        raw = int(bit_generator.random_raw())
        yield raw & 0xFFFFFFFF
        yield raw >> 32


def _lemire(words, j, rejected):
    """numpy's bounded draw on [0, j] for 0 < j < 2**32 - 1; counts rejected words."""
    threshold = (0xFFFFFFFF - j) % (j + 1)
    while True:
        product = next(words) * (j + 1)
        if product & 0xFFFFFFFF >= threshold:
            return product >> 32
        rejected.append(j)


def _reference_choice(words, K, m, rejected):
    """Sorted ``choice(K, m, replace=False)`` drawn from the word iterator ``words``."""
    draw = lambda j: _lemire(words, j, rejected) if j else 0  # noqa: E731
    picks = []
    for j in range(K - m, K):  # Floyd's sampling
        v = draw(j)
        picks.append(j if v in picks else v)
    for i in range(m - 1, 0, -1):  # the shuffle of the picks
        j = draw(i)
        picks[i], picks[j] = picks[j], picks[i]
    return sorted(picks)


def _generators(seed, n):
    """n generators; the even ones hold a buffered half-word, as after a bootstrap of odd length."""
    rngs = [np.random.default_rng([seed, t]) for t in range(n)]
    for rng in rngs[::2]:
        rng.integers(0, 539, size=539)
    return rngs


def test_reference_choice_equals_numpy():
    for K, m in [(27, 6), (5, 3), (10, 10), (1, 1), (60, 8), (10_001, 101)]:
        for rng, twin in zip(_generators(K + m, 4), _generators(K + m, 4)):
            state = rng.bit_generator.state
            words = _word_stream(rng.bit_generator, state["uinteger"] if state["has_uint32"] else None)
            for _ in range(3):
                assert _reference_choice(words, K, m, []) == sorted(twin.choice(K, size=m, replace=False).tolist())


def test_candidate_draws_equal_numpy_choice():
    # every (K, m) with m <= K <= 60; tree t sits out every step with
    # (step + t) % 4 == 0, so trees run through their blocks at different
    # steps and each takes 36 sets, more than one block
    n_trees, steps = 4, 48
    for K in range(1, 61):
        for m in range(1, K + 1):
            draws = _CandidateDraws(_generators(1000 * K + m, n_trees), K, m)
            twins = _generators(1000 * K + m, n_trees)
            for step in range(steps):
                trees = np.array([t for t in range(n_trees) if (step + t) % 4])
                got = draws.take(trees)
                for row, t in zip(got.tolist(), trees.tolist()):
                    assert row == sorted(twins[t].choice(K, size=m, replace=False).tolist()), (K, m, step, t)


@pytest.mark.parametrize("K, m", [(10_001, 101), (20_000, 142)])
def test_candidate_draws_equal_numpy_choice_beyond_10000_columns(K, m):
    # the forest's m = ceil(sqrt(K)), which numpy draws by Floyd's sampling for K > 10,000 too
    draws = _CandidateDraws(_generators(K, 3), K, m)
    twins = _generators(K, 3)
    for _ in range(3):
        got = draws.take(np.arange(3))
        assert got.tolist() == [sorted(rng.choice(K, size=m, replace=False).tolist()) for rng in twins]


@pytest.mark.parametrize("K, m", [(27, 6), (5, 3), (10, 10), (3, 2), (2, 1), (60, 8), (7, 7), (12, 4)])
def test_candidate_draws_replay_rejected_words(K, m):
    # crafted words: one in five is 0, which Lemire's rule rejects for every
    # bound j whose j + 1 is not a power of 2, and one in five sits on the
    # rejection threshold of a bound of the call, just below or just at it
    rng = np.random.default_rng(K * 100 + m)
    bounds = [j for j in [*range(K - m, K), *range(m - 1, 0, -1)] if j > 0 and (j + 1) % 2]
    n_trees, n_raw = 3, 4000
    words = rng.integers(0, 2**32, size=(n_trees, 2 * n_raw), dtype=np.uint64)
    kind = rng.integers(0, 5, size=words.shape)
    words[kind == 0] = 0
    for t, k in zip(*np.nonzero(kind == 1)):
        j = int(rng.choice(bounds)) if bounds else 1
        threshold = (0xFFFFFFFF - j) % (j + 1)
        # w * (j + 1) has low half threshold - 1 (rejected) or threshold (kept)
        words[t, k] = (threshold - int(rng.integers(0, 2))) * pow(j + 1, -1, 2**32) % 2**32 if bounds else 0
    raw = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
    halves = [None, 7, 0]  # tree 0 starts without a buffered half-word
    draws = _CandidateDraws([_CraftedGenerator(r, h) for r, h in zip(raw, halves)], K, m)
    streams = [_word_stream(_CraftedGenerator(r), h) for r, h in zip(raw, halves)]
    rejected = []
    for step in range(70):
        trees = np.array([t for t in range(n_trees) if (step + t) % 3])
        got = draws.take(trees)
        for row, t in zip(got.tolist(), trees.tolist()):
            assert row == _reference_choice(streams[t], K, m, rejected), (step, t)
    assert len(rejected) > 40 if bounds else not rejected


def test_oob_accuracy_scores_only_rows_that_were_out_of_bag():
    X, y = _single_informative(n=200, seed=19)
    model = train_forest(X, y, ForestConfig(n_trees=1), seed=0)
    oob = model.oob_indices[0]
    assert 0 < len(oob) < len(X)
    # a row no tree left out of bag has no OOB vote and must not be scored
    assert oob_accuracy(model, X, y) == float(np.mean(_oob_classes(model, X)[oob] == y[oob]))
    model.oob_indices[0] = oob[:0]
    with pytest.raises(ValueError, match="out of bag"):
        oob_accuracy(model, X, y)


@pytest.mark.parametrize("score", [oob_accuracy, permutation_importance])
@pytest.mark.parametrize("bad", ["columns doubled", "rows doubled", "fewer rows", "labels short"])
@pytest.mark.parametrize("degenerate", [False, True])
def test_oob_scores_refuse_data_the_model_was_not_trained_on(score, bad, degenerate):
    # both scores read the model's OOB sets, which index its training rows:
    # other data gave a score with no error, zero importances or an IndexError
    X, y = _single_informative(n=80, n_noise=3)
    if degenerate:
        y = np.ones(len(X))
    model = train_forest(X, y, ForestConfig(n_trees=10), seed=0)
    assert model.degenerate == degenerate
    score(model, X, y)
    X_bad, y_bad = {
        "columns doubled": (np.hstack([X, X]), y),
        "rows doubled": (np.vstack([X, X]), np.concatenate([y, y])),
        "fewer rows": (X[:60], y[:60]),
        "labels short": (X, y[:-1]),
    }[bad]
    with pytest.raises(ValueError, match="labels" if bad == "labels short" else "trained on 80 rows of 4 columns"):
        score(model, X_bad, y_bad)


def test_forest_single_class_degenerates_gracefully():
    X = np.random.default_rng(0).choice([-1, 1], size=(60, 3))
    model = train_forest(X, np.ones(60), ForestConfig(n_trees=5))
    assert model.degenerate
    assert forest_predict_batch(model, X[:1]).tolist() == [1]
    assert forest_votes(model, X[:1]).tolist() == [[1.0]]


@pytest.mark.parametrize("degenerate", [False, True])
def test_forest_votes_refuse_rows_of_another_width(degenerate):
    # a degenerate model, which has no tree to read the columns, still checks them
    X, y = _single_informative(n=60, n_noise=2)
    model = train_forest(X, np.ones(len(X)) if degenerate else y, ForestConfig(n_trees=5))
    assert model.degenerate == degenerate
    with pytest.raises(ValueError, match="model expects 3"):
        forest_votes(model, np.ones((2, 7)))


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
    assert forest_predict_batch(model, row[None])[0] in model.classes


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
