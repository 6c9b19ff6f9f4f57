"""Self-contained learners for categorical state features.

A plain random forest with multiway categorical splits, out-of-bag error and
Breiman-Cutler permutation importance, plus an L2-regularized logistic
baseline fitted by iteratively reweighted least squares.  Everything is
bitwise deterministic for fixed seeds.

A forest's trees live in one set of flat per-node arrays (`Trees`): tree t
owns the nodes ``start[t]:start[t + 1]`` in preorder, root first.  Each node
stores its split column (-1 at a leaf), its majority class, its bootstrap
class counts and where its row of the child table starts; that row has one
entry per encoded level of the split column plus the unseen-level sentinel
and holds the child node, or -1 where the node has no child for the level.

All trees of a forest grow together.  Tree t draws its bootstrap and its
split candidates from its own ``default_rng([seed, t])``, so only the order
of draws within a tree matters: each tree keeps a depth-first stack and every
step pops the next node of every unfinished tree, which visits each tree in
the preorder of a recursive grower and makes the same draws.  One
``bincount`` over (node, candidate, level, class) then scores every candidate
of every node of the step, and one stable sort splits the chosen nodes' rows
into their children's contiguous segments.  The weighted Gini sums each
candidate's occupied levels as one compact row, candidates grouped by how
many levels they occupy, which adds in the order numpy uses for the same
levels alone; padding the empty levels with 0.0 would not, because numpy
sums a row of eight or more entries pairwise.  Prediction, out-of-bag votes
and permutation importance share one traversal that moves every (row, tree)
query down one level per step.

The split candidates are the sets ``rngs[t].choice(K, m, replace=False)``
would give, drawn in bulk by replaying numpy's own algorithm on each tree's
stream of 32-bit words: PCG64 serves the low half of each 64-bit output,
then the high half, and a half left over from an earlier call (the
bootstrap's ``integers`` often leaves one) waits in the generator's state and
comes first.  numpy's ``choice`` draws by Floyd's sampling (Bentley & Floyd
1987), for j = K - m ... K - 1 a draw v on [0, j], keeping v or, if v is
already kept, j; it then shuffles the m picks with a draw on [0, i] for
i = m - 1 ... 1, which only uses up words here because the grower sorts the
picks.  Each draw on [0, j] is Lemire's (2019): one word w gives
``(w * (j + 1)) >> 32``, and numpy rejects w and takes the next word while
the product's low 32 bits are below ``2**32 mod (j + 1)``; a bound of 0
takes no word.  So one call takes a fixed number of words (2m - 1, or 2m - 2
when K = m) unless a word is rejected, which at K <= 60 happens with odds
of about j / 2**32 per draw, and the i-th set of a tree depends only on its
generator, not on the shape of the tree.  `_CandidateDraws` computes a block
of sets per tree at once (32, fewer when a call takes over 32 words) from
raw words (``random_raw``) with array arithmetic, and carries unused words
over to the tree's next block.  A rejected word is dropped from its tree's
block, the later words move up one draw and the tree's next word joins the
end, until no word of the block is rejected, as numpy's own retry would.
The forest draws m = ceil(sqrt(K)) candidates, which for K > 10,000 is at
most K // 50, so numpy's ``choice`` always takes Floyd's branch.  Nothing
reads the generators after growing, so the words drawn ahead and never used
change no output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_TRAIN_ROWS = 50  # fewest training rows a forest is grown on


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    min_node_size: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_node_size < 1:
            raise ValueError(f"min_node_size must be >= 1, got {self.min_node_size}")


@dataclass(frozen=True)
class Trees:
    """Every tree of a forest as flat per-node arrays (see the module docstring)."""

    start: np.ndarray  # (n_trees + 1,) first node of each tree; the last entry is the node count
    feature: np.ndarray  # split column, -1 at a leaf
    majority: np.ndarray  # class index; argmax ties resolve to the smallest
    counts: np.ndarray  # (nodes, classes) bootstrap class counts
    child_start: np.ndarray  # where the node's row of `child` starts
    child: np.ndarray  # child node per encoded level of the split column, -1 if none

    def __len__(self) -> int:
        return len(self.start) - 1


@dataclass
class ForestModel:
    classes: np.ndarray  # sorted ascending; argmax ties resolve to smallest
    levels: list  # per-column sorted level values
    trees: Trees
    oob_indices: list
    n_rows: int = 0

    @property
    def n_features(self) -> int:
        return len(self.levels)

    @property
    def degenerate(self) -> bool:
        """True when the target had one class: every tree is one leaf voting for it."""
        return len(self.classes) == 1


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


def _segments(starts, sizes):
    """Positions of the concatenated ranges [starts[i], starts[i] + sizes[i])."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def _split_impurities(table, n_occupied, node_size):
    """Weighted Gini impurity of each candidate split.

    ``table`` holds the (level, class) counts of every candidate's occupied
    levels, candidate after candidate, levels ascending; ``n_occupied`` says
    how many rows of it each candidate owns.  A candidate with fewer than two
    occupied levels cannot split and scores +inf.
    """
    level_size = table.sum(axis=1)
    within = (table**2).sum(axis=1) / level_size
    row_m = np.repeat(n_occupied, n_occupied)
    imp = np.full(len(n_occupied), np.inf)
    for m in np.unique(n_occupied[n_occupied >= 2]):
        # a compact row of m entries sums in numpy's own order for m entries
        imp[n_occupied == m] = 1.0 - within[row_m == m].reshape(-1, m).sum(axis=1) / node_size[n_occupied == m]
    return imp


_LOW = np.uint64(0xFFFFFFFF)


class _CandidateDraws:
    """Each tree's split candidates: ``take`` gives the sorted set that each
    listed tree's next ``rngs[t].choice(K, m, replace=False)`` would give.
    Sets are drawn ahead, a block per tree at a time (see the module docstring)."""

    def __init__(self, rngs, K, m):
        self.rngs, self.K, self.m = rngs, K, m
        # j + 1 for each draw on [0, j] of one call that takes a word: Floyd's
        # draws (none for j = 0), then the shuffle's
        self.span = np.r_[max(K - m, 1):K, m - 1:0:-1].astype(np.uint64) + np.uint64(1)
        self.threshold = np.uint64(1 << 32) % self.span  # a word is rejected below it
        self.block = max(1, min(32, 1024 // max(len(self.span), 1)))
        self.sets = np.empty((len(rngs), self.block, m), dtype=np.int64)
        self.served = np.full(len(rngs), self.block)
        # per tree, the 32-bit words drawn but not used yet: first the half
        # that the generator keeps from its last 64-bit output
        self.carry = []
        for rng in rngs:
            state = rng.bit_generator.state
            self.carry.append(np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint64))

    def take(self, trees) -> np.ndarray:
        empty = trees[self.served[trees] == self.block]
        if empty.size:
            self._refill(empty)
        out = self.sets[trees, self.served[trees]]
        self.served[trees] += 1
        return out

    def _words(self, t, count) -> np.ndarray:
        """Tree t's next ``count`` 32-bit words."""
        raw = self.rngs[t].bit_generator.random_raw(max(count - len(self.carry[t]) + 1, 0) // 2)
        words = np.concatenate([self.carry[t], np.column_stack([raw & _LOW, raw >> np.uint64(32)]).ravel()])
        self.carry[t] = words[count:]
        return words[:count]

    def _refill(self, trees):
        B, W, K, m = self.block, len(self.span), self.K, self.m
        self.served[trees] = 0
        words = np.array([self._words(t, B * W) for t in trees.tolist()], dtype=np.uint64).reshape(len(trees), B, W)
        product = words * self.span
        # numpy draws again after a rejected word: drop it, so each later draw of the tree takes the next word
        while (rejected := (product & _LOW) < self.threshold).any():
            for i in np.flatnonzero(rejected.any(axis=(1, 2))).tolist():
                flat, w = words[i].ravel(), int(np.argmax(rejected[i]))
                words[i] = np.concatenate([flat[:w], flat[w + 1:], self._words(int(trees[i]), 1)]).reshape(B, W)
            product = words * self.span
        v = (product[:, :, : m - (K == m)] >> np.uint64(32)).astype(np.int64)
        if K == m:
            v = np.concatenate([np.zeros((len(trees), B, 1), dtype=np.int64), v], axis=2)
        # Floyd's rule: keep the draw on [0, j], or j when the draw is already kept
        kept = np.empty_like(v)
        for i in range(m):
            dup = (kept[:, :, :i] == v[:, :, i, None]).any(axis=2)
            kept[:, :, i] = np.where(dup, K - m + i, v[:, :, i])
        kept.sort(axis=2)
        self.sets[trees] = kept


def _grow_forest(Xenc, ycls, boots, rngs, min_node_size, n_levels, n_classes) -> Trees:
    """Grow one tree per (bootstrap, generator) pair, all trees in lockstep."""
    T, n, K, C = len(boots), len(Xenc), Xenc.shape[1], n_classes
    # tree t's rows sit at t*n:(t+1)*n; every node owns a contiguous segment of them
    rows = np.concatenate([np.empty(0, np.int64), *boots])
    # one depth-first stack per tree; an entry is a node not yet visited:
    # (segment start, size, parent's preorder index, level, class counts...)
    stack = np.zeros((T, 8, 4 + C), dtype=np.int64)
    stack[:, 0, 0] = np.arange(T) * n
    stack[:, 0, 1] = n
    stack[:, 0, 2] = -1
    stack[:, 0, 4:] = np.bincount(np.repeat(np.arange(T), n) * C + ycls[rows], minlength=T * C).reshape(T, C)
    depth = np.ones(T, dtype=np.int64)
    visited = np.zeros(T, dtype=np.int64)
    # one record per visited node: (tree, preorder index, parent, level, feature, counts...)
    records = [np.empty((0, 5 + C), dtype=np.int64)]
    m = int(np.ceil(np.sqrt(K)))
    draws = _CandidateDraws(rngs, K, m)
    tree = np.arange(T)
    while tree.size:
        depth[tree] -= 1
        node = stack[tree, depth[tree]]
        start, size, counts = node[:, 0], node[:, 1], node[:, 4:]
        feature = np.full(len(tree), -1)
        grow = np.flatnonzero((size >= min_node_size) & (counts.max(axis=1) < size))
        if grow.size:
            g = len(grow)
            cand = draws.take(tree[grow])
            slot = np.repeat(np.arange(g), size[grow])
            pos = _segments(start[grow], size[grow])
            r = rows[pos]
            level = Xenc[r[:, None], cand[slot]]
            # one count table over (node, candidate, level, class); candidate j of
            # node i owns the n_levels[cand[i, j]] levels after offset[i, j]
            width = n_levels[cand].ravel()
            offset = (np.cumsum(width) - width).reshape(g, m)
            key = (offset[slot] + level) * C + ycls[r][:, None]
            table = np.bincount(key.ravel(), minlength=width.sum() * C).reshape(-1, C)
            occupied = np.flatnonzero(table.sum(axis=1))
            pair = np.repeat(np.arange(g * m), width)[occupied]
            n_occupied = np.bincount(pair, minlength=g * m)
            imp = _split_impurities(table[occupied], n_occupied, np.repeat(size[grow], m)).reshape(g, m)
            parent_imp = 1.0 - ((counts[grow] / size[grow, None]) ** 2).sum(axis=1)
            best = imp.argmin(axis=1)
            split = np.flatnonzero(imp[np.arange(g), best] < parent_imp - 1e-12)
            feature[grow[split]] = cand[split, best[split]]
            if split.size:
                # children: the occupied levels of each chosen candidate, ascending
                chosen_pair = split * m + best[split]
                n_kids = n_occupied[chosen_pair]
                chosen = np.zeros(g * m, dtype=bool)
                chosen[chosen_pair] = True
                kids = occupied[chosen[pair]]
                kid_size = table[kids].sum(axis=1)
                first = np.cumsum(n_kids) - n_kids
                before = np.cumsum(kid_size) - kid_size
                kid_start = np.repeat(start[grow][split] - before[first], n_kids) + before
                kid_level = kids - np.repeat(offset.ravel()[chosen_pair], n_kids)
                # sort each segment by the best candidate's level: a split node's
                # children get contiguous segments; a node that stays a leaf
                # is never read again
                rows[pos] = r[np.lexsort((level[np.arange(len(r)), best[slot]], slot))]
                # push each node's children so that the smallest level pops first
                owner = tree[grow][split]
                need = depth[owner] + n_kids
                while need.max() > stack.shape[1]:
                    stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
                rank = np.arange(len(kids)) - np.repeat(first, n_kids)
                at = np.repeat(need, n_kids) - 1 - rank
                kid_tree = np.repeat(owner, n_kids)
                stack[kid_tree, at, 0] = kid_start
                stack[kid_tree, at, 1] = kid_size
                stack[kid_tree, at, 2] = np.repeat(visited[owner], n_kids)
                stack[kid_tree, at, 3] = kid_level
                stack[kid_tree, at, 4:] = table[kids]
                depth[owner] = need
        records.append(np.column_stack([tree, visited[tree], node[:, 2], node[:, 3], feature, counts]))
        visited[tree] += 1
        tree = np.flatnonzero(depth)
    return _assemble(np.concatenate(records), T, n_levels)


def _assemble(records, n_trees, n_levels) -> Trees:
    """Lay the grower's node records out as `Trees`: tree by tree, each in preorder."""
    records = records[np.lexsort((records[:, 1], records[:, 0]))]
    tree, _, parent, level, feature = records[:, :5].T
    counts = records[:, 5:]
    start = np.searchsorted(tree, np.arange(n_trees + 1))
    width = np.where(feature >= 0, n_levels[feature] + 1, 0)  # + 1: the unseen-level sentinel
    child_start = np.cumsum(width) - width
    child = np.full(width.sum(), -1)
    kid = np.flatnonzero(parent >= 0)
    child[child_start[start[tree[kid]] + parent[kid]] + level[kid]] = kid
    return Trees(start, feature, counts.argmax(axis=1), counts, child_start, child)


def _leaves(trees: Trees, Xenc, rows, tree_ids) -> np.ndarray:
    """Node where each query (row of Xenc, tree) stops: a leaf, or the node
    whose split column has a level the node never saw in training."""
    node = trees.start[tree_ids]
    live = np.arange(len(node))
    while live.size:
        f = trees.feature[node[live]]
        live, f = live[f >= 0], f[f >= 0]
        nxt = trees.child[trees.child_start[node[live]] + Xenc[rows[live], f]]
        live, nxt = live[nxt >= 0], nxt[nxt >= 0]
        node[live] = nxt
    return node


def train_forest(X, y, config: ForestConfig = ForestConfig(), seed: int = 0) -> ForestModel:
    """Train a random forest on categorical features.

    Trees bootstrap rows with replacement; each tree is reproducible from
    (seed, tree index).  A single-class target grows ``n_trees`` one-leaf
    trees, each voting for that class (the model is flagged `degenerate`).
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"X must be 2-D with at least one column, got shape {X.shape}")
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)} labels")
    if len(X) < MIN_TRAIN_ROWS:
        raise ValueError(f"need at least {MIN_TRAIN_ROWS} rows, got {len(X)}")
    classes = np.unique(y)
    Xenc, levels = _encode(X)
    n = len(X)
    rngs = [np.random.default_rng([seed, t]) for t in range(config.n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    n_levels = np.array([len(lv) for lv in levels])
    trees = _grow_forest(
        Xenc, np.searchsorted(classes, y), boots, rngs, config.min_node_size, n_levels, len(classes)
    )
    return ForestModel(
        classes=classes,
        levels=levels,
        trees=trees,
        oob_indices=[np.flatnonzero(np.bincount(boot, minlength=n) == 0) for boot in boots],
        n_rows=n,
    )


def forest_votes(model: ForestModel, X) -> np.ndarray:
    """Per-row vote fractions over model.classes."""
    X = np.atleast_2d(np.asarray(X))
    if X.shape[1] != model.n_features:
        raise ValueError(f"row has {X.shape[1]} features, model expects {model.n_features}")
    Xenc, _ = _encode(X, model.levels)
    T, C = len(model.trees), len(model.classes)
    rows = np.repeat(np.arange(len(X)), T)
    pred = model.trees.majority[_leaves(model.trees, Xenc, rows, np.tile(np.arange(T), len(X)))]
    return np.bincount(rows * C + pred, minlength=len(X) * C).reshape(len(X), C) / T


def forest_predict_batch(model: ForestModel, X) -> np.ndarray:
    """Per-row plurality class; vote ties resolve to the smallest class value."""
    votes = forest_votes(model, X)
    return model.classes[np.argmax(votes, axis=1)]


def _training_set(model: ForestModel, X, y):
    """X and y as arrays, refused unless they have the shape of the model's training set."""
    X, y = np.asarray(X), np.asarray(y)
    if X.shape != (model.n_rows, model.n_features):
        raise ValueError(f"X has shape {X.shape}, but the model was trained on {model.n_rows} rows "
                         f"of {model.n_features} columns")
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)} labels")
    return X, y


def _oob_votes(model: ForestModel, X) -> np.ndarray:
    """Per training row, the class votes of the trees that left it out of bag."""
    Xenc, _ = _encode(np.asarray(X), model.levels)
    C = len(model.classes)
    rows = np.concatenate(model.oob_indices)
    tree_ids = np.repeat(np.arange(len(model.trees)), [len(oob) for oob in model.oob_indices])
    pred = model.trees.majority[_leaves(model.trees, Xenc, rows, tree_ids)]
    return np.bincount(rows * C + pred, minlength=len(Xenc) * C).reshape(len(Xenc), C)


def oob_accuracy(model: ForestModel, X, y) -> float:
    """Share of rows whose OOB class is right, over the rows with at least one
    OOB vote (Breiman 2001).  X and y must be the training set."""
    X, y = _training_set(model, X, y)
    votes = _oob_votes(model, X)
    seen = votes.sum(axis=1) > 0
    if not seen.any():
        raise ValueError("no row was ever out of bag")
    return float(np.mean(model.classes[np.argmax(votes[seen], axis=1)] == y[seen]))


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
    X and y must be the training set.
    """
    X, y = _training_set(model, X, y)
    K = X.shape[1]
    Xenc, _ = _encode(X, model.levels)
    ycls = np.searchsorted(model.classes, y)
    deltas = np.zeros(K)
    used = 0
    for t, oob in enumerate(model.oob_indices):
        if len(oob) == 0:
            continue
        used += 1
        rng = np.random.default_rng([seed, t])
        perm = np.array([rng.permutation(len(oob)) for _ in range(K)])
        # query block 0 is the tree's OOB rows; block c + 1 has column c permuted
        sub = Xenc[oob]
        col = np.arange(K)[:, None]
        queries = np.tile(sub, (K + 1, 1, 1))
        queries[1 + col, np.arange(len(oob)), col] = sub[perm, col]
        queries = queries.reshape(-1, K)
        pred = model.trees.majority[_leaves(model.trees, queries, np.arange(len(queries)), np.full(len(queries), t))]
        err = (pred.reshape(K + 1, -1) != ycls[oob]).sum(axis=1) / len(oob)
        deltas += err[1:] - err[0]
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


def _one_hot(X, levels=None):
    """``(Z, levels)``: an intercept column, then one indicator block per column
    over its levels (as `_encode` finds or is given them); an unseen level sets none."""
    Xenc, levels = _encode(X, levels)
    blocks = [(Xenc[:, [c]] == np.arange(len(lv))).astype(np.float64) for c, lv in enumerate(levels)]
    return np.hstack([np.ones((len(Xenc), 1)), *blocks]), levels


L2_PENALTY = 1e-4  # ridge penalty of the logistic baseline's non-intercept coefficients
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8  # IRLS stops once a step's Euclidean norm falls below this


def train_logistic(X, y) -> LogisticModel:
    """Binary logistic baseline on one-hot encoded categorical columns.

    Rows with target 0 are dropped; targets must then be -1/+1.  Fitted by
    IRLS (at most ``IRLS_MAX_ITER`` steps) with a ridge penalty of
    ``L2_PENALTY`` on all non-intercept coefficients, which keeps perfectly
    separable problems well-posed.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    keep = y != 0
    X, y = X[keep], y[keep]
    if len(X) == 0 or set(np.unique(y)) - {-1, 1}:
        raise ValueError("logistic targets must be -1/+1 after dropping zeros")
    Z, levels = _one_hot(X)
    t = (y + 1) / 2.0
    beta = np.zeros(Z.shape[1])
    pen = np.full(Z.shape[1], L2_PENALTY)
    pen[0] = 0.0  # intercept unpenalized
    converged = False
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        eta = Z @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -35, 35)))
        w = np.maximum(p * (1 - p), 1e-12)
        grad = Z.T @ (t - p) - pen * beta
        H = (Z * w[:, None]).T @ Z + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        beta = beta + step
        if np.linalg.norm(step) < IRLS_TOL:
            converged = True
            break
    return LogisticModel(levels=levels, coef=beta, converged=converged, n_iter=it)


def logistic_predict(model: LogisticModel, X) -> np.ndarray:
    """Predict -1/+1; probability exactly 1/2 rounds to +1."""
    Z, _ = _one_hot(np.atleast_2d(np.asarray(X)), model.levels)
    p = 1.0 / (1.0 + np.exp(-np.clip(Z @ model.coef, -35, 35)))
    return np.where(p >= 0.5, 1, -1)
