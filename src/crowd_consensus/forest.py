"""Random-forest binary classifier for crowd answer disagreement.

Trees are grown CART-style on bootstrap samples: greedy binary splits
minimize weighted Gini impurity over ceil(sqrt(d)) randomly drawn
features per node, with candidate thresholds at midpoints between
consecutive distinct values, until every leaf is pure or no split
reduces impurity. Each tree's randomness comes from its own generator
seeded by (master seed, tree index), so a tree depends only on the data
and its own index, not on how many trees are grown or by which process.

Training grows tree 0 in the calling process and times it. If at least
two CPUs are in the affinity mask, no other Python thread runs, and the
trees other processes would take would, at tree 0's pace, outlast a fork
round trip, it then forks one worker per CPU (at most one per tree):
worker r grows trees r, r + w, ..., the calling process being worker 0,
and the others send their trees back pickled over pipes. Training and
prediction read a FeatureMatrix (see features.py) in place, through its
column map, without densifying it: a numeric column's row is sorted per
node, and a one-hot column, whose only cut is "word != w", is scored from
per-node bincounts of its word row. Prediction sends all rows down each
tree together, one numpy step per tree level, and returns one float64
array: each row's share of trees voting disagreement. Turning a share
into a label is left to the caller (the CLI labels p > 0.5 as
disagreement).
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import pickle
import signal
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .answers import disagreement_mask
from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    FormatVersionMismatch,
    InvalidArgument,
)
from .features import FeatureMatrix, FeatureMode, Vocabularies, feature_dimension

MODEL_FORMAT = "crowd-consensus-forest"
MODEL_VERSION = 2


@dataclass(frozen=True)
class ForestConfig:
    """Training settings; n_trees stays odd so majority votes cannot tie."""

    n_trees: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        # type(), unlike isinstance, refuses a bool as well as a float.
        n_trees, seed = self.n_trees, self.seed
        if type(n_trees) is not int or not 1 <= n_trees < 2**31 or n_trees % 2 == 0:
            raise InvalidArgument(f"n_trees must be an odd integer in [1, 2**31), got {n_trees!r}")
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise InvalidArgument(f"seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Flattened tree arrays; feature[i] == -1 marks node i as a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    votes_disagreement: np.ndarray  # int64, leaf-only
    votes_total: np.ndarray  # int64, leaf-only


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Trained ensemble plus everything needed to reproduce its inputs."""

    trees: tuple[DecisionTree, ...]
    config: ForestConfig
    n_features: int
    feature_mode: FeatureMode = FeatureMode.QI
    vocab: Vocabularies | None = None


def train_forest(
    X: FeatureMatrix,
    y,
    config: ForestConfig,
    *,
    vocab: Vocabularies | None = None,
    feature_mode: FeatureMode = FeatureMode.QI,
) -> ForestModel:
    """Fit the ensemble.

    X is a FeatureMatrix, from extract_matrix or FeatureMatrix.from_dense;
    y holds one bool label per row, True for disagreement. Each tree draws
    its own bootstrap sample of size n and grows until its leaves are pure
    or no split of the ceil(sqrt(d)) features drawn at a node reduces
    impurity. Given identical data and config the result is identical.
    """
    if not isinstance(feature_mode, FeatureMode):
        raise InvalidArgument(f"feature_mode must be a FeatureMode, got {feature_mode!r}")
    _check_matrix(X)
    n, d = X.shape
    if n < 2:
        raise EmptyTrainingSet(f"need at least 2 training examples, got {n}")
    if d == 0:
        raise DimensionMismatch("X has no feature columns")
    y01 = disagreement_mask(y).astype(np.uint8)
    if len(y01) != n:
        raise DimensionMismatch(f"got {n} feature rows but {len(y01)} labels")
    if vocab is not None:
        expected = feature_dimension(vocab, feature_mode)
        if expected != d:
            raise DimensionMismatch(
                f"vocabularies imply {expected} features but X has {d}"
            )
    trees = _grow_forest(X, y01, config.seed, config.n_trees)
    return ForestModel(
        trees=trees,
        config=config,
        n_features=d,
        feature_mode=feature_mode,
        vocab=vocab,
    )


def _check_matrix(X) -> None:
    """InvalidArgument unless X is a FeatureMatrix of finite values: no cut
    separates a NaN or infinite value from its neighbours."""
    if not isinstance(X, FeatureMatrix):
        raise InvalidArgument(f"X must be a FeatureMatrix (see from_dense), got {type(X).__name__}")
    if not np.isfinite(X.values).all():
        raise InvalidArgument("X holds NaN or infinite values")


class WorkerFailed(RuntimeError):
    """A tree-growing worker process raised, was killed or could not start."""


#: Seconds a fork round trip costs: forking a worker, pickling its trees
#: back and reaping it. It took 10-17 ms in a fresh `train` on a 2-core
#: host; the bar sits at about twice that, so a forest forks only where
#: the second process clearly pays (see _grow_forest).
_FORK_COST_S = 0.03


def _available_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _grow_forest(
    X: FeatureMatrix, y: np.ndarray, seed: int, n_trees: int
) -> tuple[DecisionTree, ...]:
    """Trees 0..n_trees-1, grown by w processes.

    This process grows tree 0 first and times it. w is the number of CPUs
    available, at most n_trees, if the trees the other w - 1 would take
    would, at tree 0's pace, take longer than _FORK_COST_S, and no other
    Python thread runs, since a forked child could then inherit a lock that
    thread holds and never get it; otherwise w is 1. Worker r grows the
    trees t with t % w == r; this process is worker 0 and forks the others,
    which share X and y copy-on-write and send their trees back pickled
    over a pipe. Tree t is a function of (seed, t) alone, so the result
    does not depend on w. A worker that fails, dies or cannot be started
    (os.pipe or os.fork raising OSError) raises WorkerFailed here, after
    every worker already started has been killed and reaped.
    """
    def grow(trees: range) -> list[DecisionTree]:
        return [_grow_tree(X, y, np.random.default_rng([seed, t])) for t in trees]

    rng = np.random.default_rng([seed, 0])  # off the clock: the first call imports numpy.random
    start = time.perf_counter()
    first = [_grow_tree(X, y, rng)]
    pace = time.perf_counter() - start
    workers = min(_available_cpus(), n_trees)
    handed_out = n_trees - len(range(0, n_trees, workers))  # 0 for one CPU or one tree
    if handed_out * pace <= _FORK_COST_S or threading.active_count() > 1:
        return tuple(first + grow(range(1, n_trees)))
    shares: list[list[DecisionTree]] = [[] for _ in range(workers)]
    children: dict[int, tuple[int, BinaryIO]] = {}  # worker -> (pid, pipe)
    # Frozen objects are never touched by a garbage collection, so a
    # worker's collections do not copy the pages it shares with this process.
    # A caller's own freeze stays in force, now holding these objects too;
    # under the CLI, which freezes its import-time heap, that is the rule.
    caller_froze = gc.get_freeze_count() > 0
    gc.freeze()
    try:
        for r in range(1, workers):
            fds: tuple[int, ...] = ()
            try:
                fds = read, write = os.pipe()
                pid = os.fork()
            except OSError as exc:  # EMFILE, EAGAIN: no input is at fault
                for fd in fds:
                    os.close(fd)
                raise WorkerFailed(f"tree worker {r} could not be started: {exc}") from exc
            if pid == 0:
                os.close(read)
                for _, pipe in children.values():
                    pipe.close()
                _work(grow, range(r, n_trees, workers), r, write)
            os.close(write)
            children[r] = (pid, open(read, "rb"))
        shares[0] = first + grow(range(workers, n_trees, workers))
        for r in range(1, workers):
            pid, pipe = children[r]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[r]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise WorkerFailed(f"tree worker {r} (pid {pid}) {how}")
            shares[r] = pickle.loads(data)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        if not caller_froze:
            gc.unfreeze()
    return tuple(shares[t % workers][t // workers] for t in range(n_trees))


def _work(grow, trees: range, r: int, write: int) -> NoReturn:
    """Body of forked worker r: pickle grow(trees) into the pipe, then _exit.

    It never returns into the caller and flushes no inherited buffer; a
    failure is one line on stderr and exit status 1.
    """
    code = 1
    try:
        with open(write, "wb") as pipe:
            pickle.dump(grow(trees), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException as exc:
        os.write(2, f"tree worker {r}: {type(exc).__name__}: {exc}\n".encode())
    finally:
        os._exit(code)


def _grow_tree(X: FeatureMatrix, y: np.ndarray, rng: np.random.Generator) -> DecisionTree:
    n = y.size
    d = len(X.source)
    k = max(1, math.ceil(math.sqrt(d)))  # features drawn at each node
    # Bincounts of a word row need width bins to count every word a one-hot column reads.
    width = int(X.source[:, 1].max(initial=-1)) + 1
    # The bootstrap draw is the generator's first use, so a tree's sample
    # is reproducible from (seed, tree index) alone.
    bootstrap = rng.integers(0, n, size=n)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    votes_d: list[int] = []
    votes_n: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        votes_d.append(0)
        votes_n.append(0)
        return len(feature) - 1

    root = new_node()
    # Depth-first, left child first, so rng draws happen in a fixed order.
    stack: list[tuple[int, np.ndarray]] = [(root, bootstrap)]
    while stack:
        node, idx = stack.pop()
        ysub = y[idx]
        n_pos = int(np.count_nonzero(ysub))
        split = None
        if 0 < n_pos < idx.size:  # impure, so at least 2 rows
            feat_ids = rng.choice(d, size=k, replace=False)
            split = _best_split(X, ysub, n_pos, idx, feat_ids, width)
        if split is None:
            votes_d[node] = n_pos
            votes_n[node] = idx.size
            continue
        f, thr, goes_left = split
        feature[node] = f
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~goes_left]))
        stack.append((left_id, idx[goes_left]))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        votes_disagreement=np.asarray(votes_d, dtype=np.int64),
        votes_total=np.asarray(votes_n, dtype=np.int64),
    )


def _best_split(
    X: FeatureMatrix,
    ysub: np.ndarray,
    total1: int,
    idx: np.ndarray,
    feat_ids: np.ndarray,
    width: int,
) -> tuple[int, float, np.ndarray] | None:
    """Strictly impurity-reducing (feature, threshold, rows going left), or None.

    ysub = y[idx] holds total1 positives. Ties are broken toward the
    earliest feature in feat_ids and, within a feature, the lowest
    threshold. A numeric column reads its row of X.values, is sorted, and
    every cut between distinct values is a candidate; a one-hot column
    has the single cut "word != w" (left) at threshold 0.5, and one
    bincount of totals and one of positives per word row count every
    sampled word of that row at once (width, more than any word a one-hot
    column reads, is their least length). All candidates of the node are
    scored together.
    """
    m = ysub.size
    row, word = X.source[feat_ids].T
    # Candidate c is cut key[c] % m of feat_ids[key[c] // m]; a smaller key wins ties.
    keys, nls, l1s = [], [], []
    values_at = {}  # numeric feature position -> (values at idx, sorted)
    coded = {}  # word row -> its words at idx
    for i in (word < 0).nonzero()[0].tolist():
        values = X.values[row[i]][idx]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        cut = (sv[:-1] != sv[1:]).nonzero()[0]  # split between cut and cut+1
        if cut.size:
            keys.append(i * m + cut)
            nls.append(cut + 1)
            l1s.append(np.cumsum(ysub[order])[cut])
            values_at[i] = values, sv
    at = (word >= 0).nonzero()[0]
    if at.size:
        rows, words = row[at], word[at]
        positive = ysub.view(bool)
        nr, r1 = np.empty((2, at.size), dtype=np.intp)  # rows and positive rows with the word
        for r in set(rows.tolist()):
            # Codes above width, a word no column reads, count as width, so a
            # huge code cannot size the bincounts; no count that is read changes.
            values = X.values[r][idx]
            codes = coded[r] = np.minimum(values, width, out=values).astype(np.intp)
            here = rows == r
            nr[here] = np.bincount(codes, minlength=width)[words[here]]
            r1[here] = np.bincount(codes[positive], minlength=width)[words[here]]
        ok = (0 < nr) & (nr < m)
        keys.append(at[ok] * m)
        nls.append(m - nr[ok])
        l1s.append(total1 - r1[ok])
    if not keys:
        return None
    if len(keys) == 1:
        [key], [nl], [l1] = keys, nls, l1s
    else:
        key, nl, l1 = np.concatenate(keys), np.concatenate(nls), np.concatenate(l1s)
    gain = _gain(m, total1, nl, l1)
    best = gain.max(initial=0.0)
    if best <= 0.0:
        return None
    i, cut = divmod(int(key[gain == best].min()), m)
    f = int(feat_ids[i])
    if word[i] >= 0:
        return f, 0.5, coded[int(row[i])] != word[i]
    values, sv = values_at[i]
    lo, hi = sv[cut], sv[cut + 1]
    thr = lo + (hi - lo) / 2.0
    if thr >= hi:  # midpoint rounded up between adjacent floats
        thr = lo
    return f, float(thr), values <= thr


def _gini(n, n1):
    """Gini impurity 1 - (p0^2 + p1^2) of n rows, n1 of them positive (scalars or arrays)."""
    p0, p1 = (n - n1) / n, n1 / n
    return 1.0 - (p0 * p0 + p1 * p1)


def _gain(m: int, m1: int, nl, l1) -> np.ndarray:
    """Gini decrease of each cut of a node with m rows, m1 positive, that sends
    nl rows, l1 of them positive, left."""
    nr, r1 = m - nl, m1 - l1
    return _gini(m, m1) - (nl * _gini(nl, l1) + nr * _gini(nr, r1)) / m


def _leaves(tree: DecisionTree, X: FeatureMatrix) -> np.ndarray:
    """Leaf index of every row of X, all rows descending the tree in lockstep.

    Node i reads row[i] of X.values, mapped through X.source from its
    feature; a one-hot node's value is 1.0 where that row equals word[i].
    """
    row, word = X.source[tree.feature].T  # a leaf's entry (feature -1) is never read
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X))
    while rows.size:
        at = node[rows]
        internal = tree.feature[at] >= 0
        rows, at = rows[internal], at[internal]
        value, w = X.values[row[at], rows], word[at]
        value = np.where(w >= 0, value == w, value)
        node[rows] = np.where(value <= tree.threshold[at], tree.left[at], tree.right[at])
    return node


def predict_many(model: ForestModel, X: FeatureMatrix) -> np.ndarray:
    """The (n,) float64 vote shares of every row of X; each is a multiple of 1 / n_trees."""
    _check_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects (n, {model.n_features}) features, got shape {X.shape}"
        )
    votes = np.zeros(len(X), dtype=np.int64)
    for tree in model.trees:
        leaf = _leaves(tree, X)
        # Leaf ties vote disagreement: over-collecting answers is the safe error.
        # vd >= vt - vd cannot overflow, as _tree_from_doc keeps 0 <= vd <= vt < 2**63.
        vd = tree.votes_disagreement[leaf]
        votes += vd >= tree.votes_total[leaf] - vd
    return votes / model.config.n_trees


def save_model(model: ForestModel, path: str | Path) -> None:
    """Write a self-describing, versioned JSON model file.

    The text is json.dump(doc, ensure_ascii=False, sort_keys=True) of the
    whole document, written one tree at a time: json.dumps encodes in C,
    and only one tree's text is held at once.
    """
    head = {
        "config": asdict(model.config),
        "feature_mode": model.feature_mode.value,
        "format": MODEL_FORMAT,
        "n_features": model.n_features,
    }
    tail = {
        "version": MODEL_VERSION,
        "vocab": None if model.vocab is None else model.vocab.to_doc(),
    }
    encode = functools.partial(json.dumps, ensure_ascii=False, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        # "trees" sorts after every key of head and before every key of tail.
        fh.write(encode(head)[:-1] + ', "trees": [')
        for t, tree in enumerate(model.trees):
            if t:
                fh.write(", ")
            fh.write(encode({name: getattr(tree, name).tolist() for name in _TREE_ARRAYS}))
        fh.write("], " + encode(tail)[1:] + "\n")


def load_model(path: str | Path) -> ForestModel:
    """Read a model file; predictions round-trip bit-exactly.

    The file, its config, its vocab and each tree hold exactly the keys
    save_model writes, and the tree structure that prediction walks is
    checked: children point forward inside their tree, features index the
    model's columns, thresholds are finite, leaf votes are consistent and
    vocabularies are lists of distinct strings. Anything else, a version 1
    file included, raises FormatVersionMismatch.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # ValueError includes JSONDecodeError and UnicodeDecodeError.
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatVersionMismatch(f"{path}: not a model file ({exc})") from exc
    try:
        if doc["format"] != MODEL_FORMAT or doc["version"] != MODEL_VERSION:
            raise FormatVersionMismatch(
                f"{path}: found {doc.get('format')!r} v{doc.get('version')!r}, "
                f"expected {MODEL_FORMAT!r} v{MODEL_VERSION}"
            )
        if set(doc) != _MODEL_KEYS:
            raise ValueError(f"keys {sorted(doc)}, expected {sorted(_MODEL_KEYS)}")
        vocab = None if doc["vocab"] is None else Vocabularies.from_doc(doc["vocab"])
        mode = FeatureMode(doc["feature_mode"])
        n_features = doc["n_features"]
        if type(n_features) is not int or not 1 <= n_features < 2**31:
            raise ValueError(f"n_features must be an integer in [1, 2**31), got {n_features!r}")
        if vocab is not None and n_features != feature_dimension(vocab, mode):
            raise ValueError(
                f"n_features is {n_features} but the vocabularies and mode "
                f"imply {feature_dimension(vocab, mode)}"
            )
        config = ForestConfig(**doc["config"])
        if asdict(config) != doc["config"]:  # a key left out would read as its default
            raise ValueError(f"config keys {sorted(doc['config'])}, expected ['n_trees', 'seed']")
        trees = tuple(_tree_from_doc(t, n_features) for t in doc["trees"])
        if len(trees) != config.n_trees:
            raise ValueError(f"{len(trees)} trees but config.n_trees is {config.n_trees}")
        return ForestModel(
            trees=trees,
            config=config,
            n_features=n_features,
            feature_mode=mode,
            vocab=vocab,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatVersionMismatch(f"{path}: malformed model file ({exc})") from exc


_MODEL_KEYS = {"format", "version", "config", "n_features", "feature_mode", "vocab", "trees"}

_TREE_ARRAYS = {
    "feature": np.int32,
    "threshold": np.float64,
    "left": np.int32,
    "right": np.int32,
    "votes_disagreement": np.int64,
    "votes_total": np.int64,
}


def _tree_from_doc(doc: dict, n_features: int) -> DecisionTree:
    """One tree from its JSON arrays, checking every invariant prediction relies on."""
    if set(doc) != _TREE_ARRAYS.keys():
        raise ValueError(f"tree keys {sorted(doc)}, expected {sorted(_TREE_ARRAYS)}")
    arrays = {}
    for name, dtype in _TREE_ARRAYS.items():
        values = doc[name]
        floats = dtype is np.float64
        if type(values) is not list or not all(
            type(v) is int or (floats and type(v) is float) for v in values
        ):
            raise ValueError(f"tree {name} must be a list of {'numbers' if floats else 'integers'}")
        arrays[name] = np.array(values, dtype=np.float64 if floats else np.int64)
    feature, threshold, left, right, votes_d, votes_n = arrays.values()
    n = len(feature)
    if n == 0 or any(len(a) != n for a in arrays.values()):
        raise ValueError("tree arrays must all have the same non-zero length")
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"tree feature index outside [0, {n_features}) (-1 marks a leaf)")
    internal = feature >= 0
    parent = np.arange(n)[internal]
    for child in (left[internal], right[internal]):
        if ((child <= parent) | (child >= n)).any():
            raise ValueError("tree child index must be after its parent and inside the tree")
    if not np.isfinite(threshold).all():
        raise ValueError("tree threshold is not finite")
    d, total = votes_d[~internal], votes_n[~internal]
    if ((d < 0) | (d > total) | (total <= 0)).any():
        raise ValueError("leaf votes need 0 <= votes_disagreement <= votes_total, votes_total > 0")
    return DecisionTree(**{name: a.astype(_TREE_ARRAYS[name]) for name, a in arrays.items()})
