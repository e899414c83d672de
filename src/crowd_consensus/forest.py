"""Random-forest binary classifier for crowd answer disagreement.

Trees are grown CART-style on bootstrap samples: greedy binary splits
minimize weighted Gini impurity over a random feature subset per node,
with candidate thresholds at midpoints between consecutive distinct
values. Each tree's randomness comes from its own generator seeded by
(master seed, tree index), so a tree depends only on the data, the
config and its own index, not on how many trees are grown.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .answers import AgreementLabel, is_disagreement
from .errors import (
    DimensionMismatch,
    EmptyNode,
    EmptyTrainingSet,
    FormatVersionMismatch,
)
from .features import FeatureMode, Vocabularies, feature_dimension

MODEL_FORMAT = "crowd-consensus-forest"
MODEL_VERSION = 1


def gini_impurity(class_counts: Sequence[int]) -> float:
    """1 - sum(p_i^2) over the two classes of a count pair."""
    n0, n1 = class_counts
    if n0 < 0 or n1 < 0:
        raise ValueError(f"class counts must be non-negative, got {class_counts}")
    total = n0 + n1
    if total == 0:
        raise EmptyNode("impurity is undefined for an empty node")
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


@dataclass(frozen=True)
class ForestConfig:
    """Training knobs; n_trees stays odd so majority votes cannot tie."""

    n_trees: int = 25
    features_per_split: int | None = None  # None -> ceil(sqrt(d)) at fit time
    min_leaf_size: int = 1
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.n_trees % 2 == 0:
            raise ValueError(f"n_trees must be odd and >= 1, got {self.n_trees}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Flattened tree arrays; feature[i] == -1 marks node i as a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    votes_disagreement: np.ndarray  # int64, leaf-only
    votes_total: np.ndarray  # int64, leaf-only

    def vote(self, x: np.ndarray) -> int:
        """1 if this tree's leaf for x is majority (or tied) disagreement."""
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        # Leaf ties vote disagreement: over-collecting answers is the safe error.
        return int(2 * self.votes_disagreement[node] >= self.votes_total[node])

    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Trained ensemble plus everything needed to reproduce its inputs."""

    trees: tuple[DecisionTree, ...]
    config: ForestConfig
    n_features: int
    feature_mode: FeatureMode = FeatureMode.QI
    layout: str = "truncated"
    vocab: Vocabularies | None = None


@dataclass(frozen=True)
class Prediction:
    label: AgreementLabel
    p_disagreement: float


def train_forest(
    X,
    y,
    config: ForestConfig,
    *,
    vocab: Vocabularies | None = None,
    feature_mode: FeatureMode = FeatureMode.QI,
    layout: str = "truncated",
) -> ForestModel:
    """Fit the ensemble.

    X is an (n, d) matrix (or sequence of d-vectors); y holds
    AgreementLabel values (or anything truthy for disagreement). Each tree
    draws its own bootstrap sample of size n. Given identical data and
    config the result is identical.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-dimensional, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise EmptyTrainingSet(f"need at least 2 training examples, got {n}")
    if len(y) != n:
        raise DimensionMismatch(f"got {n} feature rows but {len(y)} labels")
    y01 = is_disagreement(y).astype(np.uint8)
    if config.features_per_split is not None and config.features_per_split > d:
        raise DimensionMismatch(
            f"features_per_split={config.features_per_split} exceeds {d} features"
        )
    if vocab is not None:
        expected = feature_dimension(vocab, feature_mode, layout)
        if expected != d:
            raise DimensionMismatch(
                f"vocabularies imply {expected} features but X has {d}"
            )
    k = config.features_per_split or max(1, math.ceil(math.sqrt(d)))

    trees = tuple(
        _grow_tree(X, y01, config, np.random.default_rng([config.seed, t]), k)
        for t in range(config.n_trees)
    )
    return ForestModel(
        trees=trees,
        config=config,
        n_features=d,
        feature_mode=feature_mode,
        layout=layout,
        vocab=vocab,
    )


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    config: ForestConfig,
    rng: np.random.Generator,
    features_per_split: int,
) -> DecisionTree:
    n, d = X.shape
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
    stack: list[tuple[int, np.ndarray, int]] = [(root, bootstrap, 0)]
    while stack:
        node, idx, depth = stack.pop()
        ysub = y[idx]
        n_pos = int(ysub.sum())
        pure = n_pos == 0 or n_pos == len(idx)
        at_depth = config.max_depth is not None and depth >= config.max_depth
        too_small = len(idx) < 2 * config.min_leaf_size
        split = None
        if not (pure or at_depth or too_small):
            feat_ids = rng.choice(d, size=features_per_split, replace=False)
            split = _best_split(X, ysub, idx, feat_ids, config.min_leaf_size)
        if split is None:
            votes_d[node] = n_pos
            votes_n[node] = len(idx)
            continue
        f, thr = split
        goes_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~goes_left], depth + 1))
        stack.append((left_id, idx[goes_left], depth + 1))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        votes_disagreement=np.asarray(votes_d, dtype=np.int64),
        votes_total=np.asarray(votes_n, dtype=np.int64),
    )


def _best_split(
    X: np.ndarray,
    ysub: np.ndarray,
    idx: np.ndarray,
    feat_ids: np.ndarray,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Strictly impurity-reducing (feature, threshold), or None.

    Ties are broken toward the earliest feature in feat_ids and, within a
    feature, the lowest threshold.
    """
    m = len(ysub)
    total1 = int(ysub.sum())
    parent = gini_impurity((m - total1, total1))
    best_gain = 0.0
    best: tuple[int, float] | None = None
    for f in feat_ids:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        cum1 = np.cumsum(ysub[order])
        cut = np.nonzero(sv[:-1] != sv[1:])[0]  # split between cut and cut+1
        if cut.size == 0:
            continue
        nl = cut + 1
        nr = m - nl
        if min_leaf > 1:
            ok = (nl >= min_leaf) & (nr >= min_leaf)
            if not ok.any():
                continue
            cut, nl, nr = cut[ok], nl[ok], nr[ok]
        l1 = cum1[cut]
        r1 = total1 - l1
        gini_l = 1.0 - (((nl - l1) / nl) ** 2 + (l1 / nl) ** 2)
        gini_r = 1.0 - (((nr - r1) / nr) ** 2 + (r1 / nr) ** 2)
        gain = parent - (nl * gini_l + nr * gini_r) / m
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            lo, hi = sv[cut[j]], sv[cut[j] + 1]
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:  # midpoint rounded up between adjacent floats
                thr = lo
            best_gain = float(gain[j])
            best = (int(f), float(thr))
    return best


def predict(model: ForestModel, x) -> Prediction:
    """Majority vote over the ensemble with vote-share confidence."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} features, got shape {x.shape}"
        )
    votes = sum(tree.vote(x) for tree in model.trees)
    p = votes / model.config.n_trees
    label = (
        AgreementLabel.DISAGREEMENT if p > 0.5 else AgreementLabel.AGREEMENT
    )
    return Prediction(label=label, p_disagreement=p)


def predict_many(model: ForestModel, X) -> list[Prediction]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects (n, {model.n_features}) features, got shape {X.shape}"
        )
    return [predict(model, row) for row in X]


def save_model(model: ForestModel, path: str | Path) -> None:
    """Write a self-describing, versioned JSON model file."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(model.config),
        "n_features": model.n_features,
        "feature_mode": model.feature_mode.value,
        "layout": model.layout,
        "vocab": None
        if model.vocab is None
        else {
            "first": list(model.vocab.first_words),
            "second": list(model.vocab.second_words),
            "built_from": model.vocab.built_from,
        },
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "votes_disagreement": tree.votes_disagreement.tolist(),
                "votes_total": tree.votes_total.tolist(),
            }
            for tree in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> ForestModel:
    """Read a model file; predictions round-trip bit-exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatVersionMismatch(f"{path}: not a model file ({exc})") from exc
    try:
        if doc["format"] != MODEL_FORMAT or doc["version"] != MODEL_VERSION:
            raise FormatVersionMismatch(
                f"{path}: found {doc.get('format')!r} v{doc.get('version')!r}, "
                f"expected {MODEL_FORMAT!r} v{MODEL_VERSION}"
            )
        vocab = None
        if doc["vocab"] is not None:
            vocab = Vocabularies(
                first_words=tuple(doc["vocab"]["first"]),
                second_words=tuple(doc["vocab"]["second"]),
                built_from=doc["vocab"].get("built_from", ""),
            )
        trees = tuple(
            DecisionTree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                votes_disagreement=np.asarray(t["votes_disagreement"], dtype=np.int64),
                votes_total=np.asarray(t["votes_total"], dtype=np.int64),
            )
            for t in doc["trees"]
        )
        return ForestModel(
            trees=trees,
            config=ForestConfig(**doc["config"]),
            n_features=int(doc["n_features"]),
            feature_mode=FeatureMode(doc["feature_mode"]),
            layout=doc["layout"],
            vocab=vocab,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatVersionMismatch(f"{path}: malformed model file ({exc})") from exc
