import contextlib
import copy
import gc
import json
import math
import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from crowd_consensus import (
    AgreementLabel,
    DecisionTree,
    FeatureMode,
    ForestConfig,
    ForestModel,
    Vocabularies,
    build_vocabularies,
    extract_matrix,
    load_model,
    make_planted_corpus,
    predict_many,
    save_corpus_jsonl,
    save_model,
    train_forest,
)
from crowd_consensus.cli import main
from crowd_consensus.errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    FormatVersionMismatch,
)
from crowd_consensus import forest
from crowd_consensus.features import SALIENCY_DIM, FeatureMatrix
from crowd_consensus.forest import WorkerFailed, _best_split, _grow_forest

A, D = AgreementLabel.AGREEMENT, AgreementLabel.DISAGREEMENT


def test_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=24)  # even votes could tie
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(seed=-1)
    with pytest.raises(TypeError):
        ForestConfig(max_depth=None)  # trees always grow until pure
    ForestConfig(n_trees=25, seed=0)  # defaults are valid


def separable_data(n=100, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    x = x[np.abs(x) > 0.05]
    X = x.reshape(-1, 1)
    y = [D if value > 0 else A for value in x]
    return X, y


def test_separable_training_accuracy():
    X, y = separable_data()
    model = train_forest(X, y, ForestConfig(seed=1))
    scores = predict_many(model, X)
    assert ((scores > 0.5) == [label is D for label in y]).all()


def test_separable_held_out():
    X, y = separable_data()
    model = train_forest(X, y, ForestConfig(seed=1))
    low, high = predict_many(model, [[-0.5], [0.5]])
    assert low <= 0.1 and high >= 0.9


def test_single_class_training():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    model = train_forest(X, [A] * 20, ForestConfig(seed=1))
    assert predict_many(model, X).tolist() == [0.0] * 20


def test_seed_determinism():
    X, y = separable_data(seed=5)
    first = train_forest(X, y, ForestConfig(seed=42))
    second = train_forest(X, y, ForestConfig(seed=42))
    probe = np.random.default_rng(0).uniform(-1, 1, size=(50, 1))
    assert predict_many(first, probe).tolist() == predict_many(second, probe).tolist()


def test_tree_depends_only_on_seed_and_index(tmp_path):
    X, y = separable_data(n=200, seed=9)
    trees = {}
    for n_trees in (3, 5):
        path = tmp_path / f"forest{n_trees}.json"
        save_model(train_forest(X, y, ForestConfig(n_trees=n_trees, seed=7)), path)
        trees[n_trees] = json.loads(path.read_text())["trees"]
    assert json.dumps(trees[3]) == json.dumps(trees[5][:3])


def test_vote_quantization_and_label_coherence():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 3))
    y = [D if row[0] + 0.3 * row[1] > 0 else A for row in X]
    model = train_forest(X, y, ForestConfig(seed=2))
    T = model.config.n_trees
    probe = rng.normal(size=(40, 3))
    scores = predict_many(model, probe)
    assert scores.dtype == np.float64 and scores.shape == (40,)
    for row, p in zip(probe, scores.tolist()):
        votes = p * T
        assert votes == pytest.approx(round(votes), abs=1e-12)
        assert 0.0 <= p <= 1.0
        assert predict_many(model, row[None, :]).tolist() == [p]


def test_each_tree_fits_its_own_bootstrap():
    # Continuous features make duplicate rows (and label conflicts) impossible,
    # so an unpruned tree must reproduce its bootstrap sample exactly.
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    y01 = (rng.random(60) < 0.5).astype(int)
    model = train_forest(X, y01, ForestConfig(n_trees=5, seed=31))
    n = len(X)
    for t, tree in enumerate(model.trees):
        boot = np.random.default_rng([31, t]).integers(0, n, size=n)
        votes = predict_many(_one_tree_model(tree, 4), X[boot]).tolist()
        assert votes == y01[boot].tolist()


def _leaf_tree(votes_disagreement, votes_total):
    return DecisionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        votes_disagreement=np.array([votes_disagreement], dtype=np.int64),
        votes_total=np.array([votes_total], dtype=np.int64),
    )


def _hand_model(trees):
    return ForestModel(trees=tuple(trees), config=ForestConfig(n_trees=len(trees)),
                       n_features=1)


def _one_tree_model(tree, n_features):
    return ForestModel(trees=(tree,), config=ForestConfig(n_trees=1), n_features=n_features)


def test_leaf_tie_votes_disagreement():
    assert predict_many(_one_tree_model(_leaf_tree(1, 2), 1), [[0.0]]).tolist() == [1.0]


def test_vote_share_arithmetic():
    model = _hand_model([_leaf_tree(1, 1)] * 20 + [_leaf_tree(0, 1)] * 5)
    assert predict_many(model, [[0.0]]).tolist() == [0.8]

    model = _hand_model([_leaf_tree(0, 1)] * 25)
    assert predict_many(model, [[0.0]]).tolist() == [0.0]


def test_label_forms_grow_identical_trees(tmp_path):
    X, y = separable_data(n=120, seed=11)
    as_bool = np.array([label is D for label in y])
    written = []
    for labels in (y, as_bool, as_bool.astype(int).tolist()):
        path = tmp_path / f"model{len(written)}.json"
        save_model(train_forest(X, labels, ForestConfig(n_trees=5, seed=4)), path)
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]


def test_training_set_errors():
    with pytest.raises(EmptyTrainingSet):
        train_forest(np.empty((0, 2)), [], ForestConfig())
    with pytest.raises(EmptyTrainingSet):
        train_forest(np.empty((0, 2)), np.array([], dtype=bool), ForestConfig())
    with pytest.raises(EmptyTrainingSet):
        train_forest([[1.0]], [A], ForestConfig())
    with pytest.raises(DimensionMismatch):
        train_forest([[1.0], [2.0]], [A], ForestConfig())
    for labels in (["agreement", "disagreement"], [0.0, 1.0], [0, 2]):
        with pytest.raises(ValueError, match="labels"):
            train_forest([[1.0], [2.0]], labels, ForestConfig())


def test_vocab_dimension_check():
    vocab = Vocabularies(first_words=("what",), second_words=("is",))
    X = np.zeros((4, 9))  # vocab implies 1 + 1 + 1 + 5 = 8
    with pytest.raises(DimensionMismatch):
        train_forest(X, [A, D, A, D], ForestConfig(), vocab=vocab)


def test_predict_dimension_check():
    X, y = separable_data()
    model = train_forest(X, y, ForestConfig(seed=1))
    with pytest.raises(DimensionMismatch):
        predict_many(model, [[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        predict_many(model, [1.0])  # one row must still be 2-dimensional


def test_save_load_round_trip(tmp_path):
    X, y = separable_data(n=150, seed=13)
    model = train_forest(X, y, ForestConfig(seed=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    probe = np.random.default_rng(17).uniform(-2, 2, size=(1000, 1))
    assert predict_many(model, probe).tolist() == predict_many(restored, probe).tolist()
    assert restored.config == model.config


GOLDEN = Path(__file__).parent / "data" / "golden"


def test_golden_model_file_round_trips_and_predicts(tmp_path):
    # Written by `train --mode q --trees 3` (seed 0) on make_planted_corpus(40, seed=1),
    # then `predict`; the files pin the model format and prediction byte for byte.
    path = tmp_path / "model.json"
    save_model(load_model(GOLDEN / "model.json"), path)
    assert path.read_bytes() == (GOLDEN / "model.json").read_bytes()
    assert main(["predict", "--corpus", str(GOLDEN / "corpus.jsonl"),
                 "--model", str(GOLDEN / "model.json"), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "predictions.csv").read_bytes() == (
        GOLDEN / "predictions.csv"
    ).read_bytes()


def test_golden_model_is_retrained_byte_for_byte(tmp_path):
    assert main(["train", "--corpus", str(GOLDEN / "corpus.jsonl"), "--mode", "q",
                 "--trees", "3", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "model.json").read_bytes() == (GOLDEN / "model.json").read_bytes()


def test_load_rejects_corrupted_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(FormatVersionMismatch):
        load_model(path)

    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(FormatVersionMismatch):
        load_model(path)

    path.write_text(json.dumps({"format": "crowd-consensus-forest", "version": 99}))
    with pytest.raises(FormatVersionMismatch):
        load_model(path)


def test_unparsable_model_file_exits_two(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(make_planted_corpus(40, seed=3), corpus_path)
    path = tmp_path / "model.json"
    for content in (b"[" * 200_000, b'{"format": "\xff"}', b"1" * 5000):
        path.write_bytes(content)
        with pytest.raises(FormatVersionMismatch):
            load_model(path)
        assert main(["eval", "--corpus", str(corpus_path), "--model", str(path),
                     "--out-dir", str(tmp_path)]) == 2


def test_load_empty_path_is_io_error():
    with pytest.raises(OSError):
        load_model("")


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    """A small trained model file's JSON document; every tree's root splits."""
    corpus = make_planted_corpus(200, seed=1)
    vocab = build_vocabularies(corpus)
    X = extract_matrix(corpus, vocab, mode=FeatureMode.Q)
    model = train_forest(X, corpus.answer_table.labels(), ForestConfig(n_trees=3, seed=2),
                         vocab=vocab, feature_mode=FeatureMode.Q)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert all(t["feature"][0] >= 0 for t in doc["trees"])
    return doc


def _corrupted(tmp_path, doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def _first_leaf(tree):
    return tree["feature"].index(-1)


def _set(key, value, node=0):
    def edit(doc):
        doc["trees"][0][key][node] = value
    return edit


def _as_string(words):
    """A string of len(words) distinct characters: only its type is wrong."""
    return "".join(chr(0x4E00 + i) for i in range(len(words)))


def _set_leaf(key, value):
    def edit(doc):
        tree = doc["trees"][0]
        tree[key][_first_leaf(tree)] = value
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: doc["trees"][0]["threshold"].pop(), id="array-lengths-differ"),
    pytest.param(lambda doc: [doc["trees"][0][k].clear() for k in doc["trees"][0]], id="empty-tree"),
    pytest.param(_set("left", 0), id="child-loop"),
    pytest.param(_set("right", -1), id="child-before-parent"),
    pytest.param(lambda doc: _set("right", len(doc["trees"][0]["right"]))(doc),
                 id="child-out-of-range"),
    pytest.param(_set("feature", 10**6), id="feature-too-large"),
    pytest.param(_set("feature", -2), id="feature-negative"),
    pytest.param(_set("feature", 1.5), id="feature-not-integer"),
    pytest.param(_set("threshold", float("nan")), id="threshold-nan"),
    pytest.param(_set("threshold", float("inf")), id="threshold-infinite"),
    pytest.param(_set_leaf("votes_disagreement", -1), id="leaf-votes-negative"),
    pytest.param(lambda doc: _set_leaf("votes_disagreement", _leaf_total(doc) + 1)(doc),
                 id="leaf-votes-exceed-total"),
    pytest.param(_set_leaf("votes_total", 0), id="leaf-total-zero"),
    pytest.param(lambda doc: doc.update(n_features=doc["n_features"] + 1),
                 id="n-features-disagree-with-vocab"),
    pytest.param(lambda doc: doc.update(n_features=0), id="n-features-zero"),
    pytest.param(lambda doc: doc["trees"].pop(), id="tree-count-disagrees-with-config"),
    pytest.param(lambda doc: doc["vocab"]["first"].__setitem__(1, doc["vocab"]["first"][0]),
                 id="vocab-word-repeated"),
    pytest.param(lambda doc: doc["vocab"]["second"].__setitem__(0, 7), id="vocab-word-not-string"),
    pytest.param(lambda doc: doc["vocab"].update(first=["what", "what"]),
                 id="vocab-first-repeated"),
    pytest.param(lambda doc: doc["vocab"].update(first=["what", 7]), id="vocab-first-not-string"),
    pytest.param(lambda doc: doc["vocab"].update(first=_as_string(doc["vocab"]["first"])),
                 id="vocab-first-is-string"),
    pytest.param(lambda doc: doc["vocab"].update(built_from={"corpus": "x"}),
                 id="vocab-built-from-object"),
    pytest.param(lambda doc: doc["config"].update(n_trees=3.0), id="config-n-trees-float"),
    pytest.param(lambda doc: doc["config"].update(seed=True), id="config-seed-bool"),
    pytest.param(lambda doc: doc["config"].update(min_leaf_size=1.5),
                 id="config-min-leaf-size-float"),
    pytest.param(lambda doc: doc["config"].update(max_depth=2.0), id="config-max-depth-float"),
    pytest.param(lambda doc: doc["config"].update(features_per_split=True),
                 id="config-features-per-split-bool"),
    pytest.param(lambda doc: doc["config"].update(min_leaf_size=3), id="config-min-leaf-size-3"),
    pytest.param(lambda doc: doc["config"].update(max_depth=5), id="config-max-depth-5"),
    pytest.param(lambda doc: doc["config"].update(features_per_split=4),
                 id="config-features-per-split-4"),
    pytest.param(lambda doc: doc["config"].pop("max_depth"), id="config-max-depth-missing"),
    pytest.param(lambda doc: doc.update(layout="zeroed"), id="layout-zeroed"),
    pytest.param(lambda doc: doc.update(layout="padded"), id="layout-padded"),
])
def test_load_rejects_inconsistent_model(tmp_path, model_doc, edit):
    with pytest.raises(FormatVersionMismatch):
        load_model(_corrupted(tmp_path, model_doc, edit))


def _leaf_total(doc):
    tree = doc["trees"][0]
    return tree["votes_total"][_first_leaf(tree)]


@pytest.mark.parametrize("edit", [
    _set("left", 0), _set("feature", 10**6), _set("threshold", float("nan")),
    lambda doc: doc.update(layout="zeroed"), lambda doc: doc.update(layout="padded"),
], ids=["child-loop", "feature-too-large", "threshold-nan", "layout-zeroed", "layout-padded"])
def test_cli_rejects_inconsistent_model(tmp_path, model_doc, edit, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(make_planted_corpus(40, seed=3), corpus_path)
    model = _corrupted(tmp_path, model_doc, edit)
    code = main(["eval", "--corpus", str(corpus_path), "--model", str(model),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "malformed model file" in capsys.readouterr().err


def test_split_ties_go_to_the_earliest_sampled_feature_and_lowest_cut():
    # Column 0 reads numeric row 0; 1-2 are first words 0-1 (row 1), 3-4
    # second words 0-1 (row 2). Every one-hot column separates the classes
    # perfectly, so they tie.
    X = FeatureMatrix(
        values=np.array([[1.0, 2.0, 3.0, 4.0], [0, 1, 1, 0], [0, 1, 1, 0]]),
        source=np.array([[0, -1], [1, 0], [1, 1], [2, 0], [2, 1]]),
    )
    y = np.array([0, 1, 1, 0], dtype=np.uint8)
    rows = np.arange(4)
    # The numeric column gains less than any one-hot column, so it never wins.
    for feat_ids, expected in (([3, 1, 2, 4], 3), ([2, 4, 1, 3], 2), ([0, 4, 1], 4)):
        f, threshold, goes_left = _best_split(X, y, 2, rows, np.array(feat_ids), 2)
        assert (f, threshold) == (expected, 0.5)
        assert goes_left.tolist() == (np.asarray(X)[:, f] <= 0.5).tolist()
    # On the numeric column the cuts at 1.5 and 3.5 gain the same: the lower wins.
    f, threshold, goes_left = _best_split(X, y, 2, rows, np.array([0]), 2)
    assert (f, threshold, goes_left.tolist()) == (0, 1.5, [True, False, False, False])


def _tree_arrays(trees):
    return [[getattr(t, name).tolist() for name in forest._TREE_ARRAYS] for t in trees]


@pytest.fixture(scope="module")
def training_sets():
    """A dense matrix and a FeatureMatrix with numeric columns and both code blocks."""
    corpus = make_planted_corpus(300, seed=5)
    X = extract_matrix(corpus, build_vocabularies(corpus), mode=FeatureMode.QI)
    assert np.asarray(X)[:, 1:-SALIENCY_DIM].any(axis=0).all() and X.values.shape[0] == 8
    y = corpus.answer_table.labels().astype(np.uint8)
    dense = np.random.default_rng(4).normal(size=(120, 5))
    return {
        "dense": (FeatureMatrix.from_dense(dense), (dense[:, 0] + dense[:, 1] > 0).astype(np.uint8)),
        "encoded": (X, y),
    }


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


def _on_cpus(monkeypatch, cpus):
    """Make train_forest fork for any forest of two trees or more, with this many CPUs."""
    monkeypatch.setattr(forest, "_FORK_COST_S", 0.0)
    monkeypatch.setattr(forest, "_available_cpus", lambda: cpus)


@pytest.fixture
def forks(monkeypatch):
    """A list that counts this process's calls to os.fork from here on."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@needs_fork
@pytest.mark.parametrize("kind", ["dense", "encoded"])
@pytest.mark.parametrize("n_trees", [1, 2, 3, 5])
def test_trees_do_not_depend_on_the_worker_count(training_sets, monkeypatch, forks, kind,
                                                  n_trees):
    X, y = training_sets[kind]
    k = math.ceil(math.sqrt(X.shape[1]))
    _on_cpus(monkeypatch, 1)
    one = _tree_arrays(_grow_forest(X, y, k, 11, n_trees))
    assert len(one) == n_trees and not forks
    for cpus in (2, 3):  # 3 workers for 1 or 2 trees leaves a worker without trees
        _on_cpus(monkeypatch, cpus)
        del forks[:]
        assert _tree_arrays(_grow_forest(X, y, k, 11, n_trees)) == one
        assert len(forks) == min(cpus, n_trees) - 1
    if n_trees % 2:
        for cpus in (1, 2, 3):
            _on_cpus(monkeypatch, cpus)
            model = train_forest(X, y, ForestConfig(n_trees=n_trees, seed=11))
            assert _tree_arrays(model.trees) == one


@needs_fork
def test_a_slow_forest_forks_on_two_cpus(monkeypatch, forks):
    # Trees on 700 rows of noisy labels take about 18 ms each here, so the
    # 12 trees a second process would take save about 200 ms, far above
    # the cost of a fork.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(700, 16))
    y = (X[:, 0] + rng.normal(size=700) > 0).astype(np.uint8)
    monkeypatch.setattr(forest, "_available_cpus", lambda: 2)
    assert len(train_forest(X, y, ForestConfig(n_trees=25)).trees) == 25
    assert len(forks) == 1


@needs_fork
def test_small_forests_and_threaded_callers_grow_in_one_process(monkeypatch, forks):
    X, y = separable_data()
    monkeypatch.setattr(forest, "_available_cpus", lambda: 2)
    train_forest(X, y, ForestConfig(n_trees=25))  # trees of a few nodes
    _on_cpus(monkeypatch, 2)  # from here on any forest of two trees or more would fork
    train_forest(X, y, ForestConfig(n_trees=1))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        train_forest(X, y, ForestConfig(n_trees=3))
    finally:
        release.set()
        thread.join()
    assert not forks
    train_forest(X, y, ForestConfig(n_trees=3))  # the seam does fork without the thread
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("caller_froze", [False, True])
def test_forking_leaves_the_callers_gc_freeze_as_it_was(training_sets, monkeypatch, forks,
                                                         caller_froze):
    X, y = training_sets["dense"]
    _on_cpus(monkeypatch, 2)
    if caller_froze:
        gc.freeze()
    try:
        _grow_forest(X, y, 3, 11, 3)
        assert (gc.get_freeze_count() > 0) == caller_froze
    finally:
        gc.unfreeze()
    assert len(forks) == 1


def _in_workers(monkeypatch, action):
    """Make every tree grown outside this process call action() first."""
    parent, grow = os.getpid(), forest._grow_tree

    def grow_or_fail(*args):
        if os.getpid() != parent:
            action()
        return grow(*args)

    monkeypatch.setattr(forest, "_grow_tree", grow_or_fail)


def _raise():
    raise RuntimeError("worker fault")


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
@pytest.mark.parametrize("action, message", [
    (_raise, r"tree worker 1 \(pid \d+\) exited with status 1"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     rf"tree worker 1 \(pid \d+\) was killed by signal {signal.SIGKILL.value}"),
], ids=["raises", "killed"])
def test_failed_worker_is_an_error_and_leaves_no_process(training_sets, monkeypatch,
                                                          action, message):
    X, y = training_sets["encoded"]
    _in_workers(monkeypatch, action)
    _on_cpus(monkeypatch, 3)
    with _deadline(30), pytest.raises(WorkerFailed, match=message):
        train_forest(X, y, ForestConfig(n_trees=5, seed=1))
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_train_command_exits_three_when_a_worker_fails(tmp_path, monkeypatch, capsys):
    _in_workers(monkeypatch, _raise)
    _on_cpus(monkeypatch, 2)
    with _deadline(30):
        code = main(["train", "--corpus", str(GOLDEN / "corpus.jsonl"), "--mode", "q",
                     "--trees", "3", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "WorkerFailed: tree worker 1" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
