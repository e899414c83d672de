"""The chain-scale golden: the pipeline on a corpus whose trees hold long one-hot chains.

The 40-row golden's trees have 7 nodes and no chain of one-hot splits, so
rewrites of split search or traversal can pass it while changing bytes.
Here bench/corpora.py's Zipf-vocabulary recipe, zipf_splits(7, 4000, 2000),
gives 4,000 training questions and 742 feature columns, 736 of them
one-hot; 25 trees grown with --mode qi --seed 7 average 524 nodes. The
inputs are generated in the test, not checked in: data/chain/SHA256SUMS
pins the sha256 of every input, so drift in the generator shows as such,
and of every byte-stable output but report.json, whose AP goes through
np.sum and can differ by an ulp between numpy versions. CI checks the
same sums with `sha256sum -c` after running the commands through the
console script; write_inputs writes its inputs:

    python -c "import sys; sys.path.insert(0, 'tests'); import test_chain_golden as g; g.write_inputs('.')"
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from crowd_consensus import load_corpus, load_image_features, load_model
from crowd_consensus.cli import main
from crowd_consensus.features import extract_matrix
from crowd_consensus.forest import predict_many

from conftest import reference_predict

TESTS = Path(__file__).resolve().parent
SUMS = TESTS / "data" / "chain" / "SHA256SUMS"
GOLDEN = TESTS / "data" / "golden"

SEED, N_TRAIN, N_EVAL = 7, 4000, 2000


def write_inputs(directory) -> None:
    """The chain-scale inputs, as bench/corpora.py writes a VQA-JSON workload's."""
    sys.path.insert(0, str(TESTS.parent / "bench"))
    try:
        from corpora import write_saliency, write_vqa_json, zipf_splits
    finally:
        sys.path.remove(str(TESTS.parent / "bench"))
    directory = Path(directory)
    splits = dict(zip(("train", "eval"), zipf_splits(SEED, N_TRAIN, N_EVAL)))
    for split, records in splits.items():
        write_vqa_json({"corpus": directory / f"{split}_questions.json",
                        "annotations": directory / f"{split}_annotations.json"}, records)
    images = sorted({r["image_id"] for records in splits.values() for r in records})
    write_saliency(directory / "saliency.csv", images, np.random.default_rng([SEED, 2]))


def corpus_flags(d: Path, split: str) -> list[str]:
    return ["--corpus", str(d / f"{split}_questions.json"),
            "--annotations", str(d / f"{split}_annotations.json"),
            "--format", "vqa_v1_json", "--image-features", str(d / "saliency.csv")]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The directory holding the inputs and every command's outputs."""
    d = tmp_path_factory.mktemp("chain")
    write_inputs(d)
    out = ["--out-dir", str(d)]
    assert main(["train", *corpus_flags(d, "train"), "--mode", "qi", "--trees", "25",
                 "--seed", str(SEED), *out]) == 0
    evaluated = [*corpus_flags(d, "eval"), "--model", str(d / "model.json"), *out]
    for command in (["predict"], ["eval"], ["allocate", "--budget", "1000"], ["sweep"]):
        assert main([*command, *evaluated]) == 0
    return d


def pinned() -> dict[str, str]:
    """File name -> sha256 hex digest, read from the sha256sum-format SUMS."""
    return {name: digest for digest, name in map(str.split, SUMS.read_text().splitlines())}


@pytest.mark.parametrize("name", pinned())
def test_chain_files_match_their_pinned_sha256(chain, name):
    # A changed input is drift in bench/corpora.py's generator, not in the program.
    assert hashlib.sha256((chain / name).read_bytes()).hexdigest() == pinned()[name]


def _chain_model(chain):
    """The chain-scale model and its held-out feature matrix."""
    model = load_model(chain / "model.json")
    corpus = load_corpus(chain / "eval_questions.json", chain / "eval_annotations.json",
                         "vqa_v1_json")
    table = load_image_features(chain / "saliency.csv")
    return model, extract_matrix(corpus, model.vocab, table, model.feature_mode)


def test_chain_trees_hold_long_one_hot_chains(chain):
    # The reason for this golden: paths that split on word after word.
    model, X = _chain_model(chain)
    one_hot = (X.source[:, 1] >= 0).tolist()
    assert np.mean([t.feature.size for t in model.trees]) > 400
    assert max(_longest_one_hot_run(t, one_hot) for t in model.trees) >= 30


def _longest_one_hot_run(tree, one_hot) -> int:
    """The most one-hot splits in a row on any root-to-leaf path."""
    longest, stack = 0, [(0, 0)]
    while stack:
        node, run = stack.pop()
        f = int(tree.feature[node])
        if f >= 0:
            run = run + 1 if one_hot[f] else 0
            longest = max(longest, run)
            stack += [(int(tree.left[node]), run), (int(tree.right[node]), run)]
    return longest


def test_predict_many_matches_the_reference_walk_on_the_chain_model(chain):
    model, X = _chain_model(chain)
    assert predict_many(model, X).tobytes() == reference_predict(model, X).tobytes()


def test_predict_many_matches_the_reference_walk_on_the_golden_model():
    model = load_model(GOLDEN / "model.json")
    X = extract_matrix(load_corpus(GOLDEN / "corpus.jsonl"), model.vocab, None, model.feature_mode)
    assert predict_many(model, X).tobytes() == reference_predict(model, X).tobytes()
