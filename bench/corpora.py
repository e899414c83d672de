"""Write one workload's input files from a seed.

    python3 bench/corpora.py WORKLOAD SEED INPUT_DIR [--smoke]

run.py runs this as a child process and times it as setup_s. The planted
workloads split one `make_planted_corpus` draw into train and held-out
halves; the Zipf-vocabulary corpus is generated here (see make_zipf_split).

Every answer written is a fixed point of the program's answer
normalization: lowercase letters and digits only, and never an article or
a number word. Question texts are lowercase words separated by single
spaces. checks.py relies on both, so it can count pools and vocabularies
from the files without calling the program; this script refuses to write
inputs that break them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crowd_consensus import make_planted_corpus  # noqa: E402

from workloads import (  # noqa: E402
    ANSWERS_PER_QUESTION,
    WORKLOADS,
    Workload,
    corpus_files,
    saliency_file,
)

# Zipf-vocabulary recipe: first word f{zipf(1.6) % 800}, second word
# s{zipf(1.4) % 2500}; the label is first_id % 3 == 0 with a share flipped.
ZIPF_FIRST = (1.6, 800)
ZIPF_SECOND = (1.4, 2500)
LABEL_FLIP = 0.25
ANSWER_TYPE_SHARES = {"yes/no": 0.38, "number": 0.12, "other": 0.50}
# Disagreement pools: occurrence counts of distinct answers, modal <= 4.
DISAGREE_SHAPES = ((2, 2, 2, 2, 2), (3, 3, 2, 2), (4, 3, 3), (2, 2, 2, 1, 1, 1, 1))
ANSWER_BANK = tuple(f"w{k}" for k in range(300))
QUESTIONS_PER_IMAGE = 3

_FIXED_POINT = re.compile(r"[a-z0-9]+")
_TEXT = re.compile(r"[a-z0-9]+( [a-z0-9]+)*")
_NOT_FIXED = frozenset(
    "a an the zero one two three four five six seven eight nine ten".split()
)


def make_zipf_split(rng: np.random.Generator, n: int, first_qid: int, first_image: int):
    """n question records (dicts) of the Zipf-vocabulary corpus.

    Disagreement questions get pools with several repeated answers
    (modal count <= 4); agreement questions get one answer covering all
    ten slots or nine of them. Questions come in groups of three per image.
    """
    first = rng.zipf(ZIPF_FIRST[0], n) % ZIPF_FIRST[1]
    second = rng.zipf(ZIPF_SECOND[0], n) % ZIPF_SECOND[1]
    tails = rng.integers(0, 4, n)
    disagree = (first % 3 == 0) ^ (rng.random(n) < LABEL_FLIP)
    types = list(ANSWER_TYPE_SHARES)
    type_ids = rng.choice(len(types), size=n, p=list(ANSWER_TYPE_SHARES.values()))
    records = []
    for i in range(n):
        words = [f"f{first[i]}", f"s{second[i]}"] + [f"t{k}" for k in range(tails[i])]
        if disagree[i]:
            shape = DISAGREE_SHAPES[int(rng.integers(len(DISAGREE_SHAPES)))]
            picks = rng.choice(len(ANSWER_BANK), size=len(shape), replace=False)
            pool = [ANSWER_BANK[w] for w, count in zip(picks, shape) for _ in range(count)]
        else:
            picks = rng.choice(len(ANSWER_BANK), size=2, replace=False)
            pool = [ANSWER_BANK[picks[0]]] * ANSWERS_PER_QUESTION
            if rng.random() < 0.4:
                pool[0] = ANSWER_BANK[picks[1]]
        pool = [pool[j] for j in rng.permutation(ANSWERS_PER_QUESTION)]
        records.append(
            {
                "question_id": first_qid + i,
                "image_id": first_image + i // QUESTIONS_PER_IMAGE,
                "question": " ".join(words),
                "answers": pool,
                "answer_type": types[type_ids[i]],
            }
        )
    return records


def zipf_splits(seed: int, n_train: int, n_eval: int):
    rng = np.random.default_rng(seed)
    train = make_zipf_split(rng, n_train, 0, 0)
    eval_images = -(-n_train // QUESTIONS_PER_IMAGE)
    held_out = make_zipf_split(rng, n_eval, n_train, eval_images)
    return train, held_out


def planted_splits(seed: int, n_train: int, n_eval: int):
    corpus = make_planted_corpus(n_train + n_eval, seed=seed)
    records = [
        {
            "question_id": vq.question_id,
            "image_id": vq.image_id,
            "question": vq.question_text,
            "answers": list(vq.raw_answers),
            "answer_type": vq.answer_type,
        }
        for vq in corpus
    ]
    order = np.random.default_rng([seed, 1]).permutation(len(records))
    train = sorted(order[:n_train])
    held_out = sorted(order[n_train:])
    return [records[i] for i in train], [records[i] for i in held_out]


def check_fixed_points(records) -> None:
    for rec in records:
        if not _TEXT.fullmatch(rec["question"]):
            raise SystemExit(f"question {rec['question_id']}: text {rec['question']!r}")
        for ans in rec["answers"]:
            if not _FIXED_POINT.fullmatch(ans) or ans in _NOT_FIXED:
                raise SystemExit(f"question {rec['question_id']}: answer {ans!r}")


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_vqa_json(files: dict[str, Path], records) -> None:
    questions = [
        {"question_id": r["question_id"], "image_id": r["image_id"], "question": r["question"]}
        for r in records
    ]
    annotations = [
        {
            "question_id": r["question_id"],
            "image_id": r["image_id"],
            "answer_type": r["answer_type"],
            "answers": [{"answer": a, "answer_id": j + 1} for j, a in enumerate(r["answers"])],
        }
        for r in records
    ]
    with open(files["corpus"], "w", encoding="utf-8") as fh:
        json.dump({"questions": questions}, fh)
    with open(files["annotations"], "w", encoding="utf-8") as fh:
        json.dump({"annotations": annotations}, fh)


def write_saliency(path: Path, image_ids, rng: np.random.Generator) -> None:
    """One Dirichlet(1, ..., 1) row of five probabilities per image."""
    rows = rng.dirichlet(np.ones(5), size=len(image_ids)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("image_id,p0,p1,p2,p3,p4\n")
        for image_id, row in zip(image_ids, rows):
            fh.write(f"{image_id}," + ",".join(repr(p) for p in row) + "\n")


def write_inputs(w: Workload, seed: int, inputs: Path, smoke: bool) -> None:
    n_train, n_eval = w.sizes(smoke)
    make = zipf_splits if w.generator == "zipf" else planted_splits
    splits = dict(zip(("train", "eval"), make(seed, n_train, n_eval)))
    inputs.mkdir(parents=True, exist_ok=True)
    for split, records in splits.items():
        check_fixed_points(records)
        files = corpus_files(w, inputs, split)
        if w.vqa_json:
            write_vqa_json(files, records)
        else:
            write_jsonl(files["corpus"], records)
    images = sorted({r["image_id"] for records in splits.values() for r in records})
    write_saliency(saliency_file(inputs), images, np.random.default_rng([seed, 2]))


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--smoke"):
        print(__doc__, file=sys.stderr)
        return 2
    write_inputs(WORKLOADS[argv[0]], int(argv[1]), Path(argv[2]), len(argv) == 4)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
