"""A seeded synthetic corpus for desk-scale experiments and benchmarks.

The planted corpus carries a text signal: questions opening with "why"
get diverse answer pools (disagreement), questions opening with "is" get
near-unanimous pools (agreement). A tenth of the questions (_SWAP_SHARE)
has one answer swapped with a question of the opposite class, which
perturbs pools and occasionally flips a label, mimicking careless crowd
responses. Every question holds DEFAULT_ANSWERS_PER_QUESTION (10) answers.
"""

from __future__ import annotations

import numpy as np

from .corpus import DEFAULT_ANSWERS_PER_QUESTION as A, Corpus, VisualQuestion

_SUBJECTS = (
    "sky", "dog", "cat", "car", "tree", "house", "bird", "boat", "shirt",
    "table", "road", "lamp", "chair", "cloud", "river", "phone", "clock",
    "plant", "horse", "train",
)
_WHY_AUX = ("do", "does", "did", "would", "could", "might", "will")
_WHY_TAILS = (
    "look so strange", "seem different", "move like that", "stay there",
    "appear blurry", "face left", "lean over", "sit alone",
)
_IS_DET = ("this", "that", "it", "there")
_IS_TAILS = ("outside", "indoors", "new", "old", "visible", "moving", "clean", "wet")
_AGREE_ANSWERS = ("yes", "no", "2", "3", "blue", "red", "green", "white", "black", "wood")
_DIVERSE_ANSWERS = (
    "amber", "basil", "cedar", "denim", "ember", "fern", "garnet", "hazel",
    "iris", "jade", "kelp", "lilac", "maple", "nickel", "olive", "pearl",
    "quartz", "rust", "sage", "teal", "umber", "violet", "walnut", "yarrow",
    "zinc", "birch", "coral", "dune", "flint", "grove", "heath", "inlet",
    "juniper", "krill", "lotus", "mesa", "nettle", "onyx", "pine", "reef",
)

# Disagreement pool shapes: occurrence counts for each planted answer, summing to A.
_POOL_SHAPES = ((2, 2, 2, 2, 2), (3, 3, 2, 2), (4, 3, 3), (1,) * 10)
_POOL_WEIGHTS = (0.3, 0.3, 0.3, 0.1)

#: Share of questions touched by cross-class single-answer swaps.
_SWAP_SHARE = 0.1


def make_planted_corpus(n_questions: int = 2000, seed: int = 0) -> Corpus:
    """Generate a corpus whose first word predicts crowd (dis)agreement.

    Even-indexed questions start with "why" and hold answer pools with
    several repeated alternatives; odd-indexed questions start with "is"
    and hold pools where one answer covers at least A-1 of the A = 10
    slots. Then _SWAP_SHARE of the questions, in cross-class pairs,
    exchange one answer.
    """
    rng = np.random.default_rng(seed)
    texts: list[str] = []
    pools: list[list[str]] = []
    for i in range(n_questions):
        if i % 2 == 0:
            texts.append(
                "why {} the {} {}".format(
                    _pick(rng, _WHY_AUX), _pick(rng, _SUBJECTS), _pick(rng, _WHY_TAILS)
                )
            )
            shape = _POOL_SHAPES[
                rng.choice(len(_POOL_SHAPES), p=np.asarray(_POOL_WEIGHTS))
            ]
            words = rng.choice(len(_DIVERSE_ANSWERS), size=len(shape), replace=False)
            pool = [
                _DIVERSE_ANSWERS[w] for w, count in zip(words, shape) for _ in range(count)
            ]
        else:
            texts.append(
                "is {} {} {}".format(
                    _pick(rng, _IS_DET), _pick(rng, _SUBJECTS), _pick(rng, _IS_TAILS)
                )
            )
            answer = _pick(rng, _AGREE_ANSWERS)
            pool = [answer] * A
            if rng.random() < 0.4:
                others = [w for w in _AGREE_ANSWERS if w != answer]
                pool[int(rng.integers(A))] = _pick(rng, others)
        order = rng.permutation(A)
        pools.append([pool[j] for j in order])

    _swap_answers(rng, pools, n_questions)

    questions = [
        VisualQuestion(
            question_id=i,
            image_id=i,
            question_text=texts[i],
            raw_answers=tuple(pools[i]),
            answer_type=_answer_type_of(pools[i]),
        )
        for i in range(n_questions)
    ]
    return Corpus.from_questions(questions)


def _swap_answers(rng, pools, n_questions) -> None:
    """Exchange one answer between `_SWAP_SHARE * n / 2` cross-class pairs."""
    n_swaps = round(_SWAP_SHARE * n_questions / 2)
    if n_swaps == 0:
        return
    disagree_ids = np.arange(0, n_questions, 2)
    agree_ids = np.arange(1, n_questions, 2)
    chosen_d = rng.choice(disagree_ids, size=min(n_swaps, len(disagree_ids)), replace=False)
    chosen_a = rng.choice(agree_ids, size=min(n_swaps, len(agree_ids)), replace=False)
    for qd, qa in zip(chosen_d, chosen_a):
        pd, pa = int(rng.integers(A)), int(rng.integers(A))
        pools[qd][pd], pools[qa][pa] = pools[qa][pa], pools[qd][pd]


def _answer_type_of(pool: list[str]) -> str:
    modal = max(dict.fromkeys(pool), key=pool.count)  # ties: first occurrence
    if modal in ("yes", "no"):
        return "yes/no"
    if modal.isdigit():
        return "number"
    return "other"


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]
