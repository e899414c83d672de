"""Crowd answer-agreement analysis, prediction, and budget allocation.

The toolkit labels visual questions by whether a crowd converges on a
single answer, trains a random-forest classifier to predict that outcome
from question text and image-saliency features, and uses the predictions
to decide how many answers to collect per question under a fixed budget.

Importing the package loads none of its modules: a public name imports
its submodule on first use (PEP 562), so `from crowd_consensus import
make_planted_corpus` pays only for what that function needs.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_SUBMODULE = {
    "SweepRow": "allocation",
    "make_plan": "allocation",
    "oracle_ranking": "allocation",
    "rank_by_disagreement": "allocation",
    "status_quo_ranking": "allocation",
    "sweep": "allocation",
    "AgreementRates": "answers",
    "agreement_by_answer_type": "answers",
    "diversity_histogram": "answers",
    "normalize_answer": "answers",
    "Corpus": "corpus",
    "ImageFeatureTable": "corpus",
    "VisualQuestion": "corpus",
    "load_corpus": "corpus",
    "load_image_features": "corpus",
    "save_corpus_jsonl": "corpus",
    "EvalReport": "evalmetrics",
    "stratified_eval": "evalmetrics",
    "FeatureMatrix": "features",
    "FeatureMode": "features",
    "Vocabularies": "features",
    "build_vocabularies": "features",
    "extract_matrix": "features",
    "feature_dimension": "features",
    "DecisionTree": "forest",
    "ForestConfig": "forest",
    "ForestModel": "forest",
    "load_model": "forest",
    "predict_many": "forest",
    "save_model": "forest",
    "train_forest": "forest",
    "make_planted_corpus": "synthetic",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{submodule}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
