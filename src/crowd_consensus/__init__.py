"""Crowd answer-agreement analysis, prediction, and budget allocation.

The toolkit labels visual questions by whether a crowd converges on a
single answer, trains a random-forest classifier to predict that outcome
from question text and image-saliency features, and uses the predictions
to decide how many answers to collect per question under a fixed budget.
"""

from .allocation import (
    SweepRow,
    make_plan,
    oracle_ranking,
    rank_by_disagreement,
    status_quo_ranking,
    sweep,
)
from .answers import (
    AgreementRates,
    agreement_by_answer_type,
    diversity_histogram,
    normalize_answer,
)
from .corpus import (
    Corpus,
    ImageFeatureTable,
    VisualQuestion,
    load_corpus,
    load_image_features,
    save_corpus_jsonl,
)
from .evalmetrics import (
    EvalReport,
    stratified_eval,
)
from .features import (
    FeatureMatrix,
    FeatureMode,
    Vocabularies,
    build_vocabularies,
    extract_matrix,
    feature_dimension,
)
from .forest import (
    DecisionTree,
    ForestConfig,
    ForestModel,
    load_model,
    predict_many,
    save_model,
    train_forest,
)
from .synthetic import make_planted_corpus

__version__ = "0.1.0"

__all__ = [
    "AgreementRates",
    "Corpus",
    "DecisionTree",
    "EvalReport",
    "FeatureMatrix",
    "FeatureMode",
    "ForestConfig",
    "ForestModel",
    "ImageFeatureTable",
    "SweepRow",
    "VisualQuestion",
    "Vocabularies",
    "agreement_by_answer_type",
    "build_vocabularies",
    "diversity_histogram",
    "extract_matrix",
    "feature_dimension",
    "load_corpus",
    "load_image_features",
    "load_model",
    "make_plan",
    "make_planted_corpus",
    "normalize_answer",
    "oracle_ranking",
    "predict_many",
    "rank_by_disagreement",
    "save_corpus_jsonl",
    "save_model",
    "status_quo_ranking",
    "stratified_eval",
    "sweep",
    "train_forest",
]
