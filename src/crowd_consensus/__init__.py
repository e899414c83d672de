"""Crowd answer-agreement analysis, prediction, and budget allocation.

The toolkit labels visual questions by whether a crowd converges on a
single answer, trains a random-forest classifier to predict that outcome
from question text and image-saliency features, and uses the predictions
to decide how many answers to collect per question under a fixed budget.
"""

from .allocation import (
    AllocationPlan,
    SweepRow,
    make_plan,
    oracle_ranking,
    rank_by_disagreement,
    simulate_collection,
    status_quo_ranking,
    sweep,
)
from .answers import (
    AgreementLabel,
    AgreementRates,
    agreement_by_answer_type,
    agreement_label,
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
    PrCurve,
    average_precision,
    pr_curve,
    stratified_eval,
)
from .features import (
    FeatureMatrix,
    FeatureMode,
    Vocabularies,
    build_vocabularies,
    extract_matrix,
    feature_dimension,
    tokenize_question,
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
from .synthetic import make_planted_corpus, make_random_corpus

__version__ = "0.1.0"

__all__ = [
    "AgreementLabel",
    "AgreementRates",
    "AllocationPlan",
    "Corpus",
    "DecisionTree",
    "EvalReport",
    "FeatureMatrix",
    "FeatureMode",
    "ForestConfig",
    "ForestModel",
    "ImageFeatureTable",
    "PrCurve",
    "SweepRow",
    "VisualQuestion",
    "Vocabularies",
    "agreement_by_answer_type",
    "agreement_label",
    "average_precision",
    "build_vocabularies",
    "diversity_histogram",
    "extract_matrix",
    "feature_dimension",
    "load_corpus",
    "load_image_features",
    "load_model",
    "make_plan",
    "make_planted_corpus",
    "make_random_corpus",
    "normalize_answer",
    "oracle_ranking",
    "pr_curve",
    "predict_many",
    "rank_by_disagreement",
    "save_corpus_jsonl",
    "save_model",
    "simulate_collection",
    "status_quo_ranking",
    "stratified_eval",
    "sweep",
    "tokenize_question",
    "train_forest",
]
