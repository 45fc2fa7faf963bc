"""Sparse discriminative dimensionality reduction.

A manifold-alignment-plus-classification objective with an elastic net
penalty is rewritten as a lasso least-squares problem and solved column
by column with a least angle regression engine, yielding a K-sparse
projection matrix.
"""

from .alignment import Edges, SampleSet, accumulate_alignment, build_patch, build_patches
from .config import MenConfig
from .datasets import ingest, make_face_like, make_informative_classes
from .errors import DataError, MenError, NumericalError
from .evaluation import EvalResult, SplitSpec, evaluate, export_bases, export_paths, nn_classify
from .indicator import IndicatorMatrix, build_indicator, class_centers, weighted_center_pca
from .lars import CoefficientPath, LarsState, solve_column
from .model_io import load_model, model_to_text, save_model
from .pipeline import FitReport, ProjectionMatrix, fit, pca_preprocess, project
from .transform import AugmentedProblem, build_a, build_augmented, spectral_factor

__version__ = "0.1.0"

__all__ = [
    "AugmentedProblem",
    "CoefficientPath",
    "DataError",
    "Edges",
    "EvalResult",
    "FitReport",
    "IndicatorMatrix",
    "LarsState",
    "MenConfig",
    "MenError",
    "NumericalError",
    "ProjectionMatrix",
    "SampleSet",
    "SplitSpec",
    "accumulate_alignment",
    "build_a",
    "build_augmented",
    "build_indicator",
    "build_patch",
    "build_patches",
    "class_centers",
    "evaluate",
    "export_bases",
    "export_paths",
    "fit",
    "ingest",
    "load_model",
    "make_face_like",
    "make_informative_classes",
    "model_to_text",
    "nn_classify",
    "pca_preprocess",
    "project",
    "save_model",
    "solve_column",
    "spectral_factor",
    "weighted_center_pca",
]
