"""Counterfactual explanations for binary graph classifiers via dense
substructure edits, with the spectral KNN black box, baselines, data
pipeline, and evaluation metrics."""

__version__ = "0.1.0"

from .baselines import (
    InvalidCandidateError,
    backward_search,
    dat_search,
    edg_search,
    refine_with_backward,
)
from .data import (
    DatasetEntry,
    DatasetFormatError,
    GraphDataset,
    PartitionError,
    SyntheticSpec,
    generate_synthetic,
    ingest_correlation_listing,
    load_dataset,
    make_whitebox,
    node_halves,
    save_dataset,
    threshold_correlations,
    whitebox_classify,
)
from .density import (
    CliqueBookkeeping,
    ConfigurationError,
    CounterfactualResult,
    RunOptions,
    cli_search,
    densify_cli,
    rank_nodes,
    rank_nodes_regional,
    rcli_search,
    sparsify_cli,
    tri_search,
    triangle_score_lists,
)
from .evaluation import (
    CoverageError,
    InstanceRecord,
    MethodRunSummary,
    QuartileSummary,
    RegionChangeSummary,
    RegionPartition,
    flip_rate,
    region_change_summary,
    summarize_distribution,
)
from .graph import (
    EditConflictError,
    EditList,
    Graph,
    GraphMismatchError,
    UndefinedRatioError,
    apply_edits,
    edit_distance_ratio,
    eigenvector_centrality,
    maximal_cliques_containing,
    symmetric_difference_distance,
    triangle_counts,
    two_hop_neighborhood,
)
from .runner import METHODS, OracleSpec, run_benchmark, run_method
from .spectral import (
    DegenerateLabelsError,
    Oracle,
    SFKnnModel,
    TrainReport,
    UntrainedModelError,
    knn_predict,
    load_model,
    save_model,
    spectral_features,
    train_sf_knn,
)
