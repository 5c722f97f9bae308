"""What the benchmark runs: its workloads and the layers the traced run wraps.

Each workload is a family of synthetic datasets drawn from the workload seed.
A run draws several independent replicate datasets, each with its own oracle,
because the searches' cost depends far more on the trained oracle than on
any one graph: one dataset per run would make every figure swing with the
seed. Why each workload exists is stated in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


# A workload's replicate count is the count for a run of this many seconds;
# a run of --seconds S draws that count scaled by S / NOMINAL_SECONDS.
NOMINAL_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # workloads of one family search the same datasets and oracles
    node_count: int
    subgroups: int
    graphs: int  # graphs per replicate dataset
    replicates: int  # for a run of NOMINAL_SECONDS
    oracle: str  # "knn": SF-KNN trained in setup; "whitebox": the triangle rule
    methods: tuple[str, ...]
    # methods searched on one graph per replicate, the first graph of class 0
    # and of class 1 in turn, in the first subset_replicates replicates (all
    # replicates when None); the other methods search every graph
    subset_methods: tuple[str, ...] = ()
    subset_replicates: int | None = None
    max_iterations: int | None = None  # the CLI's --max-iters


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="knn116-dense",
            family="knn116",
            node_count=116,
            subgroups=1,
            graphs=10,
            replicates=20,
            oracle="knn",
            methods=("tri", "cli", "rcli"),
            subset_methods=("tri",),
            max_iterations=20,
        ),
        Workload(
            name="knn116-refine",
            family="knn116",
            node_count=116,
            subgroups=1,
            graphs=10,
            replicates=32,
            oracle="knn",
            methods=("edg", "dat+bw"),
            subset_methods=("dat+bw",),
            subset_replicates=2,
            max_iterations=20,
        ),
        Workload(
            name="whitebox60-2sg",
            family="whitebox60",
            node_count=60,
            subgroups=2,
            graphs=20,
            replicates=12,
            oracle="whitebox",
            methods=("tri", "cli", "rcli", "dat+bw"),
            subset_methods=("dat+bw",),
        ),
    )
}

RUN, SETUP = "run", "setup"

# (metric name, phase, wrapped functions). A layer's share is taken of the
# time of its phase: the traced set-ups, or the traced searches plus their reports.
LAYERS = (
    ("graph.adjacency_matrix", RUN, ("densecf.graph:adjacency_matrix",)),
    (
        "spectral.positive_laplacian_eigenvalues",
        RUN,
        ("densecf.spectral:positive_laplacian_eigenvalues",),
    ),
    ("spectral.knn_predict", RUN, ("densecf.spectral:knn_predict",)),
    ("graph.triangle_counts", RUN, ("densecf.graph:triangle_counts",)),
    ("graph.maximal_cliques_containing", RUN, ("densecf.graph:maximal_cliques_containing",)),
    ("graph.apply_edits", RUN, ("densecf.graph:apply_edits",)),
    ("graph.triangles_within", RUN, ("densecf.graph:triangles_within",)),
    (
        "graph.single_edge_edit",
        RUN,
        ("densecf.graph:Graph.add_edge", "densecf.graph:Graph.remove_edge"),
    ),
    ("density.triangle_score_lists", RUN, ("densecf.density:triangle_score_lists",)),
    (
        "density.rank_nodes",
        RUN,
        ("densecf.density:rank_nodes", "densecf.density:rank_nodes_regional"),
    ),
    ("density.sparsify_cli", RUN, ("densecf.density:sparsify_cli",)),
    ("density.densify_cli", RUN, ("densecf.density:densify_cli",)),
    (
        "density.search",
        RUN,
        (
            "densecf.density:tri_search",
            "densecf.density:cli_search",
            "densecf.density:rcli_search",
        ),
    ),
    ("data.whitebox_classify", RUN, ("densecf.data:whitebox_classify",)),
    ("baselines.backward_search", RUN, ("densecf.baselines:backward_search",)),
    ("baselines.edg_search", RUN, ("densecf.baselines:edg_search",)),
    ("baselines.dat_search", RUN, ("densecf.baselines:dat_search",)),
    ("runner.run_instance", RUN, ("densecf.runner:run_instance",)),
    ("evaluation.write_records_csv", RUN, ("densecf.evaluation:write_records_csv",)),
    ("evaluation.build_aggregate_report", RUN, ("densecf.evaluation:build_aggregate_report",)),
    ("data.generate_synthetic", SETUP, ("densecf.data:generate_synthetic",)),
    ("data.save_dataset", SETUP, ("densecf.data:save_dataset",)),
    ("data.load_dataset", SETUP, ("densecf.data:load_dataset",)),
    ("spectral.train_sf_knn", SETUP, ("densecf.spectral:train_sf_knn",)),
    ("cli.main", SETUP, ("densecf.cli:main",)),
)

PREDICT_SPAN = "spectral.Oracle.predict"
PREDICT_TARGET = "densecf.spectral:Oracle.predict"
CLASSIFIER_SPAN = "oracle.classifier"
