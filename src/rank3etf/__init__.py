"""
Exact-arithmetic construction and certification of the real equiangular
tight frames carried by rank 3 strongly regular graphs.

A primitive SRG(v, k, lambda, mu) embeds on the unit sphere in its
second eigenspace; the Gram matrix of that embedding lives in Q(sqrt(D))
and the ETF property is decidable exactly.  This package builds the
graph families involved, certifies the embeddings and their regular
two-graph descendants, and exposes the results as tables and a CLI.
"""

from .qext import QuadExt
from .matrices import ExactMatrix, mat_mul, mat_rank
from .fields import Field, field
from .quadspaces import QuadraticSpace, standard_space
from .graphs import (
    Graph,
    NotStronglyRegular,
    SrgParams,
    Spectrum,
    srg_params,
    spectrum,
)
from .iso import find_isomorphism
from .families import FAMILY_IDS, build, expected_params, family_info
from .frames import (
    EtfCertificate,
    GramMatrix,
    criteria,
    descendant_gram,
    embedding_gram,
    gram_from_json,
    gram_of_columns,
    gram_to_json,
    naimark,
    verify_etf,
    vo_vectors,
)
from .twographs import (
    NotRegular,
    TwoGraph,
    descendant_at,
    is_regular,
    switching_equivalent,
    two_graph_of,
    two_graph_of_gram,
)
from .tables import (
    EXPERIMENT_IDS,
    CertificationFailure,
    ReportRow,
    generate_table,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "QuadExt", "ExactMatrix", "mat_mul", "mat_rank",
    "Field", "field", "QuadraticSpace", "standard_space",
    "Graph", "NotStronglyRegular", "SrgParams", "Spectrum",
    "srg_params", "spectrum",
    "find_isomorphism",
    "FAMILY_IDS", "build", "expected_params", "family_info",
    "EtfCertificate", "GramMatrix", "criteria", "descendant_gram",
    "embedding_gram", "gram_from_json", "gram_of_columns", "gram_to_json",
    "naimark", "verify_etf", "vo_vectors",
    "NotRegular", "TwoGraph", "descendant_at", "is_regular",
    "switching_equivalent", "two_graph_of", "two_graph_of_gram",
    "EXPERIMENT_IDS", "CertificationFailure", "ReportRow",
    "generate_table", "run_experiment",
]
