"""Bayesian inference over tree-structured (strictly ultrametric) covariances.

The package revolves around an exact correspondence between strictly
ultrametric matrices and rooted leaf-labeled trees with edge lengths: trees
map to matrices through a linear split representation, matrices map back by
recursive block decomposition, and the stratified geodesic geometry of the
tree side (distances, geodesics, means) transports to the matrix side.
Priors over tree shapes, a Gaussian latent-tree likelihood, and two MCMC
kernels (Metropolis-Hastings and boundary-crossing Hamiltonian) complete
the inference stack, with a simulation harness for replicated studies.
"""

from .archive import ArchiveRecord, PosteriorArchive
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    InvalidArgumentError,
    InvalidTreeError,
    NotPositiveDefiniteError,
    TreecovError,
    UltrametricViolationError,
)
from .geometry import (
    GeodesicSupport,
    MeanConfig,
    SupportPair,
    bhv_distance,
    frechet_mean,
    geodesic_point,
    matrix_distance,
    tree_distance,
)
from .model import (
    DataSet,
    SufficientStats,
    gaussian_loglik,
    loglik_gradient,
    sample_gaussian,
    sample_t,
    suff_stats,
)
from .newick import newick_to_tree, tree_to_newick
from .posterior import (
    SummaryReport,
    build_summary,
    coverage,
    credible_intervals,
    map_sample,
    posterior_mean,
    split_frequencies,
)
from .priors import (
    PriorSpec,
    beta_split_log_prior,
    edge_length_log_prior,
    pd_log_prior,
    sample_topology_prior,
    tree_log_prior,
)
from .rng import RngStream
from .samplers import (
    ChainState,
    HmcConfig,
    HmcState,
    MhConfig,
    hmc_leapfrog,
    hmc_step,
    mh_length_update,
    mh_topology_update,
    run_chain,
)
from .sim import Scenario, ScenarioReport, run_scenario, score_point_estimate
from .treespace import (
    Split,
    Topology,
    Tree,
    double_factorial,
    enumerate_topologies,
    random_tree,
    resolution_candidates,
    set_compatible,
    split_compatible,
    star_tree,
)
from .ultrametric import (
    DecompositionLevel,
    UltrametricMatrix,
    ValidationReport,
    decompose_step,
    matrix_to_tree,
    tree_to_matrix,
    validate_ultrametric,
    vech_leq,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
