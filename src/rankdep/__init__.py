"""Rank-based tests of mutual independence for many continuous variables.

Pipeline: rank the columns (ranks), evaluate pairwise rank-correlation
statistics exactly (pairwise, kernels), aggregate over all pairs
(aggregate), and calibrate with asymptotic limits or a keyed permutation
null (calibrate).  simgen holds the simulation harness, cli the command
line entry point, selftest the built-in checks.
"""

from .aggregate import (
    NAMED_STATISTICS,
    limit_family,
    min_sample_size,
    StatisticId,
    StatKind,
    raw_statistic,
    raw_statistics,
    rescale_factor,
    statistic_from_name,
)
from .calibrate import (
    ASYMPTOTIC,
    Asymptotic,
    MonteCarlo,
    NullTable,
    TestResult,
    gumbel_max_pvalue,
    montecarlo_null,
    montecarlo_nulls,
    normal_pvalue,
    permutation_ranks,
    run_test,
    run_tests,
)
from .errors import (
    ConfigError,
    DegenerateColumn,
    DomainError,
    ExactnessCeiling,
    InfeasibleSignal,
    LengthMismatch,
    NotPositiveDefinite,
    ParseError,
    RankdepError,
    SampleTooSmall,
    TiesPresent,
    UnknownConstant,
    WrongArity,
)
from .kernels import KernelId, eval_kernel, mu_h, mu_h_exact
from .pairwise import (
    PairStatistics,
    all_pairs,
    all_pairs_spearman,
    hoeffding_d,
    kendall_tau_fast,
    pair_statistics,
    rho_hat,
    spearman_rho,
    tstar,
    u_stat_naive,
    w_stat,
    w_stat_naive,
)
from .ranks import REJECT, JitterWithSeed, RankMatrix, compute_ranks, detect_ties
from .selftest import CheckResult, run_selftest
from .simgen import (
    CSV_FIELDS,
    FAMILIES,
    SCATTER_KINDS,
    ExperimentRow,
    ScatterSpec,
    SimScenario,
    gen_dataset,
    run_experiment,
    signal_to_rho,
    write_experiment_csv,
)

__version__ = "0.1.0"
