"""Blockwise cluster statistics for heavy-tailed time series.

Generate regularly varying series, evaluate disjoint/sliding block
statistics of cluster functionals, decompose their difference exactly
into internal- and boundary-cluster contributions, and verify asymptotic
rates against closed-form MMA(1) constants with a reproducible Monte
Carlo harness.
"""

__version__ = "0.1.0"

from .blocks import (BlockBookkeeping, BlockConfig, block_bookkeeping,
                     block_values, disjoint_stat, empirical_cluster_measure,
                     sliding_stat)
from .errors import (ClusterBlocksError, ConfigError, FunctionalContractError,
                     ModelError, PersistError)
from .expansion import (DecompositionReport, boundary_cluster_stat,
                        expansion_report, internal_cluster_stat,
                        remainder_stat)
from .functionals import (ClusterFunctional, ExceedancePattern,
                          eval_functional, exceedance_pattern, get_functional,
                          induced_bc, induced_functional, induced_ic,
                          register_functional)
from .harness import (ConvergenceTable, ExperimentConfig, VerdictReport,
                      expected_targets, load, persist, run_experiment,
                      summarize)
from .limits import (LimitTable, anticlustering_sum, cluster_index_mc,
                     limit_table)
from .models import (MagnitudeSeries, ModelSpec, ZSampler, gen_series,
                     marginal_tail, mma1_constants, parse_model, read_series,
                     threshold_for_w, write_series)
