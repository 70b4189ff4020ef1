"""Toolkit for two-receiver broadcast channels with receiver message side
information: rate regions, capacity formulas, channel classifiers, an
auxiliary-distribution optimizer and a Monte Carlo coding simulator."""

__version__ = "0.1.0"

from .errors import BcsiError, ConsistencyError, GuardError, InputError
from .probability import (Alphabet, AuxScheme, Channel, JointPmf, Pmf,
                          binary_symmetric_pair, blackwell_channel,
                          deterministic_channel, induced_joint, load_aux_scheme,
                          load_channel, load_ux_joint, noiseless_channel,
                          product_channel)
from .info_measures import conditional_mutual_information, entropy, mutual_information
from .polytope import (LinearInequality, LinearSystem, RateRegion, fme_eliminate,
                       regions_equal, region_subset, remove_redundant)
from .rate_regions import (MiConstants, SplitRates, deterministic_region,
                           marton_region, mi_constants, more_capable_region,
                           project_raw_system, raw_coding_system,
                           specialize_scheme)
from .classifier import (ClassVerdict, classify_all, is_degraded,
                         is_deterministic, is_less_noisy_grid,
                         is_more_capable_grid)
from .optimizer import (SearchConfig, SearchResult, maximize_weighted_rate,
                        region_for, union_slice_2d)
from .simulator import (Codebooks, CoderTables, SchemeConfig, SimReport,
                        decode_rx1, decode_rx2, encode, estimate_error,
                        generate_codebooks, plan_split_rates)
