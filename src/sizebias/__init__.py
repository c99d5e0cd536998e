"""Size-bias transform toolkit.

Core objects live in :mod:`sizebias.dist_core`; the remaining modules
cover sums/products/mixtures, infinitely divisible laws and delay
integral equations, lognormal moment problems, Midzuno sampling,
renewal and Skorohod couplings, and Poisson approximation bounds.
"""

from .errors import SizeBiasError
from .dist_core import (
    DiscreteDist,
    GridDensity,
    NamedDist,
    ShiftedNamed,
    closed_form_size_bias,
    tabulate_named,
    named_density,
    named_mean,
    size_bias_discrete,
    size_bias_density,
    inverse_size_bias,
    moment,
    scale,
    char_fn,
    size_biased_char_fn,
    size_biased_char_fn_fd,
    dominance_check,
    size_bias_by_conditioning,
    borel_pmf,
    atoms_close,
    max_atom_gap,
    dist_to_json,
    dist_from_json,
)
from .sum_bias import (
    IndependentSum,
    index_distribution,
    convolve,
    convolve_all,
    size_biased_sum_pmf,
    sample_size_biased_sum,
    size_biased_product_pmf,
    product_pmf,
    size_bias_mixture,
    mix,
    sample_uniform_star,
    sample_cantor_star,
)
from .inf_div import (
    LevyRepr,
    IdTestResult,
    compound_poisson_from_increment,
    pmf_recursion,
    extract_increment,
    log_convexity_check,
    levy_char_fn,
    dickman_solve,
    buchstab_solve,
    levy_to_json,
    levy_from_json,
)
from .lognormal import (
    theta_t,
    reduce_base,
    OrbitDist,
    orbit_pmf,
    orbit_as_dist,
    orbit_moment,
    orbit_size_bias_check,
    lognormal_density,
    StieltjesDensity,
    stieltjes_density,
    stieltjes_moment,
    mixture_normalizer,
    mixture_density_hc,
    mixture_reconstruction_check,
    berg_pmf,
)
from .midzuno import (
    Population,
    load_population_csv,
    midzuno_sample,
    ratio_estimate,
    subset_probability,
    exact_expectation,
)
from .stochastic import (
    simulate_renewal_inspection,
    sample_stationary_phase,
    stationary_renewal_arrivals,
    SkorohodCoupling,
    skorohod_coupling,
    skorohod_exit_pmf,
    expected_exit_time,
)
from .bounds import (
    CouplingGap,
    ConcentrationParams,
    tv_distance,
    stein_poisson_bound,
    estimate_coupling_gap,
    binomial_poisson_check,
    concentration_upper,
    concentration_lower,
    tail_iteration,
    poisson_upper_tail,
    poisson_lower_tail,
)

__version__ = "0.1.0"
