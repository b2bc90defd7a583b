"""Viability, no-arbitrage and numeraire-portfolio procedures on event trees."""

__version__ = "0.1.0"

from .trees import EventTree, StoppingTime
from .markets import (
    DensityProcess,
    FractionStrategy,
    MarketModel,
    UnitStrategy,
    WealthProcess,
    density_from_leaf_values,
    price_martingale_residual,
    wealth_from_fractions,
    wealth_from_units,
)
from .arbitrage import (
    ArbitrageError,
    NaCertificate,
    check_na,
    check_nupbr,
)
from .numeraire import (
    NumeraireSolution,
    deflator_probe,
    numeraire_portfolio,
    verify_numeraire,
)
from .utility import (
    EquivalenceConfig,
    OptimalPortfolioResult,
    UtilityFunction,
    crra_utility,
    custom_utility,
    equivalence_suite,
    log_utility,
    maximize_utility,
    viability_under_measure,
)
from .measure_change import DeltaMeasure, construct_q_delta, delta_for_epsilon, verify_value_bound
from .entropy import (
    EntropyReport,
    concatenate_densities,
    entropy_hellinger,
    exp_utility,
    min_entropy_emm,
)
from .bessel import (
    Estimate,
    McBatch,
    estimate_log_value,
    estimate_reciprocal_moment,
    numeraire_probe,
    simulate_bes3,
    stopped_experiments,
)
from .market_io import (
    MarketFormatError,
    fixture_names,
    load_fixture,
    load_market,
    market_from_dict,
    market_to_dict,
    save_market,
)

__all__ = [name for name in dir() if not name.startswith("_")]
