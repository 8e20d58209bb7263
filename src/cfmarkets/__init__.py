"""Cost-function prediction market makers with decreasing information utility.

The library covers the standard convex-potential market maker (cost C,
conjugate R, Bregman divergence D, set-valued prices), utility for beliefs
and events via Bregman projection, implicit submarket closing through
switched costs, linearly constrained market makers with arbitrage
certificates, gradual per-block liquidity decrease, protocol simulation with
worst-case loss verification, and a scenario CLI.
"""

from .costs import (ConsistencyVerdict, CostModel, IndependentBinaryCost,
                    LmsrCost, PiecewiseLinearCost, PriceSet, RestrictedCost,
                    ScaledCost, SwitchedCost, finite_difference_price)
from .gradual import (BlockSchedule, PartialDecreaseAudit, Schedule,
                      TimedState, divergence_decomposition, model_at,
                      new_state, partial_decrease_audit)
from .lcmm import (ArbitrageSolution, LcmmCost, TightnessResult,
                   certificate_check, lcmm_divergence, medal_count_model,
                   tightness_check)
from .markets import (Observation, OutcomeSpace, exposure_witness,
                      independent_binary_market, observe_block_payoff,
                      observe_coordinate, observe_identity, observe_partition,
                      observe_sum, probe_points, simplex_market,
                      single_binary_market, square_market, trivial_observation)
from .scenario import Scenario, ScenarioError, bundled_scenarios, \
    load_scenario
from .simulate import (BeliefTrader, InconsistentPlanError, JitArbitrageur,
                       Ledger, NoiseTrader, TradeRecord, TradeRequest,
                       TraderAgent, run_protocol1, run_protocol2, verify_loss,
                       wc_loss_bound)
from .switching import (DesiderataRow, check_desiderata, consistency_check,
                        plan_switch)
from .utility import (EventUtility, OptimizingSequence, conditional_price,
                      excess_util, optimizing_sequence, util_belief,
                      util_event)

__version__ = "0.1.0"
