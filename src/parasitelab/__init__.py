"""Simulation and verification lab for countable-type host-parasite models.

Layers, from the bottom up:

  - ``state``: population states, the host/parasite norms.
  - ``rates``: model specification, rate evaluation, computable constants,
    sampled hypothesis certificates.
  - ``models``: the example model constructors and offspring laws.
  - ``ode``: the deterministic limit system and its certified solver.
  - ``ssa``: exact event-driven simulation of the interacting process;
    ``PathRecord.counts_at`` reads a path's counts at chosen times.
  - ``tilde``: the independent-individuals auxiliary process.
  - ``coupling``: the joint construction of both processes on one
    probability space, with pathwise decoupling accounting.
  - ``harness``: experiment orchestration, convergence studies and CSV
    emission; ``cli`` exposes it all as subcommands.
"""

from .state import (
    BoundM,
    PopulationState,
    l1_norm,
    l11_norm,
    lemma_a1_sides,
)
from .rates import (
    BaselineGenerator,
    BoundConstants,
    Envelopes,
    EventKind,
    InteractionSpec,
    ModelSpec,
    bound_constants,
    check_growth,
    check_lipschitz_sampled,
    semigroup_moment,
)
from .models import (
    OffspringLaw,
    kretzschmar_modified,
    luchsinger_linear,
    luchsinger_nonlinear,
)
from .ode import (
    BlowUpError,
    OdeSolution,
    drift,
    integrate,
    mild_residual,
    semigroup_apply,
)
from .ssa import (
    CapExceeded,
    PathRecord,
    SupL1Error,
    simulate,
    sup_l1_error,
)
from .tilde import (
    DominatingRateError,
    TildeRates,
    concentration_check,
    mean_identity_check,
    moment_bound_check,
    simulate_tilde,
)
from .coupling import (
    CoupledCapExceeded,
    CoupledRun,
    CouplingInvariantError,
    CouplingState,
    martingale_balance_check,
    simulate_coupled,
)
from .harness import (
    ExperimentConfig,
    build_model,
    replica_seed,
    round_initial,
    run_certificates,
    run_convergence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
