"""gridres: microgrid reserve dispatch and resilience analysis for radial feeders."""

__version__ = "0.1.0"

from .lp import (  # noqa: F401
    FeasibilityReport,
    LinearProgram,
    LpSolution,
    LpStatus,
    MalformedProblem,
    Rel,
    SolverOptions,
    check_feasibility,
    solve,
)
from .network import (  # noqa: F401
    Branch,
    Bus,
    DgUnit,
    LoadPoint,
    NetworkModel,
    PvUnit,
    StorageUnit,
    SynthSpec,
    load_model,
    save_model,
    synth_feeder,
    validate,
)
from .constraints import BuildOptions  # noqa: F401
from .dispatch import (  # noqa: F401
    CostConfig,
    DispatchResult,
    InfeasibleDispatch,
    solve_baseline,
    summarize,
)
from .robust import (  # noqa: F401
    ReserveCosts,
    ReserveSchedule,
    RobustResult,
    UncertaintyBox,
    reserve_margin,
    solve_robust,
    tighten,
)
from .advset import (  # noqa: F401
    AdversarialAxis,
    AxisInfeasible,
    InnerPolytope,
    RecourseStep,
    characterize,
    characterize_steps,
    contains,
    event_is_tolerable,
    project_2d,
    sample,
)
from .sim import (  # noqa: F401
    Event,
    Trajectory,
    ViolationSummary,
    compile_replay,
    events_from_polytopes,
    proportional_dispatch,
    run_simulation,
    violation_report,
)
from .scenario import Scenario, ScenarioError, load_scenario  # noqa: F401
