"""Exact laboratory for the linear deterministic butterfly network with relay-source feedback."""

from .gf2 import (
    BitVector,
    ChannelParams,
    LayoutError,
    NetworkInputs,
    NetworkOutputs,
    SignalLayout,
    Slot,
    channel_step,
    pack,
    unpack,
)
from .regions import (
    Halfspace,
    RatePoint,
    RateRegion,
    Regime,
    applicable_regimes,
    canonicalize,
    corner_points,
    integer_points,
    achievable_region,
    outer_bound_region,
    region_contains,
    region_to_jsonable,
    regime_of,
    regions_equal,
    sum_capacity,
)
from .fm import (
    EnumerationLimitError,
    IneqSystem,
    InfeasibleSystemError,
    LinearIneq,
    SystemParseError,
    enumerate_integer_projection,
    parse_system,
    project_to_rates,
)
from .schemes import (
    InfeasibleTargetError,
    RateAllocation,
    Scheme,
    SchemeError,
    allocate,
    build_scheme,
    constraint_system,
    feedback_usage,
    integer_corners,
    net_gain,
    rate_definitions,
)
from .simulator import (
    MessageSet,
    RunReport,
    Trace,
    XorShift64Star,
    generate_messages,
    parse_trace,
    run,
    validate_trace,
    verify_corner_sweep,
    verify_params,
)

__version__ = "0.1.0"
