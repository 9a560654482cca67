from .problem import (
    Bounds,
    ConfigError,
    DomainError,
    EvalCounter,
    NonFiniteValueError,
    Problem,
    Reason,
    Stop,
    denormalize,
    evaluate_counted,
    normalize,
    normalize_point,
)
from .direct import DirectConfig, DirectResult, direct_solve, identify_poh, measure
from .local import LocalConfig, LocalResult, LocalStatus, sqp_local
from .abcd import AbcdConfig, AbcdResult, abcd_solve
from .runner import RunReport, RunSpec, run_one, run_single, run_suite
from .functions import get_function, list_functions

__all__ = [
    "AbcdConfig",
    "AbcdResult",
    "abcd_solve",
    "RunReport",
    "RunSpec",
    "run_one",
    "run_single",
    "run_suite",
    "get_function",
    "list_functions",
    "Bounds",
    "ConfigError",
    "DomainError",
    "EvalCounter",
    "NonFiniteValueError",
    "Problem",
    "Reason",
    "Stop",
    "denormalize",
    "evaluate_counted",
    "normalize",
    "normalize_point",
    "DirectConfig",
    "DirectResult",
    "direct_solve",
    "identify_poh",
    "measure",
    "LocalConfig",
    "LocalResult",
    "LocalStatus",
    "sqp_local",
]
