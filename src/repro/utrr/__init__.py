"""U-TRR-style black-box reverse engineering of the TRR sampler.

See :mod:`repro.utrr.pipeline` for the probe battery and
:mod:`repro.utrr.report` for the structured inference report the rest of
the stack (payload resolver, sweep engine, CLI) consumes.
"""

from repro.utrr.pipeline import (
    TARGET_PROFILE,
    UtrrError,
    UtrrPipeline,
    build_utrr_target,
    run_utrr,
)
from repro.utrr.report import POLICY_NONE, POLICY_UNKNOWN, InferenceReport

__all__ = [
    "InferenceReport",
    "POLICY_NONE",
    "POLICY_UNKNOWN",
    "TARGET_PROFILE",
    "UtrrError",
    "UtrrPipeline",
    "build_utrr_target",
    "run_utrr",
]
