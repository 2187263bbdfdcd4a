"""Model parameters.

``cr_granularity`` controls the architectural granularity of register
dependencies (section 2.1.4): the paper argues for single-bit granularity
(``"bit"``), which makes ``MP+sync+addr-cr`` allowed, but the model can also
be run with 4-bit CR fields or a monolithic CR for the E8 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    cr_granularity: str = "bit"  # "bit" | "field" | "whole"
    max_instances_per_thread: int = 48
    max_states: int = 2_000_000
    forbid_undef_conditions: bool = True


DEFAULT_PARAMS = ModelParams()
