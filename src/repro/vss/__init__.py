"""Linear verifiable secret sharing behind one interface.

Backends:

- :class:`IdealVSS` — ideal-functionality model with pluggable cost
  profiles (hybrid-model composition, used by large experiments).
- :class:`BGWVSS` — fully executable perfect VSS for ``t < n/3``.
- :class:`RB89VSS` — fully executable statistical VSS for ``t < n/2``
  (see :mod:`repro.vss.rb89`).
"""

from .base import (
    DEALER_DISQUALIFIED,
    ReconstructionError,
    SharedBatch,
    ShareView,
    VSSCost,
    VSSScheme,
    VSSSession,
    combine_views,
    encoding_dtype,
    integers_below,
    secret_array,
)
from .bgw import BGWVSS, BGWShareView, BGWVSSSession
from .costs import (
    BGW_COST,
    GGOR13_COST,
    PROFILES,
    RAB94_COST,
    RB89_COST,
    RB89_IMPL_COST,
    VSSProfile,
)
from .ideal import REFUSE, IdealShareView, IdealVSS, IdealVSSSession
from .rb89 import RB89VSS, RB89ShareView, RB89VSSSession

__all__ = [
    "VSSScheme",
    "VSSSession",
    "VSSCost",
    "ShareView",
    "SharedBatch",
    "combine_views",
    "encoding_dtype",
    "integers_below",
    "secret_array",
    "DEALER_DISQUALIFIED",
    "ReconstructionError",
    "IdealVSS",
    "IdealVSSSession",
    "IdealShareView",
    "REFUSE",
    "BGWVSS",
    "BGWVSSSession",
    "BGWShareView",
    "RB89VSS",
    "RB89VSSSession",
    "RB89ShareView",
    "PROFILES",
    "VSSProfile",
    "RB89_COST",
    "RAB94_COST",
    "GGOR13_COST",
    "BGW_COST",
    "RB89_IMPL_COST",
]
