"""Pipeline-level suspension and resumption (the paper's contribution).

Suspension only happens at pipeline breakers, once every worker-local
state has been merged into the global state (Fig. 2).  Only the *live*
global states — those that unfinished pipelines still need — are
serialized, which is why the persisted intermediate data is typically
tiny for aggregation-ending pipelines and large only when a join-build
pipeline has just completed (Fig. 8).

Resumption bypasses every completed pipeline, restores the live global
states, and continues with the next pipeline; because nothing worker-local
survives, the resumed execution may use a *different* resource
configuration — the adaptive-resources advantage noted in §III-B.
"""

from __future__ import annotations

from repro.suspend.strategy import SuspensionStrategy

__all__ = ["PipelineLevelStrategy"]


class PipelineLevelStrategy(SuspensionStrategy):
    """Suspend at breakers; persist live global states.

    Everything is the base class's: a ``"pipeline"`` capture keeps the
    live states, is sized by its encoded blobs, and restores onto any
    resource configuration.
    """

    name = "pipeline"
