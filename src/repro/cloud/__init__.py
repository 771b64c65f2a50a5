"""Ephemeral cloud environment simulation and the experiment runner."""

from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow
from repro.cloud.environment import EphemeralEnvironment, PriceTrace
from repro.cloud.events import TerminationEvent, sample_events
from repro.cloud.runner import AdaptiveController, QueryRunner, RunOutcome, make_strategy

__all__ = [
    "AvailabilityTrace",
    "AvailabilityWindow",
    "EphemeralEnvironment",
    "PriceTrace",
    "TerminationEvent",
    "sample_events",
    "AdaptiveController",
    "QueryRunner",
    "RunOutcome",
    "make_strategy",
]
