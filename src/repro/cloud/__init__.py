"""Ephemeral cloud environment simulation and the experiment runner."""

from repro.cloud.availability import (
    AvailabilityTrace,
    AvailabilityWindow,
    IntermittentRunner,
)
from repro.cloud.environment import EphemeralEnvironment, PriceTrace
from repro.cloud.pricing import PriceAwareOutcome, PriceAwareRunner
from repro.cloud.events import TerminationEvent, sample_events
from repro.cloud.runner import AdaptiveController, QueryRunner, RunOutcome, make_strategy

__all__ = [
    "AvailabilityTrace",
    "AvailabilityWindow",
    "IntermittentRunner",
    "EphemeralEnvironment",
    "PriceTrace",
    "PriceAwareOutcome",
    "PriceAwareRunner",
    "TerminationEvent",
    "sample_events",
    "AdaptiveController",
    "QueryRunner",
    "RunOutcome",
    "make_strategy",
]
