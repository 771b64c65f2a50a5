"""Result sink: collects the root pipeline's output for the client."""

from __future__ import annotations

from repro.engine.operators.base import Sink
from repro.engine.types import Schema

__all__ = ["ResultSink"]


class ResultSink(Sink):
    """Terminal sink of the root pipeline."""

    kind = "result"

    def __init__(self, input_schema: Schema):
        super().__init__(input_schema)
        self.output_schema = input_schema
