"""Union-all sink: concatenates the outputs of multiple child pipelines.

Each child pipeline of a UNION ALL uses the *same* sink instance with its
own global state id; the executor runs the children as separate pipelines
and the consuming pipeline scans the concatenation.  Implemented as a
materializing breaker, which also gives UNION ALL queries an extra natural
suspension point.
"""

from __future__ import annotations

from repro.engine.operators.base import Sink
from repro.engine.types import Schema

__all__ = ["UnionAllSink"]


class UnionAllSink(Sink):
    """Materializes one branch of a UNION ALL."""

    kind = "union_all"

    def __init__(self, input_schema: Schema):
        super().__init__(input_schema)
        self.output_schema = input_schema
