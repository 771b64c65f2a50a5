"""The execution configuration: every execution option, declared once.

A snapshot is taken and restored under one execution configuration (paper
§III-A).  Executors, sessions and drivers accept ``config=None,
**options``, resolve them through :meth:`ExecutionConfig.of` and forward
only the object: defaults, validation and name → instance resolution
live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.backend import WorkerBackend, resolve_backend
from repro.engine.errors import EngineError
from repro.engine.kernels import KernelSet, resolve_kernels
from repro.storage.codec import CODEC_NAMES, CodecError

__all__ = ["ExecutionConfig"]


@dataclass(frozen=True)
class ExecutionConfig:
    """How a query executes and how its snapshots are encoded."""

    #: rows per morsel; a process-level cursor counts morsels, so it only
    #: restores at the morsel size that wrote it
    morsel_size: int = 16384
    #: selection vectors defer column copies inside a pipeline (results,
    #: stats and snapshots are byte-identical to the eager mode)
    lazy_filters: bool = True
    #: compile identity projections to zero-cost selects; for
    #: optimizer-rewritten plans (pruning inserts them)
    select_operators: bool = False
    #: where morsels compute: a name or an instance, held resolved
    backend: WorkerBackend | str = "simulated"
    #: operator kernel set: a name or an instance, held resolved
    kernels: KernelSet | str = "numpy"
    #: snapshot column codec
    codec: str = "raw"

    def __post_init__(self) -> None:
        morsel_size = int(self.morsel_size)
        if morsel_size <= 0:
            raise EngineError(f"morsel size must be positive, got {morsel_size}")
        if self.codec not in CODEC_NAMES:
            raise CodecError(f"unknown codec {self.codec!r}; expected one of {CODEC_NAMES}")
        object.__setattr__(self, "morsel_size", morsel_size)
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        object.__setattr__(self, "kernels", resolve_kernels(self.kernels))

    @classmethod
    def of(cls, config: "ExecutionConfig | None" = None, **options) -> "ExecutionConfig":
        """*config* with *options* applied; a ``None`` value means "not given".

        Returns *config* itself when nothing overrides it; an unknown
        option name is a ``TypeError``, like any unexpected keyword.
        """
        unknown = options.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise TypeError(f"unknown execution option(s): {', '.join(sorted(unknown))}")
        overrides = {name: value for name, value in options.items() if value is not None}
        if config is None:
            return cls(**overrides)
        return replace(config, **overrides) if overrides else config
