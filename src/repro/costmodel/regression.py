"""Regression-based estimation of process-level intermediate data size.

The paper fits a curve over key factors — input size and cardinality,
query metadata (physical operator counts), and the suspension point —
from ~200 historical executions, then predicts the size of the process
image at a prospective suspension point (§III-C, Table IV).

We use ordinary least squares over an explicit feature vector.  Features
are deterministic functions of the plan, the catalog, and the suspension
fraction, so a fitted model transfers across scale factors the way the
paper's does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.plan import PlanNode, count_operators, referenced_tables
from repro.storage.catalog import Catalog

__all__ = ["RegressionFeatures", "TrainingSample", "RegressionSizeEstimator", "extract_features"]

_FEATURE_NAMES = [
    "intercept",
    "input_bytes",
    "input_rows",
    "fraction",
    "bytes_x_fraction",
    "num_joins",
    "num_groupbys",
    "num_scans",
]


@dataclass(frozen=True)
class RegressionFeatures:
    """Feature vector for one (query, dataset, suspension point) triple."""

    input_bytes: float
    input_rows: float
    fraction: float
    num_joins: int
    num_groupbys: int
    num_scans: int

    def as_vector(self) -> np.ndarray:
        return np.array(
            [
                1.0,
                self.input_bytes,
                self.input_rows,
                self.fraction,
                self.input_bytes * self.fraction,
                float(self.num_joins),
                float(self.num_groupbys),
                float(self.num_scans),
            ]
        )


@dataclass(frozen=True)
class TrainingSample:
    """One observed execution: features plus the measured image size."""

    features: RegressionFeatures
    image_bytes: float


def extract_features(catalog: Catalog, plan: PlanNode, fraction: float) -> RegressionFeatures:
    """Features of suspending *plan* over *catalog* at *fraction* of its runtime."""
    tables = referenced_tables(plan)
    input_bytes = float(sum(catalog.get(t).nbytes for t in tables))
    input_rows = float(sum(catalog.get(t).num_rows for t in tables))
    counts = count_operators(plan)
    joins = sum(v for k, v in counts.items() if "join" in k)
    return RegressionFeatures(
        input_bytes=input_bytes,
        input_rows=input_rows,
        fraction=fraction,
        num_joins=joins,
        num_groupbys=counts.get("groupby", 0),
        num_scans=counts.get("scan", 0),
    )


class RegressionSizeEstimator:
    """Least-squares fit of process-image size over execution features."""

    def __init__(self) -> None:
        self._coefficients: np.ndarray | None = None
        self._num_samples = 0

    def __repr__(self) -> str:
        return f"RegressionSizeEstimator(trained_on={self._num_samples})"

    @property
    def coefficients(self) -> dict[str, float]:
        """Fitted weights keyed by feature name."""
        if self._coefficients is None:
            raise RuntimeError("estimator has not been fitted")
        return dict(zip(_FEATURE_NAMES, self._coefficients.tolist()))

    def fit(self, samples: list[TrainingSample]) -> "RegressionSizeEstimator":
        """Fit on historical executions; needs at least as many samples as features."""
        if len(samples) < len(_FEATURE_NAMES):
            raise ValueError(
                f"need at least {len(_FEATURE_NAMES)} samples, got {len(samples)}"
            )
        design = np.stack([s.features.as_vector() for s in samples])
        target = np.array([s.image_bytes for s in samples])
        # Normalize columns for conditioning, then fold the scaling back in.
        scale = np.maximum(np.abs(design).max(axis=0), 1.0)
        coefficients, *_ = np.linalg.lstsq(design / scale, target, rcond=None)
        self._coefficients = coefficients / scale
        self._num_samples = len(samples)
        return self

    def predict(self, features: RegressionFeatures) -> float:
        """Predicted image size in bytes (clamped to be non-negative)."""
        if self._coefficients is None:
            raise RuntimeError("estimator has not been fitted")
        return float(max(0.0, features.as_vector() @ self._coefficients))
