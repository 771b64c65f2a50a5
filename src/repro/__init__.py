"""repro — a from-scratch reproduction of Riveter (ICDE 2024).

Riveter is an adaptive query suspension and resumption framework for
cloud-native databases running on ephemeral resources.  This package
provides:

* :mod:`repro.engine` — a push-based, morsel-driven vectorized query
  engine with pipeline breakers (the DuckDB substitute);
* :mod:`repro.storage` — the columnar storage substrate;
* :mod:`repro.tpch` — a deterministic TPC-H data generator and plan
  builders for all 22 queries;
* :mod:`repro.suspend` — the redo, pipeline-level and process-level
  suspension strategies plus a simulated CRIU;
* :mod:`repro.costmodel` — the cost model and Algorithm 1 strategy
  selection;
* :mod:`repro.iterator` — a pull-based executor with operator-level
  suspension (the Table VI comparison substrate);
* :mod:`repro.sql` — a SQL front-end compiling single-block SELECT onto
  the same plan algebra;
* :mod:`repro.cloud` — the ephemeral-resource environment simulator,
  suspension-aware scheduler, intermittent- and price-aware runners;
* :mod:`repro.harness` — drivers reproducing every figure and table of
  the paper's evaluation.

Command line: ``python -m repro query|experiments`` (see the README).
"""

__version__ = "1.0.0"
