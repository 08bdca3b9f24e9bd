"""DeWi-style columnar ETL replica of the simulated chain.

The paper ran its entire analysis pipeline "against the DeWi ETL
database" — a typed, queryable replica of the Helium blockchain — rather
than walking live chain objects (§3). This package is that layer for
the reproduction:

* :mod:`repro.etl.schema` — the SQLite schema (typed history tables,
  folded state tables, indexed views);
* :mod:`repro.etl.ingest` — the incremental, checkpointed,
  idempotent chain follower;
* :mod:`repro.etl.store` — :class:`EtlStore`, the query layer every
  analysis, experiment and the explorer read chain data through;
* :mod:`repro.etl.server` — the JSON documents the explorer API serves
  (hotspot, owner and witness-event renderers);
* :mod:`repro.etl.cli` — ``python -m repro.etl`` (ingest/query).

The HTTP tier over the store is :mod:`repro.serve`.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.etl.store": ["EtlStore"],
    "repro.etl.ingest": ["IngestReport", "ingest_chain"],
    "repro.etl.schema": ["SCHEMA_VERSION"],
})
