"""Every Section 3–8 measurement, as documented functions.

Chain history and ledger state come from the ETL replica
(:class:`repro.etl.store.EtlStore`), as the paper's came from the DeWi
ETL; p2p, world and field analyses take their ground-truth objects.
One module per paper theme:

* :mod:`~repro.core.analysis.chainstats` — §3 whole-chain statistics.
* :mod:`~repro.core.analysis.moves` — §4.1 location-change analyses.
* :mod:`~repro.core.analysis.growth` — §4.2 adoption curves.
* :mod:`~repro.core.analysis.ownership` — §4.3 owner distributions.
* :mod:`~repro.core.analysis.resale` — §4.3.3 transfer market.
* :mod:`~repro.core.analysis.traffic` — §5 data-transfer behaviour.
* :mod:`~repro.core.analysis.meta` — §6.1 ISP/ASN meta-infrastructure.
* :mod:`~repro.core.analysis.relays` — §6.2 circuit-relay fabric.
* :mod:`~repro.core.analysis.incentives` — §7 cheating case studies.
* :mod:`~repro.core.analysis.witnesses` — §8.2.1 witness distributions.
* :mod:`~repro.core.analysis.empirical` — §8.1/8.2.2 field statistics.
"""
