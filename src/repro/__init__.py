"""repro — a reproduction of "Federated Infrastructure: Usage, Patterns,
and Insights from 'The People's Network'" (IMC 2021).

The library has three layers:

* **Substrates** — everything the measured system is made of, built from
  scratch: a Helium-compatible blockchain (:mod:`repro.chain`), LoRa
  PHY/propagation (:mod:`repro.radio`), the LoRaWAN data plane
  (:mod:`repro.lorawan`), Proof of Coverage (:mod:`repro.poc`), the p2p
  relay/backhaul fabric (:mod:`repro.p2p`), crypto-economics
  (:mod:`repro.economics`), geospatial machinery including an H3-like
  hex index (:mod:`repro.geo`), and field-test drivers
  (:mod:`repro.field`).
* **Generative model** — :mod:`repro.simulation` writes a synthetic
  Helium history calibrated to the paper's reported marginals.
* **Analyses** — :mod:`repro.core` holds the paper's contribution (the
  incentive-derived coverage models) and every §3–§8 measurement;
  :mod:`repro.experiments` regenerates each table and figure
  (``python -m repro.experiments``).

Quickstart::

    from repro import SimulationEngine, result_store, run_experiment
    from repro.scenarios import resolve

    result = SimulationEngine(resolve("small").config).run()
    report = run_experiment("fig02", result)
    store = result_store(result)  # the ETL replica the analyses read
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

# Names resolve on first use (PEP 562), so importing one subpackage, such
# as the serving tier, does not import the simulator and its numpy stack.
__all__, __getattr__ = lazy_exports(__name__, {
    "repro.chain.blockchain": ["Blockchain"],
    "repro.geo.sphere": ["LatLon"],
    "repro.geo.hexgrid": ["HexGrid"],
    "repro.rng": ["RngHub"],
    "repro.simulation.scenario": ["ScenarioConfig"],
    "repro.simulation.engine": ["SimulationEngine", "SimulationResult"],
    "repro.core.coverage": [
        "DiskModel", "HullModel", "RevisedModel", "ExplorerDotMap",
        "build_witness_geometry",
    ],
    "repro.experiments.registry": [
        "EXPERIMENTS", "run_experiment", "format_report",
    ],
    "repro.experiments.context": ["result_store"],
})
__all__.insert(0, "__version__")
