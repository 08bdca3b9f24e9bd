"""The paper's analytical contribution, as a library.

:mod:`repro.core.coverage` implements the incentive-derived coverage
models of §8.2.1 — the progression from the Helium explorer's dot map,
through the HIP-15 300 m disk model, witness convex hulls, the 25 km
cutoff refinement, and the final radial + RSSI revision.

:mod:`repro.core.analysis` packages every Section 3–8 measurement as a
documented function over the chain's ETL replica and p2p/field data.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.coverage": [
        "CoverageModel", "CoverageEstimate", "ExplorerDotMap", "DiskModel",
        "HullModel", "RevisedModel", "WitnessGeometry",
        "build_witness_geometry",
    ],
    "repro.core.explorer": ["Explorer"],
})
