"""repro.energy — asymmetric-machine energy accounting and GC placement.

The paper's central finding — GC behaviour is governed by how GC work
maps onto the machine — extended to asymmetric (P/E-core) multicores in
the spirit of Hussein et al.'s energy-aware GC scheduling and Gidra et
al.'s NUMA studies:

* :mod:`repro.energy.placement` — :class:`GCPlacementPolicy`: pin GC
  threads to P-cores, to E-cores, or adaptively (young on P, old and
  concurrent work on E), expressed as per-phase bandwidth rate scales
  threaded through :class:`~repro.machine.costs.CostModel`.
* :mod:`repro.energy.model` — :class:`EnergyModel`: a first-order
  joules-per-phase account (mutator run, STW pause, concurrent phase,
  idle baseline) computed post-hoc from a run's GC log and per-class
  active/idle power. Totals are integer microjoules, so they fold
  exactly like ``LogHistogram`` merges: per-run and merged-store sums
  agree to the bit.
* :mod:`repro.energy.study` — :func:`run_energy_study`: the
  energy/pause Pareto study over {collector x placement x topology}
  with byte-stable JSON from cached campaign cells (EXPERIMENTS.md X7).

See DESIGN.md §18.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".model": ("EnergyAccount", "EnergyModel", "ENERGY_PHASES",
               "GC_PHASE_MAP"),
    ".placement": ("GCPlacementPolicy", "PLACEMENT_NAMES",
                   "resolve_placement"),
    ".study": ("EnergyStudyConfig", "run_energy_study"),
})
