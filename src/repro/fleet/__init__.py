"""Fleet: GC-aware load balancing and opportunistic scaling.

The paper studies one JVM at a time; this subsystem asks the question a
Cassandra operator actually faces — *given a fleet of such JVMs under
diurnal traffic, does routing around (or scheduling) collections beat
pretending they don't exist?* It composes the repository's existing
pieces:

* a **calibrated node surrogate** (:mod:`~repro.fleet.node`) distilled
  from one full discrete-event Cassandra JVM run per collector;
* an **open-loop diurnal traffic model** (:mod:`~repro.fleet.traffic`)
  — sinusoid + lognormal noise + bursts over millions of users;
* a **pluggable balancer** (:mod:`~repro.fleet.balancer`) with GC-blind
  and GC-aware policies (:mod:`~repro.fleet.policies`), including
  Monk-style forced collections in traffic valleys;
* a GC-blind **reactive autoscaler** (:mod:`~repro.fleet.autoscaler`);
* the **study driver** (:mod:`~repro.fleet.study`) producing the Fig.
  5-style per-policy tail-latency and node-count deliverables.

Everything is deterministic: same seed ⇒ byte-identical study JSON.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".traffic": ("DAY", "TrafficConfig", "DiurnalTraffic"),
    ".node": ("GCCalibration", "NodeModelConfig", "FleetNode", "calibrate"),
    ".policies": ("Policy", "RoundRobinPolicy", "LeastOutstandingPolicy",
                  "PausePredictivePolicy", "MonkPolicy", "POLICY_NAMES",
                  "make_policy"),
    ".balancer": ("FleetBalancer", "split_ops"),
    ".autoscaler": ("AutoscalerConfig", "ReactiveAutoscaler", "ScaleEvent"),
    ".study": ("FLEET_BENCHMARK", "FleetStudyConfig", "FleetStudyResult",
               "PolicyOutcome", "calibrate_collector", "simulate_policy",
               "run_fleet_study"),
})
