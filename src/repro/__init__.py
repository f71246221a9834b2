"""repro — a simulated-JVM reproduction of *A Performance Study of Java
Garbage Collectors on Multicore Architectures* (PMAM '15).

Quick start::

    from repro import JVM, baseline_config
    from repro.workloads.dacapo import get_benchmark

    jvm = JVM(baseline_config(gc="G1"))
    result = jvm.run(get_benchmark("xalan"), iterations=10, system_gc=True)
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".jvm.jvm": ("JVM", "RunResult"),
    ".jvm.flags": ("JVMConfig", "baseline_config"),
    ".gc.registry": ("GCType", "GC_NAMES"),
    ".machine.topology": ("MachineTopology", "AsymmetricTopology", "CoreClass",
                          "PAPER_SERVER", "PAPER_CLIENT", "resolve_topology"),
    ".machine.costs": ("CostModel",),
    ".units": ("KB", "MB", "GB"),
    ".errors": ("ReproError", "ConfigError", "HeapError", "OutOfMemoryError",
                "AllocationFailure", "PromotionFailure", "SimulationError",
                "BenchmarkCrash"),
})
__all__.append("__version__")
