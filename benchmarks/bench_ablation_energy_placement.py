"""A6 — Ablation: what does GC-thread placement buy on a hybrid part?

EXPERIMENTS.md X7 studies the energy/pause Pareto frontier over
{collector x placement} on the asym-hybrid machine (8 P-cores + 16
E-cores). This ablation isolates the placement axis for one collector:
pinning GC to the P-cores minimises the pause tail at the highest GC
power, pinning to the E-cores burns the fewest GC joules at the longest
tail, and the adaptive split (young on P, old/concurrent on E) sits
between them. The homogeneous run on the paper's server rides along as
the control: its placement column must be a pure no-op.
"""

from repro import GB, JVM, JVMConfig
from repro.analysis.report import render_table
from repro.energy.model import EnergyModel, UJ_PER_J
from repro.energy.placement import PLACEMENT_NAMES
from repro.workloads.dacapo import get_benchmark

from common import emit, once, quick_or_full

SEED = 1
GC = "ParallelOldGC"


def run_one(placement, topology="asym-hybrid"):
    config = JVMConfig(gc=GC, heap=8 * GB, seed=SEED, topology=topology,
                       gc_placement=placement)
    jvm = JVM(config)
    result = jvm.run(get_benchmark("xalan"),
                     iterations=quick_or_full(4, 10), system_gc=False)
    assert not result.crashed
    return result, EnergyModel.for_config(config).account_run(result)


def run_experiment():
    runs = {p: run_one(p) for p in PLACEMENT_NAMES}
    runs["none (homogeneous)"] = run_one("", topology="paper-48core")
    runs["adaptive (homogeneous)"] = run_one("adaptive",
                                             topology="paper-48core")
    return runs


def test_ablation_energy_placement(benchmark):
    runs = once(benchmark, run_experiment)
    rows = []
    for name, (result, account) in runs.items():
        pauses = [p.duration for p in result.gc_log.pauses]
        rows.append((
            name,
            round(result.execution_time, 2),
            round(1e3 * max(pauses), 1) if pauses else "-",
            round(account.gc_uj / UJ_PER_J, 1),
            round(account.joules(), 1),
        ))
    text = render_table(
        ["placement", "exec (s)", "max pause (ms)", "GC J", "total J"],
        rows,
        title=f"Ablation A6 — GC placement on asym-hybrid, {GC} xalan",
    )
    emit("ablation_energy_placement", text)

    p_res, p_acct = runs["p-cores"]
    e_res, e_acct = runs["e-cores"]
    # The Pareto trade-off the X7 study (and the CI study-smoke job)
    # pins: P-pinning buys the tail, E-pinning the energy.
    assert max(x.duration for x in p_res.gc_log.pauses) < \
        max(x.duration for x in e_res.gc_log.pauses)
    assert e_acct.gc_uj < p_acct.gc_uj

    # Placement on a homogeneous machine is an exact no-op.
    control, _ = runs["none (homogeneous)"]
    placed, _ = runs["adaptive (homogeneous)"]
    # Exact equality is the assertion: placement scales default to 1.0
    # and x * 1.0 is IEEE-exact, so not a single bit may move.
    assert placed.iteration_times == control.iteration_times
    assert [(p.start, p.duration, p.kind) for p in placed.gc_log.pauses] \
        == [(p.start, p.duration, p.kind) for p in control.gc_log.pauses]
