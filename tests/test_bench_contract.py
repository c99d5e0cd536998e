"""What the benchmark under bench/ reads from the package.

The benchmark's files change only in their own revisions, so these tests
run its lattice and off-lattice tasks with their own checks, and its CLI
phase driver, against the current source: a return type or a result the
benchmark depends on can then not change unnoticed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_offlattice_stochastic_tasks_pass_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import offlattice
    tasks, _ = offlattice.build(0)
    ran = []
    for task in tasks:
        if task.key.startswith("stochastic."):
            # the renewal checks read .covering_length row by row, the
            # coupling check takes np.array(sc.uv_atoms)
            task.check(task.fn([]))
            ran.append(task.key)
    assert ran == ["stochastic.simulate_renewal_inspection.n20k",
                   "stochastic.simulate_renewal_inspection.n100k",
                   "stochastic.stationary_renewal_arrivals",
                   "stochastic.skorohod_coupling"]


def test_offlattice_tasks_pass_their_checks(monkeypatch):
    # every task in batch order, so the delay grids, the JSON round trip and
    # the Midzuno enumeration meet the benchmark's own oracles too
    monkeypatch.syspath_prepend(str(BENCH))
    import offlattice
    tasks, _ = offlattice.build(0)
    outs = []
    for task in tasks:
        outs.append(task.fn(outs))
        task.check(outs[-1])
    assert {t.key.split(".")[1] for t in tasks} == {
        "size_biased_sum_pmf", "size_biased_product_pmf", "size_bias_mixture",
        "dickman_solve", "buchstab_solve", "orbit_pmf", "berg_pmf", "mixture_normalizer",
        "stieltjes_moment", "simulate_renewal_inspection", "stationary_renewal_arrivals",
        "skorohod_coupling", "exact_expectation", "midzuno_sample", "json_text"}


def test_lattice_tasks_pass_their_checks(monkeypatch):
    # the lattice merge, the prefix-shared sum rule and the FFT extraction, each
    # held to the benchmark's own oracle
    monkeypatch.syspath_prepend(str(BENCH))
    import lattice
    tasks, _ = lattice.build(0)
    outs = []
    for task in tasks:
        outs.append(task.fn(outs))
        task.check(outs[-1])
    assert {t.key.split(".")[1] for t in tasks} == {
        "size_biased_sum_pmf", "convolve_all", "pmf_recursion", "extract_increment",
        "merge_atoms", "tv_distance", "binomial_poisson_check"}


def test_cli_phase_driver_runs_renewal():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["renewal", "--interarrival", "exponential", "--horizon", "100", "--n", "300",
            "--workers", "2", "--format", "csv"]
    p = subprocess.run([sys.executable, str(BENCH / "cli_phases.py"), json.dumps([argv])],
                       env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    (call,) = json.loads(p.stdout)["calls"]
    assert call["code"] == 0, call["err"]
    assert call["out"].startswith("key,value\nn,300\nworkers,2\n")
    assert set(call["phases"]) == {"parse", "compute", "emit"}
