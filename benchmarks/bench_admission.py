"""Admission-control bench (multi-tenant extension).

Sweeps offered load (mean tenant lifetime) on the paper's torus and
publishes the acceptance-ratio curve — the capacity-planning artifact
for operating the emulator as a shared service.
"""

from __future__ import annotations

from _config import BASE_SEED, publish
from repro.api import AdmissionConfig, replay_admissions
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters


def make_tenant(i, rng):
    n = int(rng.integers(100, 400))
    return generate_virtual_environment(
        n,
        workload=LOW_LEVEL,
        density=0.02,
        seed=int(rng.integers(2**31 - 1)),
        id_offset=i * 100_000,
    )


def test_acceptance_curve(benchmark):
    cluster = paper_clusters(seed=BASE_SEED + 31)["torus"]

    def sweep():
        rows = []
        for lifetime in (2.0, 5.0, 8.0, 12.0, 18.0):
            result = replay_admissions(
                cluster,
                make_venv=make_tenant,
                config=AdmissionConfig(
                    n_tenants=30, mean_lifetime=lifetime, seed=BASE_SEED
                ),
            )
            rows.append(
                (lifetime, result.acceptance_ratio, result.mean_memory_utilization,
                 result.peak_concurrent_tenants)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'lifetime':>9} {'accept':>8} {'mem util':>9} {'peak tenants':>13}"]
    for lifetime, accept, util, peak in rows:
        lines.append(f"{lifetime:>9.1f} {accept:>8.1%} {util:>9.1%} {peak:>13}")
    publish("admission_curve.txt", "\n".join(lines))

    # acceptance must not increase as the offered load grows
    ratios = [r[1] for r in rows]
    assert ratios[0] >= ratios[-1]
    assert ratios[0] == 1.0
