"""Differential fuzzing harness: smoke campaign, determinism, and
injected-fault detection."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.conformance import fuzz as fuzz_mod
from repro.conformance.fuzz import FuzzReport, generate_instance, run_fuzz
from repro.hmn.config import HMNConfig


class TestGenerator:
    def test_deterministic(self):
        c1, v1, cfg1 = generate_instance(3)
        c2, v2, cfg2 = generate_instance(3)
        assert list(c1.host_ids) == list(c2.host_ids)
        assert [g.id for g in v1.guests()] == [g.id for g in v2.guests()]
        assert cfg1 == cfg2

    def test_seeds_differ(self):
        instances = [generate_instance(s) for s in range(12)]
        shapes = {(c.n_hosts, v.n_guests) for c, v, _ in instances}
        assert len(shapes) > 3  # the generator actually varies

    def test_covers_config_axes(self):
        configs = [generate_instance(s)[2] for s in range(40)]
        assert {c.link_order for c in configs} == {"vbw_desc", "vbw_asc"}
        assert {c.migration_enabled for c in configs} == {True, False}


@pytest.mark.fuzz
class TestCampaign:
    def test_smoke_no_divergences(self):
        report = run_fuzz(25)
        assert report.ok, [str(d) for d in report.divergences]
        assert report.seeds_run == 25
        assert report.n_mapped + report.n_unmappable == 25
        assert report.n_runner_grids >= 1

    def test_campaign_deterministic(self):
        assert run_fuzz(8, runner_grids=0).to_dict() == run_fuzz(8, runner_grids=0).to_dict()

    def test_report_round_trips_to_json(self, tmp_path):
        report = run_fuzz(4, runner_grids=0)
        path = report.write(tmp_path / "report.json")
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro/conformance-fuzz-report@1"
        assert doc["ok"] is True
        assert doc["seeds_run"] == 4


class TestShardedArms:
    """The forced-shard differential arms (stitch kernel, mono gap)."""

    def test_sharded_arms_smoke(self):
        report = run_fuzz(0, runner_grids=0, shard_seeds=4)
        assert report.ok, [str(d) for d in report.divergences]
        assert report.n_sharded == 4

    def test_stitch_kernel_divergence_detected(self, monkeypatch):
        """A kernel-off arm that fails where the kernel-on arm maps must
        surface as a hard stitch-kernel divergence."""
        from repro.errors import PlacementError

        real = fuzz_mod.hmn_map

        def broken(cluster, venv, config=None, **kwargs):
            config = config if config is not None else HMNConfig()
            if config.extra.get("stitch_kernel") is False:
                raise PlacementError(99, "injected kernel-off failure")
            return real(cluster, venv, config, **kwargs)

        monkeypatch.setattr(fuzz_mod, "hmn_map", broken)
        # shard seed 0 is unmappable either way; seed 1 maps kernel-on.
        report = run_fuzz(0, runner_grids=0, shard_seeds=2)
        assert report.n_sharded == 2
        assert "stitch-kernel-feasibility" in {d.check for d in report.divergences}

    def test_mono_gap_counted_not_failed(self, monkeypatch):
        """Sharded-vs-monolithic feasibility disagreement is tracked as
        a gap, never as a divergence."""
        from repro.errors import PlacementError

        real = fuzz_mod.hmn_map

        def monoless(cluster, venv, config=None, **kwargs):
            config = config if config is not None else HMNConfig()
            if config.shard == "off":
                raise PlacementError(99, "injected monolithic failure")
            return real(cluster, venv, config, **kwargs)

        monkeypatch.setattr(fuzz_mod, "hmn_map", monoless)
        report = run_fuzz(0, runner_grids=0, shard_seeds=2)
        assert report.ok, [str(d) for d in report.divergences]
        assert report.n_shard_gap == 1  # seed 1 maps sharded, "fails" mono
        assert json.loads(json.dumps(report.to_dict()))["n_shard_gap"] == 1


class TestInjectedDivergence:
    """A perturbed route kernel must surface as an ``engine-route``
    divergence (the differential cache compares every route query with
    the reference routers) carrying a replayable repro artifact."""

    def test_engine_divergence_detected(self, monkeypatch):
        """A kernel that reports a different bottleneck than the
        reference router."""
        import repro.routing.cache as cache_mod

        real = cache_mod.bottleneck_route_compiled

        def perturbed(*args, **kwargs):
            r = real(*args, **kwargs)
            return dataclasses.replace(r, bottleneck=r.bottleneck * 0.5)

        monkeypatch.setattr(cache_mod, "bottleneck_route_compiled", perturbed)
        report = FuzzReport()
        fuzz_mod._check_one_seed(1, 0, report)  # seed 1 is mappable
        assert not report.ok
        assert {d.check for d in report.divergences} == {"engine-route"}
        art = report.divergences[0].artifact
        assert set(art) == {"cluster", "venv", "config"}
        assert "kernel" in report.divergences[0].detail

    def test_failure_class_divergence_detected(self, monkeypatch):
        """A kernel that rejects routes the reference router finds."""
        import repro.routing.cache as cache_mod
        from repro.errors import RoutingError

        def sabotaged(topo, bw, origin, destination, **kwargs):
            raise RoutingError((origin, destination), "sabotage")

        monkeypatch.setattr(cache_mod, "bottleneck_route_compiled", sabotaged)
        report = FuzzReport()
        fuzz_mod._check_one_seed(1, 0, report)  # seed 1 is mappable
        assert report.divergences
        assert {d.check for d in report.divergences} == {"engine-route"}
        assert all("sabotage" in d.detail for d in report.divergences)
        assert set(report.divergences[0].artifact) == {"cluster", "venv", "config"}

    def test_runner_divergence_has_repro_pointer(self, monkeypatch):
        # Force the stripped-record comparison itself to disagree.
        from repro.analysis.runner import BatchRunner

        real_run = BatchRunner.run
        flips = iter([False, True])

        def unstable(self, specs):
            records = real_run(self, specs)
            if next(flips):
                records = [dataclasses.replace(records[0], objective=-1.0)] + list(
                    records[1:]
                )
            return records

        monkeypatch.setattr(BatchRunner, "run", unstable)
        report = FuzzReport()
        fuzz_mod._runner_differential(0, 0, report)
        assert [d.check for d in report.divergences] == ["runner-parity"]
        assert report.divergences[0].artifact["grid_seed"] == 0


class TestPortfolioArm:
    """The solver-portfolio differential arm (bnb vs exact, rounding)."""

    def test_portfolio_arm_smoke(self):
        report = run_fuzz(0, runner_grids=0, shard_seeds=0, redundant_seeds=0,
                          portfolio_seeds=6)
        assert report.ok, [str(d) for d in report.divergences]
        assert report.n_portfolio == 6

    def test_arm_deterministic(self):
        kwargs = dict(runner_grids=0, shard_seeds=0, redundant_seeds=0,
                      portfolio_seeds=4)
        assert run_fuzz(0, **kwargs).to_dict() == run_fuzz(0, **kwargs).to_dict()

    def test_bnb_objective_divergence_detected(self, monkeypatch):
        """A bnb solver claiming a better-than-exact optimum must surface
        as a hard objective divergence with a replayable artifact."""
        import repro.portfolio.bnb as bnb_mod

        real = bnb_mod.bnb_map

        def braggart(cluster, venv, config=None, **kwargs):
            m = real(cluster, venv, config, **kwargs)
            if m.meta["proven_optimal"]:
                meta = dict(m.meta)
                meta["objective"] = meta["objective"] - 1.0
                return dataclasses.replace(m, meta=meta)
            return m

        monkeypatch.setattr(bnb_mod, "bnb_map", braggart)
        report = run_fuzz(0, runner_grids=0, shard_seeds=0, redundant_seeds=0,
                          portfolio_seeds=6)
        checks = {d.check for d in report.divergences}
        assert "portfolio-bnb-objective" in checks
        offender = next(
            d for d in report.divergences if d.check == "portfolio-bnb-objective"
        )
        assert {"cluster", "venv", "config", "portfolio_seed"} <= set(
            offender.artifact
        )

    def test_rounding_violation_detected(self, monkeypatch):
        """A rounding mapper that drops a guest must trip the Eq. 1-3
        validation check."""
        import repro.portfolio.rounding as rounding_mod

        real = rounding_mod.rounding_map

        def lossy(cluster, venv, config=None, **kwargs):
            m = real(cluster, venv, config, **kwargs)
            assignments = dict(m.assignments)
            assignments.pop(min(assignments))
            return dataclasses.replace(m, assignments=assignments)

        monkeypatch.setattr(rounding_mod, "rounding_map", lossy)
        report = run_fuzz(0, runner_grids=0, shard_seeds=0, redundant_seeds=0,
                          portfolio_seeds=6)
        assert "portfolio-rounding-validate" in {
            d.check for d in report.divergences
        }


class TestExactCrossCheck:
    def test_exact_placement_only_skips_routing(self):
        from repro.extensions.exact import exact_map

        from repro.topology import line_cluster
        from repro.workload import generate_virtual_environment

        cluster = line_cluster(3, seed=5)
        venv = generate_virtual_environment(4, density=0.5, seed=5)
        m = exact_map(cluster, venv, placement_only=True)
        assert m.paths == {}
        assert m.meta["placement_only"] is True
        assert len(m.assignments) == venv.n_guests

    def test_exact_never_worse_than_hmn(self):
        from repro.extensions.exact import exact_map
        from repro.hmn.pipeline import hmn_map
        from repro.topology import ring_cluster
        from repro.workload import generate_virtual_environment

        cluster = ring_cluster(4, seed=11)
        venv = generate_virtual_environment(5, density=0.3, seed=11)
        exact = exact_map(cluster, venv, placement_only=True)
        heuristic = hmn_map(cluster, venv)
        assert (
            exact.objective(cluster, venv)
            <= heuristic.objective(cluster, venv) + fuzz_mod.OBJECTIVE_TOL
        )
