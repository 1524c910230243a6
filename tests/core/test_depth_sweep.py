"""Warm-started depth sweeps and noise-aware scoring."""
import pytest

from repro.core.depth_sweep import noisy_score, warm_started_sweep
from repro.core.qbuilder import QBuilder
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.optimizers import training_optimizer
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.initialization import ramp_init
from repro.simulators.noise import NoiseModel, depolarizing_channel
from repro.utils.rng import as_rng, stable_seed


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(6, 0.5, seed=13, require_connected=True)


class TestWarmStartedSweep:
    def test_energy_monotone_in_depth(self, graph):
        points = warm_started_sweep(graph, ("rx",), 3, max_steps=60, seed=0)
        energies = [pt.energy for pt in points]
        assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:])), energies

    def test_params_length_matches_depth(self, graph):
        points = warm_started_sweep(graph, ("rx",), 3, max_steps=30)
        for pt in points:
            assert len(pt.params) == 2 * pt.p

    def test_beats_half_edges_at_every_depth(self, graph):
        points = warm_started_sweep(graph, ("rx", "ry"), 2, max_steps=60)
        for pt in points:
            assert pt.energy > graph.num_edges / 2

    def test_deterministic(self, graph):
        a = warm_started_sweep(graph, ("rx",), 2, max_steps=25, seed=4)
        b = warm_started_sweep(graph, ("rx",), 2, max_steps=25, seed=4)
        assert [pt.energy for pt in a] == [pt.energy for pt in b]

    def test_extra_restarts_never_hurt(self, graph):
        """The warm start seeds restart 0, so at the first depth a wider
        population (same restart-0 trajectory plus random ramps) can only
        improve or tie; deeper depths re-seed from their own optima and
        are only comparable within a sweep."""
        one = warm_started_sweep(graph, ("rx",), 1, max_steps=25, seed=4)
        wide = warm_started_sweep(
            graph, ("rx",), 1, max_steps=25, seed=4, restarts=3
        )
        assert wide[0].energy >= one[0].energy - 1e-9
        assert wide[0].nfev > one[0].nfev  # the population actually trained

    def test_batched_spsa_sweep_monotone(self, graph):
        points = warm_started_sweep(
            graph, ("rx",), 3, max_steps=40, seed=1,
            restarts=4, optimizer="spsa",
        )
        energies = [pt.energy for pt in points]
        assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
        # depth 1 has no warm-start fallback: its point is the population's
        # best, which must match the per-row loop over the same start points
        energy = AnsatzEnergy(QBuilder().build_qaoa(graph, ("rx",), 1))
        negated = energy.negative_objective()
        X0 = [ramp_init(1, rng=as_rng(stable_seed(1, "sweep", 1, "rx")), jitter=0.05)]
        X0 += [
            ramp_init(1, rng=as_rng(stable_seed(1, "sweep", 1, r, "rx")), jitter=0.05)
            for r in range(1, 4)
        ]
        base = training_optimizer("spsa", max_steps=40, seed=1)
        reference = [base.minimize(negated, x0) for x0 in X0]
        assert points[0].nfev == sum(r.nfev for r in reference)
        assert points[0].energy == pytest.approx(
            -min(r.fun for r in reference), abs=1e-8
        )

    def test_unknown_optimizer_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown sweep optimizer"):
            warm_started_sweep(graph, ("rx",), 1, optimizer="adam")


class TestNoisyScore:
    def test_noiseless_model_matches_clean_energy(self, graph):
        points = warm_started_sweep(graph, ("rx",), 1, max_steps=60)
        clean = noisy_score(
            graph, ("rx",), 1, points[0].params, NoiseModel()
        )
        assert clean == pytest.approx(points[0].energy, abs=1e-9)

    def test_depolarizing_pulls_toward_random_cut(self, graph):
        points = warm_started_sweep(graph, ("rx",), 1, max_steps=60)
        clean = points[0].energy
        noisy = noisy_score(
            graph, ("rx",), 1, points[0].params,
            NoiseModel(default=depolarizing_channel(0.05)),
        )
        random_cut = graph.num_edges / 2
        assert abs(noisy - random_cut) < abs(clean - random_cut)

    def test_longer_mixer_degrades_more(self):
        """The §3.2 'lower resource usage' argument: under equal per-gate
        depolarizing noise, a longer mixer loses a larger *fraction* of its
        excess energy over the random-cut anchor (more gates, more decay of
        the signal above the maximally-mixed baseline)."""
        g = cycle_graph(6)
        anchor = g.num_edges / 2  # random-cut / maximally-mixed energy
        noise = NoiseModel(default=depolarizing_channel(0.03))
        short = warm_started_sweep(g, ("rx",), 1, max_steps=80)[0]
        long = warm_started_sweep(g, ("rx", "ry", "rz", "p"), 1, max_steps=80)[0]

        def fractional_loss(tokens, point):
            noisy = noisy_score(g, tokens, 1, point.params, noise)
            excess = point.energy - anchor
            return (point.energy - noisy) / excess

        assert fractional_loss(("rx", "ry", "rz", "p"), long) > fractional_loss(
            ("rx",), short
        )
