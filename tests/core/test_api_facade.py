"""repro.api: the stable facade — Config mapping, workloads, search()."""

import pytest

from repro import Config, search
from repro.api import resolve_workload, workload_to_wire
from repro.core.results import SearchResult
from repro.core.search import search_mixer
from repro.graphs.datasets import paper_er_dataset
from repro.graphs.generators import Graph


class TestConfig:
    def test_defaults_map_onto_internal_configs(self):
        config = Config()
        evaluation = config.evaluation_config()
        assert evaluation.optimizer == "cobyla"
        assert evaluation.max_steps == 60
        search_cfg = config.search_config(depths=3)
        assert search_cfg.p_max == 3
        assert search_cfg.evaluation == evaluation
        runtime = config.runtime_config()
        assert runtime.max_retries == 2
        assert runtime.cache_dir is None

    def test_every_field_reaches_its_internal_config(self):
        config = Config(
            k_min=2, k_max=3, mode="sequences", num_samples=5,
            optimizer="spsa", steps=9, restarts=2, seed=7,
            engine="statevector", metric="best_sampled", shots=11,
            shards=2, cache_dir="/tmp/x", cache_max_entries=10,
            resume=True, retries=4, job_timeout=1.5,
        )
        search_cfg = config.search_config(1)
        assert (search_cfg.k_min, search_cfg.k_max) == (2, 3)
        assert search_cfg.mode == "sequences"
        assert search_cfg.num_samples == 5
        evaluation = config.evaluation_config()
        assert evaluation.optimizer == "spsa"
        assert evaluation.max_steps == 9
        assert evaluation.restarts == 2
        assert evaluation.seed == 7
        assert evaluation.engine == "statevector"
        assert evaluation.metric == "best_sampled"
        assert evaluation.shots == 11
        runtime = config.runtime_config()
        assert runtime.shards == 2
        assert runtime.cache_dir == "/tmp/x"
        assert runtime.cache_max_entries == 10
        assert runtime.resume is True
        assert runtime.max_retries == 4
        assert runtime.job_timeout == 1.5

    def test_roundtrips_through_dict(self):
        config = Config(k_max=3, steps=12, optimizer="adam")
        assert Config.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="max_step"):
            Config.from_dict({"max_step": 10})


class TestWorkloads:
    def test_spec_string_forms(self):
        assert len(resolve_workload("er")) == 3  # default count
        assert len(resolve_workload("er:2")) == 2
        assert len(resolve_workload("regular:2:5")) == 2

    def test_spec_string_is_seeded(self):
        first = resolve_workload("er:2:11")
        again = resolve_workload("er:2:11")
        assert [g.edges for g in first] == [g.edges for g in again]
        other = resolve_workload("er:2:12")
        assert [g.edges for g in first] != [g.edges for g in other]

    def test_graph_sequences_pass_through(self):
        graphs = paper_er_dataset(2)
        assert resolve_workload(graphs) == list(graphs)

    def test_wire_dicts_roundtrip(self):
        graphs = paper_er_dataset(2)
        wire = workload_to_wire(graphs)
        restored = resolve_workload(wire)
        assert all(isinstance(g, Graph) for g in restored)
        assert [g.edges for g in restored] == [g.edges for g in graphs]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="workload spec"):
            resolve_workload("barabasi:3")

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            resolve_workload([])


class TestSearch:
    CONFIG = Config(k_min=2, k_max=2, steps=5, num_samples=4, seed=3)

    def test_returns_a_search_result(self):
        result = search("er:2", depths=1, config=self.CONFIG)
        assert isinstance(result, SearchResult)
        assert result.num_candidates == 4
        assert result.best_tokens

    def test_facade_matches_the_deep_api(self):
        """The facade is sugar, not a fork: identical inputs give
        identical results through either route."""
        facade = search("er:2:9", depths=1, config=self.CONFIG)
        deep = search_mixer(
            resolve_workload("er:2:9"), self.CONFIG.search_config(1)
        )
        assert facade.best_tokens == deep.best_tokens
        assert facade.best_energy == deep.best_energy

    def test_cache_dir_wiring(self, tmp_path):
        config = Config(**{**self.CONFIG.to_dict(), "cache_dir": str(tmp_path)})
        cold = search("er:2", depths=1, config=config)
        warm = search("er:2", depths=1, config=config)
        assert cold.config["cache_misses"] == 4
        assert warm.config["cache_hits"] == 4
        assert warm.best_energy == cold.best_energy

    def test_cobyla_budget_below_n_plus_2_rejected_before_training(self):
        """Depth 3 has 6 parameters, so COBYLA needs 8 evaluations; 7
        would be overspent, so the facade refuses the sweep up front."""
        with pytest.raises(ValueError, match=r"2 \* p_max \+ 2 = 8"):
            search("er:1", depths=3, config=Config(steps=7))
        # other optimizers keep their own budget rules
        Config(steps=7, optimizer="spsa").search_config(3)

    def test_top_level_exports(self):
        import repro

        assert repro.search is search
        assert repro.Config is Config
        assert callable(repro.connect)
