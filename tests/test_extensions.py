"""Tests for the extension features: model persistence, the
inner-product SpMSpM foil, and the extra graph algorithms."""

import numpy as np
import pytest

from repro.core import (
    OptimizationMode,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.errors import ModelError, ShapeError
from repro.graph import connected_components, pagerank
from repro.kernels import trace_spmspm, trace_spmspm_inner
from repro.sparse import COOMatrix, generators, ops
from repro.transmuter import HardwareConfig

EE = OptimizationMode.ENERGY_EFFICIENT


class TestPersistence:
    def test_roundtrip_predictions_identical(
        self, model_ee, machine, spmspv_trace, tmp_path
    ):
        path = tmp_path / "model.json"
        save_model(model_ee, path)
        loaded = load_model(path)
        for epoch in spmspv_trace.epochs[:5]:
            counters = machine.simulate_epoch(
                epoch, HardwareConfig()
            ).counters
            assert model_ee.predict(
                counters, HardwareConfig()
            ) == loaded.predict(counters, HardwareConfig())

    def test_roundtrip_preserves_metadata(self, model_ee, tmp_path):
        path = tmp_path / "model.json"
        save_model(model_ee, path)
        loaded = load_model(path)
        assert loaded.l1_type == model_ee.l1_type
        assert set(loaded.trees) == set(model_ee.trees)
        for name in model_ee.predicted_parameters():
            assert np.allclose(
                loaded.feature_importance(name),
                model_ee.feature_importance(name),
            )

    def test_dict_roundtrip(self, model_ee):
        rebuilt = model_from_dict(model_to_dict(model_ee))
        assert rebuilt.l1_type == model_ee.l1_type

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "nope.json")

    def test_bad_version_rejected(self, model_ee):
        data = model_to_dict(model_ee)
        data["format_version"] = 99
        with pytest.raises(ModelError):
            model_from_dict(data)

    @staticmethod
    def _with_subsampling_params(model, max_features):
        """A model dict as files written before the tree lost its
        ``max_features``/``random_state`` options carry it."""
        data = model_to_dict(model)
        for tree in data["trees"].values():
            tree["params"].update(max_features=max_features, random_state=0)
        return data

    def test_older_format_loads_and_predicts_the_same(
        self, model_ee, machine, spmspv_trace
    ):
        loaded = model_from_dict(self._with_subsampling_params(model_ee, None))
        for config in (HardwareConfig(), HardwareConfig(l1_kb=64, l2_kb=16)):
            for epoch in spmspv_trace.epochs[:5]:
                counters = machine.simulate_epoch(epoch, config).counters
                assert loaded.predict(counters, config) == model_ee.predict(
                    counters, config
                )
                assert loaded.explain(counters, config) == model_ee.explain(
                    counters, config
                )

    def test_subsampled_tree_rejected(self, model_ee):
        with pytest.raises(ModelError):
            model_from_dict(self._with_subsampling_params(model_ee, 3))


class TestInnerProduct:
    def test_same_multiplies_as_outer_product(self, small_uniform):
        a_csc = small_uniform.to_csc()
        b_csr = small_uniform.transpose().to_csr()
        outer = trace_spmspm(a_csc, b_csr)
        inner = trace_spmspm_inner(a_csc, b_csr)
        assert inner.total_flops == pytest.approx(outer.total_flops)

    def test_inner_has_single_phase(self, small_uniform):
        trace = trace_spmspm_inner(
            small_uniform.to_csc(), small_uniform.transpose().to_csr()
        )
        assert trace.phases() == ["inner"]

    def test_inner_does_more_bookkeeping_when_sparse(self):
        """Index intersections cost O(n x nnz) comparisons vs. the
        outer product's O(partials); at low density (the paper's
        regime) that gap is large — the Section-5.4 justification."""
        matrix = generators.uniform_random(256, 256, 0.02, seed=2)
        a_csc = matrix.to_csc()
        b_csr = matrix.transpose().to_csr()
        outer_int = sum(e.int_ops for e in trace_spmspm(a_csc, b_csr).epochs)
        inner_int = sum(
            e.int_ops for e in trace_spmspm_inner(a_csc, b_csr).epochs
        )
        assert inner_int > 3 * outer_int

    def test_shape_mismatch_rejected(self, small_uniform):
        other = generators.uniform_random(10, 10, 0.5, seed=0)
        with pytest.raises(ShapeError):
            trace_spmspm_inner(small_uniform.to_csc(), other.to_csr())


class TestPageRank:
    def test_ranks_are_a_distribution(self, small_powerlaw):
        result = pagerank(small_powerlaw.to_csc(), max_iterations=50)
        assert result.ranks.sum() == pytest.approx(1.0)
        assert np.all(result.ranks > 0)

    def test_converges_on_small_graph(self):
        graph = generators.rmat(64, 400, seed=5)
        result = pagerank(graph.to_csc(), tolerance=1e-10, max_iterations=200)
        assert result.converged

    def test_cycle_graph_is_uniform(self):
        n = 8
        dense = np.zeros((n, n))
        for v in range(n):
            dense[(v + 1) % n, v] = 1.0
        result = pagerank(COOMatrix.from_dense(dense).to_csc())
        assert np.allclose(result.ranks, 1.0 / n, atol=1e-6)

    def test_sink_attracts_rank(self):
        # 0 and 1 both point at 2; 2 dangles.
        dense = np.zeros((3, 3))
        dense[2, 0] = 1.0
        dense[2, 1] = 1.0
        result = pagerank(COOMatrix.from_dense(dense).to_csc())
        assert result.ranks[2] > result.ranks[0]

    def test_trace_limited_to_first_iterations(self, small_powerlaw):
        limited = pagerank(
            small_powerlaw.to_csc(), max_iterations=20, trace_iterations=2
        )
        assert limited.trace.info["traced_iterations"] <= 2

    def test_bad_damping_rejected(self, small_powerlaw):
        with pytest.raises(ShapeError):
            pagerank(small_powerlaw.to_csc(), damping=1.5)


class TestConnectedComponents:
    def test_two_cliques(self):
        dense = np.zeros((6, 6))
        for a, b in ((0, 1), (1, 2), (3, 4), (4, 5)):
            dense[a, b] = 1.0
        result = connected_components(COOMatrix.from_dense(dense).to_csc())
        assert result.n_components == 2
        assert result.labels[0] == result.labels[1] == result.labels[2]
        assert result.labels[3] == result.labels[4] == result.labels[5]
        assert result.labels[0] != result.labels[3]

    def test_labels_are_component_minima(self):
        dense = np.zeros((4, 4))
        dense[3, 2] = 1.0  # edge 2-3
        result = connected_components(COOMatrix.from_dense(dense).to_csc())
        assert result.labels[2] == 2
        assert result.labels[3] == 2
        assert result.labels[0] == 0
        assert result.labels[1] == 1

    def test_matches_reference_union_find(self, small_powerlaw):
        result = connected_components(small_powerlaw.to_csc())
        # Reference: simple union-find over the same edges.
        parent = list(range(small_powerlaw.shape[0]))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r, c in zip(small_powerlaw.rows, small_powerlaw.cols):
            ra, rb = find(int(r)), find(int(c))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        reference = np.array([find(v) for v in range(len(parent))])
        # Same partition: labels equal iff reference labels equal.
        assert (
            len(set(zip(result.labels.tolist(), reference.tolist())))
            == np.unique(reference).size
        )
        assert result.n_components == np.unique(reference).size
