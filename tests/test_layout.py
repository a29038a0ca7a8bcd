"""Tests for the flat-vector shard layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keyspace import ElasticSlicer, ModelSpec, TensorSpec
from repro.core.layout import ShardLayout


def make_layout(sizes, n_servers, chunk=64):
    spec = ModelSpec.from_tensors(
        "m", [TensorSpec(f"t{i}", (s,)) for i, s in enumerate(sizes)]
    )
    return spec, ShardLayout(spec, ElasticSlicer(chunk_elements=chunk).slice(spec, n_servers))


class TestScatterGather:
    def test_roundtrip(self, rng):
        spec, layout = make_layout([100, 37, 5], 3)
        flat = rng.normal(size=spec.total_elements)
        shards = layout.scatter(flat)
        assert sum(s.size for s in shards) == spec.total_elements
        back = layout.gather(shards)
        np.testing.assert_array_equal(back, flat)

    def test_gather_into_single_server(self, rng):
        spec, layout = make_layout([64, 64], 2)
        flat = rng.normal(size=spec.total_elements)
        shards = layout.scatter(flat)
        out = np.zeros(spec.total_elements)
        layout.gather_into(out, 0, shards[0])
        layout.gather_into(out, 1, shards[1])
        np.testing.assert_array_equal(out, flat)

    def test_scatter_wrong_size_rejected(self):
        spec, layout = make_layout([10], 2)
        with pytest.raises(ValueError):
            layout.scatter(np.zeros(11))

    def test_gather_wrong_shard_rejected(self, rng):
        spec, layout = make_layout([10], 2)
        shards = layout.scatter(rng.normal(size=10))
        shards[0] = np.zeros(shards[0].size + 1)
        with pytest.raises(ValueError):
            layout.gather(shards)

    def test_gather_wrong_count_rejected(self):
        spec, layout = make_layout([10], 2)
        with pytest.raises(ValueError):
            layout.gather([np.zeros(5)])

    def test_shard_bytes(self):
        spec, layout = make_layout([100], 2, chunk=50)
        assert layout.shard_bytes(0) + layout.shard_bytes(1) == 400


class TestProperties:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8),
        n_servers=st.integers(min_value=1, max_value=6),
        chunk=st.sampled_from([16, 64, 257]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_scatter_gather_is_identity(self, sizes, n_servers, chunk, seed):
        spec, layout = make_layout(sizes, n_servers, chunk=chunk)
        flat = np.random.default_rng(seed).normal(size=spec.total_elements)
        np.testing.assert_array_equal(layout.gather(layout.scatter(flat)), flat)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8),
        n_servers=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_shard_elements_partition_total(self, sizes, n_servers):
        spec, layout = make_layout(sizes, n_servers)
        assert sum(layout.shard_elements) == spec.total_elements
