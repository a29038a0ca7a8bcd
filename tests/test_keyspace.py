"""Tests for tensors, slicing strategies and EPS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keyspace import (
    Assignment,
    DefaultSlicer,
    ElasticSlicer,
    ModelSpec,
    RangeKeySlicer,
    ShardPiece,
    TensorSpec,
)
from repro.ml.models_zoo import alexnet_cifar_spec, resnet_cifar_spec


def spec_of(sizes):
    return ModelSpec.from_tensors(
        "m", [TensorSpec(f"t{i}", (s,)) for i, s in enumerate(sizes)]
    )


class TestTensorSpec:
    def test_elements_and_bytes(self):
        t = TensorSpec("w", (3, 4, 5))
        assert t.elements == 60
        assert t.nbytes == 240

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            TensorSpec("w", (0, 3))
        with pytest.raises(ValueError):
            TensorSpec("w", ())

    def test_invalid_dtype_size(self):
        with pytest.raises(ValueError):
            TensorSpec("w", (3,), dtype_size=0)


class TestModelSpec:
    def test_totals(self):
        m = spec_of([10, 20])
        assert m.total_elements == 30
        assert m.total_bytes == 120

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec.from_tensors("m", [TensorSpec("a", (1,)), TensorSpec("a", (2,))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec.from_tensors("m", [])

    def test_tensor_lookup(self):
        m = spec_of([10, 20])
        assert m.tensor("t1").elements == 20
        with pytest.raises(KeyError):
            m.tensor("nope")


class TestAssignment:
    def test_validate_partition_accepts_exact_cover(self):
        m = spec_of([10])
        a = Assignment(n_servers=2)
        a.add(0, ShardPiece("t0", 0, 6))
        a.add(1, ShardPiece("t0", 6, 10))
        a.validate_partition(m)

    def test_validate_partition_rejects_gap(self):
        m = spec_of([10])
        a = Assignment(n_servers=2)
        a.add(0, ShardPiece("t0", 0, 5))
        a.add(1, ShardPiece("t0", 6, 10))
        with pytest.raises(ValueError, match="gap"):
            a.validate_partition(m)

    def test_validate_partition_rejects_overlap(self):
        m = spec_of([10])
        a = Assignment(n_servers=2)
        a.add(0, ShardPiece("t0", 0, 6))
        a.add(1, ShardPiece("t0", 5, 10))
        with pytest.raises(ValueError):
            a.validate_partition(m)

    def test_validate_partition_rejects_short_cover(self):
        m = spec_of([10])
        a = Assignment(n_servers=1)
        a.add(0, ShardPiece("t0", 0, 9))
        with pytest.raises(ValueError, match="covered"):
            a.validate_partition(m)

    def test_unknown_tensor_rejected(self):
        m = spec_of([10])
        a = Assignment(n_servers=1)
        a.add(0, ShardPiece("ghost", 0, 10))
        with pytest.raises(ValueError, match="unknown tensor"):
            a.validate_partition(m)

    def test_imbalance_balanced(self):
        a = Assignment(n_servers=2)
        a.add(0, ShardPiece("t0", 0, 5))
        a.add(1, ShardPiece("t0", 5, 10))
        assert a.imbalance() == pytest.approx(1.0)

    def test_moved_bytes_zero_for_identical(self):
        m = spec_of([100])
        s = ElasticSlicer(chunk_elements=16)
        a = s.slice(m, 4)
        assert a.moved_bytes(a) == 0

    def test_invalid_piece(self):
        with pytest.raises(ValueError):
            ShardPiece("t", 5, 5)


class TestRangeKeySlicer:
    def test_sequential_keys_land_on_server_zero(self):
        m = alexnet_cifar_spec()
        a = RangeKeySlicer().slice(m, 8)
        a.validate_partition(m)
        loads = a.bytes_per_server()
        # The whole model lands in the first key range.
        assert loads[0] == m.total_bytes
        assert a.imbalance() == pytest.approx(8.0)

    def test_small_keyspace_balances_by_count(self):
        m = spec_of([10] * 8)
        a = RangeKeySlicer(key_space=8).slice(m, 4)
        a.validate_partition(m)
        assert a.imbalance() == pytest.approx(1.0)


class TestDefaultSlicer:
    def test_exact_partition(self):
        m = resnet_cifar_spec(20)
        a = DefaultSlicer().slice(m, 8)
        a.validate_partition(m)

    def test_alexnet_imbalanced_by_fc1(self):
        # fc1 holds ~89% of AlexNet's parameters; whichever server hashes
        # it is overloaded.
        m = alexnet_cifar_spec()
        a = DefaultSlicer().slice(m, 8)
        a.validate_partition(m)
        assert a.imbalance() > 3.0

    def test_single_server(self):
        m = spec_of([5, 7])
        a = DefaultSlicer().slice(m, 1)
        a.validate_partition(m)
        assert a.bytes_per_server() == [m.total_bytes]


class TestElasticSlicer:
    def test_exact_partition_and_balance(self):
        m = alexnet_cifar_spec()
        a = ElasticSlicer(chunk_elements=1 << 14).slice(m, 8)
        a.validate_partition(m)
        assert a.imbalance() < 1.1

    def test_beats_default_on_skewed_model(self):
        m = alexnet_cifar_spec()
        d = DefaultSlicer().slice(m, 8)
        e = ElasticSlicer(chunk_elements=1 << 14).slice(m, 8)
        assert e.imbalance() < d.imbalance()

    def test_rebalance_shrink_preserves_partition(self):
        m = alexnet_cifar_spec()
        s = ElasticSlicer(chunk_elements=1 << 14)
        a8 = s.slice(m, 8)
        a5 = s.rebalance(a8, 5)
        a5.validate_partition(m)
        assert a5.imbalance() < 1.5

    def test_rebalance_grow_preserves_partition(self):
        m = alexnet_cifar_spec()
        s = ElasticSlicer(chunk_elements=1 << 14)
        a4 = s.slice(m, 4)
        a8 = s.rebalance(a4, 8)
        a8.validate_partition(m)

    def test_rebalance_moves_less_than_reslice(self):
        m = alexnet_cifar_spec()
        s = ElasticSlicer(chunk_elements=1 << 14)
        a8 = s.slice(m, 8)
        rebalanced = s.rebalance(a8, 6)
        fresh = s.slice(m, 6)
        assert a8.moved_bytes(rebalanced) <= a8.moved_bytes(fresh)

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            ElasticSlicer(chunk_elements=0)

    def test_invalid_server_count(self):
        m = spec_of([10])
        with pytest.raises(ValueError):
            ElasticSlicer().slice(m, 0)


class TestSlicerProperties:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12),
        n_servers=st.integers(min_value=1, max_value=9),
        chunk=st.sampled_from([64, 256, 1024, 4096]),
    )
    @settings(max_examples=80, deadline=None)
    def test_elastic_always_exact_partition(self, sizes, n_servers, chunk):
        m = spec_of(sizes)
        a = ElasticSlicer(chunk_elements=chunk).slice(m, n_servers)
        a.validate_partition(m)
        assert sum(p.elements for ps in a.pieces.values() for p in ps) == m.total_elements

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12),
        n_servers=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_default_always_exact_partition(self, sizes, n_servers):
        m = spec_of(sizes)
        a = DefaultSlicer().slice(m, n_servers)
        a.validate_partition(m)

    @given(
        sizes=st.lists(st.integers(min_value=100, max_value=5000), min_size=4, max_size=12),
        pair=st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)),
    )
    @settings(max_examples=50, deadline=None)
    def test_rebalance_always_exact_partition(self, sizes, pair):
        m = spec_of(sizes)
        s = ElasticSlicer(chunk_elements=256)
        a = s.slice(m, pair[0])
        b = s.rebalance(a, pair[1])
        b.validate_partition(m)
