"""Unit tests for typed parameter spaces and canonical point encoding."""

import numpy as np
import pytest

from repro.explore.space import (
    Categorical,
    FloatRange,
    IntRange,
    SearchSpace,
    cluster_space,
    default_space,
    dimension_from_dict,
    point_id,
    point_key,
    stable_seed,
)


class TestDimensions:
    def test_categorical_grid_and_contains(self):
        dim = Categorical("dram", ("lpddr5", "gddr6"))
        assert dim.grid() == ["lpddr5", "gddr6"]
        assert dim.contains("gddr6")
        assert not dim.contains("hbm3")

    def test_categorical_rejects_empty(self):
        with pytest.raises(ValueError, match="needs >= 1 value"):
            Categorical("x", ())

    def test_int_grid_is_unique_sorted_ints(self):
        dim = IntRange("num_dscs", 2, 48)
        grid = dim.grid(5)
        assert grid == sorted(set(grid))
        assert all(isinstance(v, int) for v in grid)
        assert grid[0] == 2 and grid[-1] == 48

    def test_int_contains_rejects_fractional(self):
        dim = IntRange("n", 0, 8)
        assert dim.contains(4)
        assert dim.contains(4.0)  # integral float is fine
        assert not dim.contains(4.5)
        assert not dim.contains(9)
        assert not dim.contains(True)  # bools are not integers here

    def test_single_level_grid_is_one_point(self):
        assert IntRange("n", 2, 48).grid(1) == [2]
        assert FloatRange("bw", 51.0, 819.0).grid(1) == [51.0]

    def test_float_log_grid_spans_bounds(self):
        dim = FloatRange("bw", 51.0, 1935.0, log=True)
        grid = dim.grid(3)
        assert grid[0] == pytest.approx(51.0)
        assert grid[-1] == pytest.approx(1935.0)
        assert grid[1] == pytest.approx((51.0 * 1935.0) ** 0.5, rel=1e-6)

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="low"):
            IntRange("x", 5, 2)
        with pytest.raises(ValueError, match="log"):
            FloatRange("x", 0.0, 1.0, log=True)

    def test_round_trip(self):
        for dim in (Categorical("a", (1, 2)), IntRange("b", 0, 4, log=False),
                    FloatRange("c", 0.5, 2.0, log=True)):
            assert dimension_from_dict(dim.to_dict()) == dim
        with pytest.raises(ValueError, match="unknown dimension kind"):
            dimension_from_dict({"kind": "complex", "name": "z"})


class TestSearchSpace:
    def space(self):
        return SearchSpace([
            IntRange("num_dscs", 2, 48),
            FloatRange("bandwidth_gbps", 51.0, 1935.0, log=True),
            Categorical("enable_ffn_reuse", (True, False)),
        ])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace([IntRange("x", 0, 1), Categorical("x", (1,))])

    def test_sampling_is_deterministic(self):
        space = self.space()
        assert space.sample_batch(5, rng=7) == space.sample_batch(5, rng=7)
        assert space.sample_batch(5, rng=7) != space.sample_batch(5, rng=8)

    def test_sample_accepts_generator(self):
        space = self.space()
        a = space.sample(np.random.default_rng(3))
        b = space.sample(np.random.default_rng(3))
        assert a == b

    def test_samples_lie_inside(self):
        space = self.space()
        for point in space.sample_batch(20, rng=0):
            space.validate(point)

    def test_grid_is_declaration_order_major(self):
        space = SearchSpace([
            Categorical("a", (1, 2)), Categorical("b", ("x", "y")),
        ])
        assert space.grid() == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_validate_errors(self):
        space = self.space()
        good = space.sample(rng=0)
        with pytest.raises(ValueError, match="missing dimension"):
            space.validate({k: v for k, v in good.items()
                            if k != "num_dscs"})
        with pytest.raises(ValueError, match="unknown dimension"):
            space.validate({**good, "bogus": 1})
        with pytest.raises(ValueError, match="outside dimension"):
            space.validate({**good, "num_dscs": 1000})

    def test_restrict(self):
        space = self.space().restrict("num_dscs", (4, 24))
        assert space.dimension("num_dscs").values == (4, 24)
        with pytest.raises(ValueError, match="outside dimension"):
            self.space().restrict("num_dscs", (4, 1000))

    def test_restrict_coerces_value_types(self):
        # JSON-parsed "--set num_dscs=24.0" must not split the cache.
        space = self.space().restrict("num_dscs", (24.0,))
        assert space.dimension("num_dscs").values == (24,)
        assert isinstance(space.dimension("num_dscs").values[0], int)

    def test_normalize_makes_encoding_type_stable(self):
        space = self.space()
        typed = space.normalize({
            "num_dscs": 24, "bandwidth_gbps": 819.0,
            "enable_ffn_reuse": True,
        })
        sloppy = space.normalize({
            "num_dscs": 24.0, "bandwidth_gbps": 819,
            "enable_ffn_reuse": True,
        })
        assert point_key(typed) == point_key(sloppy)
        assert point_id(typed) == point_id(sloppy)
        with pytest.raises(ValueError, match="outside dimension"):
            space.normalize({"num_dscs": 24.5, "bandwidth_gbps": 819.0,
                             "enable_ffn_reuse": True})

    def test_round_trip(self):
        space = self.space()
        clone = SearchSpace.from_dict(space.to_dict())
        assert clone.to_dict() == space.to_dict()
        assert clone.grid(2) == space.grid(2)

    @pytest.mark.parametrize("data", [
        {}, [], {"dimensions": 3}, {"dimensions": [7]},
        {"dimensions": [{"kind": "int"}]},
    ])
    def test_a_foreign_layout_is_a_value_error(self, data):
        with pytest.raises(ValueError, match="not a SearchSpace layout"):
            SearchSpace.from_dict(data)


class TestCanonicalEncoding:
    def test_point_key_is_order_insensitive(self):
        assert point_key({"a": 1, "b": 2.5}) == point_key({"b": 2.5, "a": 1})

    def test_point_key_normalizes_numpy_scalars(self):
        assert point_key({"a": np.int64(3), "b": np.float64(0.5)}) == (
            point_key({"a": 3, "b": 0.5})
        )

    def test_point_id_is_short_and_stable(self):
        a = point_id({"x": 1})
        assert a == point_id({"x": 1})
        assert a != point_id({"x": 2})
        assert len(a) == 12

    def test_stable_seed_is_cross_process_stable(self):
        # A pinned value: hash() would vary with PYTHONHASHSEED.
        assert stable_seed(0, "point", "x") == stable_seed(0, "point", "x")
        assert 0 <= stable_seed("anything", 42) < 2**31
        assert stable_seed(0, "a") != stable_seed(0, "b")


class TestBuiltinSpaces:
    def test_default_space_covers_required_knobs(self):
        space = default_space("dit")
        for knob in ("num_dscs", "dram", "bandwidth_gbps", "gsc_mb",
                     "enable_ffn_reuse", "sparse_iters_n", "top_k_ratio",
                     "prediction_bits"):
            assert knob in space
        space.validate(space.sample(rng=0))

    def test_cluster_space_adds_fleet_knobs(self):
        space = cluster_space("dit")
        for knob in ("replicas", "router", "rate_rps"):
            assert knob in space
        space.validate(space.sample(rng=0))
