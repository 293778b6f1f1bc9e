"""Configuration and generic-point sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.exactnum import Rat
from qhc.params import Config, is_generic, sample_generic


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.q is None
        assert cfg.seed == 0

    @pytest.mark.parametrize("q", [0, 1, -1])
    def test_degenerate_q_rejected(self, q):
        with pytest.raises(ValueError):
            Config(q=Rat(q))


class TestSampler:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_reproducible(self, seed):
        cfg = Config(seed=seed)
        shape = (2, 2, 1)
        assert sample_generic(shape, cfg) == sample_generic(shape, cfg)

    def test_distinct_across_seeds(self):
        a = sample_generic((3, 3), Config(seed=1))
        b = sample_generic((3, 3), Config(seed=2))
        assert a != b

    def test_shapes_respected(self):
        pools, q = sample_generic((2, 0, 3), Config(seed=5))
        assert tuple(len(p) for p in pools) == (2, 0, 3)
        assert q != 0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_sampled_points_are_generic(self, seed):
        pools, q = sample_generic((2, 2, 1), Config(seed=seed))
        flat = tuple(v for p in pools for v in p)
        assert is_generic(flat, q)

    def test_fixed_q_passthrough(self):
        cfg = Config(q=Rat(3), seed=4)
        _, q = sample_generic((2, 2), cfg)
        assert q == Rat(3)


class TestGenericity:
    def test_detects_q_square_collision(self):
        q = Rat(2)
        # 12 = q^2 * 3 collides under the power predicate
        assert not is_generic((Rat(3), Rat(12)), q)

    def test_accepts_unrelated_points(self):
        assert is_generic((Rat(3), Rat(5), Rat(7)), Rat(2))
