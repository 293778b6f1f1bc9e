"""Run configuration and generic-point sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.exactnum import Rat
from qhc.params import is_generic, sample_generic
from qhc.verify import run_suite


class TestConfig:
    @pytest.mark.parametrize("q", [0, 1, -1])
    def test_degenerate_q_rejected(self, q, monkeypatch):
        # rejected before the sweep: no case is sampled
        monkeypatch.setattr("qhc.verify.registry", lambda: pytest.fail("swept"))
        with pytest.raises(ValueError, match="q must not be"):
            run_suite("twins", a_max=1, b_max=1, trials=1, q=Rat(q))


class TestSampler:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_reproducible(self, seed):
        shape = (2, 2, 1)
        assert sample_generic(shape, seed) == sample_generic(shape, seed)

    def test_distinct_across_seeds(self):
        a = sample_generic((3, 3), 1)
        b = sample_generic((3, 3), 2)
        assert a != b

    def test_shapes_respected(self):
        pools, q = sample_generic((2, 0, 3), 5)
        assert tuple(len(p) for p in pools) == (2, 0, 3)
        assert q != 0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_sampled_points_are_generic(self, seed):
        pools, q = sample_generic((2, 2, 1), seed)
        flat = tuple(v for p in pools for v in p)
        assert is_generic(flat, q)

    def test_fixed_q_passthrough(self):
        _, q = sample_generic((2, 2), 4, Rat(3))
        assert q == Rat(3)


class TestGenericity:
    def test_detects_q_square_collision(self):
        q = Rat(2)
        # 12 = q^2 * 3 collides under the power predicate
        assert not is_generic((Rat(3), Rat(12)), q)

    def test_accepts_unrelated_points(self):
        assert is_generic((Rat(3), Rat(5), Rat(7)), Rat(2))
