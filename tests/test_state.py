import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasitelab.state import (BoundM, PopulationState, l1_norm, l11_norm,
                               lemma_a1_sides)


def test_l1_examples():
    assert l1_norm(np.zeros(3)) == 0.0
    assert l1_norm(np.array([1.0, 0.0, 2.0])) == 3.0
    assert l1_norm(np.array([-1.0, 2.0])) == 3.0


def test_l11_examples():
    assert l11_norm(np.array([1.0, 0.0, 2.0])) == 7.0
    assert l11_norm(np.array([0.0] * 4 + [1.0])) == 5.0  # unit mass at load 4
    assert l11_norm(np.zeros(2)) == 0.0


def test_population_state_basics():
    xi = PopulationState.from_dict({2: 1, 0: 3})
    assert xi.counts == ((0, 3), (2, 1))
    assert xi.total_hosts == 4
    assert l1_norm(xi) == 4.0
    assert l11_norm(xi) == 3 * 1 + 1 * 3
    assert PopulationState.empty().max_load == -1


def test_population_state_rejects_bad_counts():
    with pytest.raises(ValueError):
        PopulationState(((0, 0),))
    with pytest.raises(ValueError):
        PopulationState(((2, 1), (0, 1)))
    with pytest.raises(ValueError):
        PopulationState(((0, 2),), total_hosts=5)


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_l11_dominates_l1_on_nonnegative(vals):
    v = np.array(vals)
    assert l11_norm(v) >= l1_norm(v) - 1e-12


def test_bound_m_validation():
    with pytest.raises(ValueError):
        BoundM(0.5, 9)
    with pytest.raises(ValueError):
        BoundM(1.0, 8)
    BoundM(1.0, 9)


def test_lemma_a1_zero_vector():
    sides = lemma_a1_sides(np.zeros(5), BoundM(1.0, 9))
    for lhs, rhs in (sides.sqrt_sum, sides.small_mass, sides.combined):
        assert lhs == 0.0 and rhs > 0.0


def test_lemma_a1_unit_mass_example():
    # u = e_0, M = 1, N = 9: side (i) is 1 vs 2 sqrt(log 9) ~ 2.9646
    sides = lemma_a1_sides(np.array([1.0]), BoundM(1.0, 9))
    lhs, rhs = sides.sqrt_sum
    assert lhs == 1.0
    assert rhs == pytest.approx(2.0 * math.sqrt(math.log(9.0)))
    assert sides.all_hold


def test_lemma_a1_rejects_bad_input():
    with pytest.raises(ValueError):
        lemma_a1_sides(np.array([-0.1, 0.2]), BoundM(1.0, 9))
    with pytest.raises(ValueError):
        lemma_a1_sides(np.array([5.0]), BoundM(2.0, 9))  # l11 mass 5 > M = 2


def test_lemma_a1_random_battery():
    # >= 1000 admissible triples, all three inequalities must hold
    rng = np.random.default_rng(20240917)
    for _ in range(1000):
        M = float(rng.uniform(1.0, 10.0))
        N = int(rng.integers(9, 10 ** 6))
        size = int(rng.integers(1, 80))
        u = rng.uniform(0.0, 1.0, size=size)
        u[rng.random(size) < 0.3] = 0.0
        mass = l11_norm(u)
        if mass > 0:
            u *= rng.uniform(0.0, 1.0) * M / mass
        assert lemma_a1_sides(u, BoundM(M, N)).all_hold
