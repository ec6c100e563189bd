import math

import numpy as np
import pytest

from sfekit import PsoParams, pso_search
from sfekit.bpso import _repair_zero_rows, position_update, sigmoid, velocity_update

from util import blob_dataset, constant_dataset, make_ev


class StubUniform:
    """Generator double whose random() always returns one constant."""

    def __init__(self, value):
        self.value = value

    def random(self, shape=None):
        if shape is None:
            return self.value
        return np.full(shape, self.value)

    def integers(self, *a, **kw):  # pragma: no cover
        raise AssertionError("unexpected integers() draw")


# ---------------------------------------------------------------- updates

def test_velocity_update_worked_example():
    p = PsoParams()  # w=1, c1=2, c2=1.5
    out = velocity_update(0.0, 0, 1, 1, p, StubUniform(1.0))
    assert float(out) == 3.5


def test_velocity_update_clamps_both_sides():
    p = PsoParams()
    high = velocity_update(5.0, 0, 1, 1, p, StubUniform(1.0))
    low = velocity_update(-5.0, 1, 0, 0, p, StubUniform(1.0))
    assert float(high) == 6.0
    assert float(low) == -6.0


def test_velocity_update_vectorised_matches_scalar():
    p = PsoParams(w=0.7, c1=1.3, c2=0.9)
    v = np.array([0.5, -2.0, 3.0])
    x = np.array([0, 1, 1])
    pb = np.array([1, 1, 0])
    gb = np.array([1, 0, 0])
    vec = velocity_update(v, x, pb, gb, p, StubUniform(0.4))
    scal = [
        float(velocity_update(v[j], x[j], pb[j], gb[j], p, StubUniform(0.4)))
        for j in range(3)
    ]
    assert np.allclose(vec, scal, atol=0, rtol=0)


def test_velocity_update_zero_params_kills_motion():
    p = PsoParams(w=0.0, c1=0.0, c2=0.0)
    out = velocity_update(np.array([4.0, -4.0]), 0, 1, 1, p, StubUniform(1.0))
    assert np.all(out == 0.0)


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert float(sigmoid(6.0)) == pytest.approx(1.0 / (1.0 + math.exp(-6.0)), abs=0)
    assert float(sigmoid(-6.0)) == pytest.approx(1.0 / (1.0 + math.exp(6.0)), abs=0)


def test_position_update_threshold_is_inclusive():
    assert int(position_update(0.0, StubUniform(0.5))) == 1
    assert int(position_update(0.0, StubUniform(0.5000001))) == 0


def test_position_update_statistics():
    rng = np.random.default_rng(0)
    zeros = position_update(np.zeros(100_000), rng)
    assert abs(zeros.mean() - 0.5) < 0.01
    sixes = position_update(np.full(100_000, 6.0), rng)
    assert abs(sixes.mean() - 0.9975273768433653) < 0.01
    neg = position_update(np.full(100_000, -6.0), rng)
    assert abs(neg.mean() - 0.0024726231566347743) < 0.01


def test_repair_sets_exactly_one_bit_per_zero_row():
    rng = np.random.default_rng(3)
    positions = np.zeros((4, 7), dtype=np.int8)
    positions[1, 2] = 1
    _repair_zero_rows(positions, rng)
    assert positions[1].sum() == 1 and positions[1, 2] == 1
    for i in (0, 2, 3):
        assert positions[i].sum() == 1


def test_params_validation():
    with pytest.raises(ValueError):
        PsoParams(pop_size=0)
    with pytest.raises(ValueError):
        PsoParams(v_clamp=0.0)
    with pytest.raises(ValueError):
        PsoParams(c1=-1.0)
    # NaN fails every comparison, so it must be refused, not slip past them
    for key in ("w", "c1", "c2", "v_clamp"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{key}.* must be finite"):
                PsoParams(**{key: value})


# ----------------------------------------------------------------- search

def replay_initial_positions(seed, n, d):
    # documented sampling prelude: Bernoulli(0.5) positions, then uniform
    # velocities, then the zero-row repair
    rng = np.random.default_rng(seed)
    positions = (rng.random((n, d)) < 0.5).astype(np.int8)
    rng.uniform(-1.0, 1.0, size=(n, d))
    _repair_zero_rows(positions, rng)
    return positions


def test_budget_equal_to_pop_runs_initial_wave_only():
    ds = blob_dataset(25, 10, seed=2)
    p = PsoParams(pop_size=8)
    ev = make_ev(ds, budget=8)
    trace = pso_search(ds, ev, p, seed=21)
    assert ev.used == 8
    assert len(trace) == 8
    positions = replay_initial_positions(21, 8, 10)
    probe = make_ev(ds, budget=8)
    fits = [probe.evaluate(positions[i]) for i in range(8)]
    best = int(np.argmax(fits))  # earliest index wins ties
    assert np.array_equal(trace.final_mask, positions[best])
    assert trace.final_fitness == fits[best]


def test_budget_below_pop_is_an_error():
    ds = blob_dataset(25, 10, seed=2)
    ev = make_ev(ds, budget=7)
    with pytest.raises(ValueError, match="wave"):
        pso_search(ds, ev, PsoParams(pop_size=8), seed=0)


def test_charges_whole_generations_within_budget():
    ds = blob_dataset(25, 10, seed=2)
    p = PsoParams(pop_size=20)
    ev = make_ev(ds, budget=95)
    trace = pso_search(ds, ev, p, seed=5)
    assert ev.used == 80  # 20 init + 3 generations; 15 left is not a wave
    assert trace.fes == list(range(1, 81))
    assert all(a <= b for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))
    assert trace.final_fitness == trace.best_fitness[-1]


def test_init_mask_seeds_first_particle():
    ds = blob_dataset(25, 10, seed=2)
    init = np.zeros(10, dtype=np.int8)
    init[3] = 1
    ev = make_ev(ds, budget=40)
    trace = pso_search(ds, ev, PsoParams(pop_size=5), init=init, seed=9)
    probe = make_ev(ds, budget=1)
    assert trace.best_fitness[0] == probe.evaluate(init)


def test_init_mask_validation():
    ds = blob_dataset(25, 10, seed=2)
    ev = make_ev(ds, budget=40)
    with pytest.raises(ValueError, match="length"):
        pso_search(ds, ev, PsoParams(pop_size=5), init=np.ones(9, dtype=int), seed=0)
    with pytest.raises(ValueError, match="no features"):
        pso_search(ds, ev, PsoParams(pop_size=5), init=np.zeros(10, dtype=int), seed=0)


def test_search_is_deterministic_in_seed():
    ds = blob_dataset(30, 12, seed=3)
    a = pso_search(ds, make_ev(ds, 60), PsoParams(pop_size=10), seed=4)
    b = pso_search(ds, make_ev(ds, 60), PsoParams(pop_size=10), seed=4)
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.final_mask, b.final_mask)


def test_constant_fitness_keeps_initial_gbest():
    # strict pbest improvement: on a flat landscape nothing ever moves,
    # so the final mask is the first initial particle (earliest argmax)
    ds = constant_dataset(n=16, d=9)
    p = PsoParams(pop_size=4)
    ev = make_ev(ds, budget=40, folds_k=4)
    trace = pso_search(ds, ev, p, seed=13)
    positions = replay_initial_positions(13, 4, 9)
    assert np.array_equal(trace.final_mask, positions[0])
    assert len(set(trace.best_fitness)) == 1


def test_single_feature_dataset_runs():
    ds = blob_dataset(12, 1, seed=0)
    ev = make_ev(ds, budget=12, folds_k=3)
    trace = pso_search(ds, ev, PsoParams(pop_size=3), seed=2)
    assert trace.final_mask.tolist() == [1]
    assert ev.used == 12
