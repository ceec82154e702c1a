import math

import numpy as np
import pytest

from conftest import STANDARD_X0, pure_death_model
from parasitelab import ssa
from parasitelab.ode import integrate
from parasitelab.rates import EventKind
from parasitelab.ssa import (CapExceeded, PathRecord, SupL1Error, _apply_event,
                             simulate, state_at, sup_l1_error,
                             window_transition_count)
from parasitelab.state import PopulationState


def test_absorbing_state_no_jumps(model61):
    path = simulate(model61, PopulationState.from_dict({0: 10}), 10, 5.0, 0)
    assert path.n_jumps == 0
    assert path.final == path.initial


def test_exponential_no_jump_fraction():
    # single host, unit death rate: no jump by t = 1 with probability e^{-1}
    pd = pure_death_model(1.0)
    xi = PopulationState.from_dict({1: 1})
    runs = 10_000
    none = sum(simulate(pd, xi, 1, 1.0, s).n_jumps == 0 for s in range(runs))
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / runs)
    assert abs(none / runs - p) <= 3 * se


def test_determinism_across_runs(model61, xi0_100):
    a = simulate(model61, xi0_100, 100, 1.0, 12345)
    b = simulate(model61, xi0_100, 100, 1.0, 12345)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.kinds, b.kinds)
    assert np.array_equal(a.load_from, b.load_from)
    assert np.array_equal(a.load_to, b.load_to)
    c = simulate(model61, xi0_100, 100, 1.0, 12346)
    assert not np.array_equal(a.times, c.times)


def test_host_conservation_exact(model61, xi0_100):
    # closed population: every event preserves the host count
    path = simulate(model61, xi0_100, 100, 2.0, 7)
    for t in np.linspace(0.0, 2.0, 9):
        assert state_at(path, float(t)).total_hosts == 100
    assert path.final.total_hosts == 100


def test_replay_reproduces_final(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 1.0, 99)
    assert state_at(path, 1.0) == path.final
    assert np.all(np.diff(path.times) > 0)
    assert path.times.size == 0 or path.times[-1] <= 1.0
    kinds = {path.kind(k) for k in range(path.n_jumps)}
    assert kinds <= {EventKind.BASELINE_MOVE, EventKind.INTERACTION_MOVE,
                     EventKind.IMMIGRATION, EventKind.BASELINE_DEATH,
                     EventKind.INTERACTION_DEATH}


def test_state_at_examples(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 1.0, 4)
    assert state_at(path, 0.0) == path.initial
    assert state_at(path, 1.0) == path.final
    if path.n_jumps >= 2:
        mid = 0.5 * (path.times[0] + path.times[1])
        expected = path.initial.to_dense(60).copy()
        lf, lt = int(path.load_from[0]), int(path.load_to[0])
        if lf >= 0:
            expected[lf] -= 1
        if lt >= 0:
            expected[lt] += 1
        assert state_at(path, float(mid)) == PopulationState.from_dense(expected)
    with pytest.raises(ValueError):
        state_at(path, 1.5)


def test_window_transition_counts(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 2.0, 11)
    assert window_transition_count(path, 0.7, 0.0) == 0
    assert window_transition_count(path, 0.0, 2.0) == path.n_jumps
    # disjoint windows partition the horizon: counts add up
    edges = np.linspace(0.0, 2.0, 9)
    total = sum(window_transition_count(path, float(a), float(b - a))
                for a, b in zip(edges, edges[1:]))
    assert total == path.n_jumps
    with pytest.raises(ValueError):
        window_transition_count(path, 1.5, 1.0)


def test_immigration_grows_population(model62):
    xi0 = PopulationState.from_dict({1: 45, 2: 5})
    path = simulate(model62, xi0, 50, 1.0, 21)
    kinds = [path.kind(k) for k in range(path.n_jumps)]
    assert EventKind.IMMIGRATION in kinds


def test_first_moment_vs_pure_birth_bound(model62):
    # mean host count stays under the pure-birth comparison bound
    N, T, runs = 50, 1.0, 300
    xi0 = PopulationState.from_dict({1: 45, 2: 5})
    e = model62.interaction.envelopes
    bound = N * (1.0 + e.b10 / e.b01(0.0)) * math.exp(T * e.b01(0.0))
    finals = [simulate(model62, xi0, N, T, s).final.total_hosts
              for s in range(runs)]
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1)) / math.sqrt(runs)
    assert mean <= bound + 3 * se


def test_cap_exceeded_carries_partial_path(model61, xi0_100):
    with pytest.raises(CapExceeded) as exc:
        simulate(model61, xi0_100, 100, 2.0, 3, event_cap=5)
    partial = exc.value.partial
    assert partial.n_jumps == 5
    assert partial.times[-1] < 2.0


def test_sup_l1_error_zero_rate_exact():
    # absorbing state and constant trajectory: the error is exactly the gap
    pd = pure_death_model(1.0)
    sol = integrate(pd, np.array([1.0, 0.0]), 1.0, J=1)
    path = simulate(pd, PopulationState.from_dict({0: 4}), 4, 1.0, 0)
    err = sup_l1_error(path, sol, 4)
    assert err.value == pytest.approx(0.0, abs=1e-12)
    assert float(err) == err.value


def test_sup_l1_error_zero_jump_moving_ode(model61):
    # all-healthy population is absorbing but a seeded trajectory moves
    sol = integrate(model61, STANDARD_X0, 1.0, J=54)
    path = simulate(model61, PopulationState.from_dict({0: 10}), 10, 1.0, 0)
    assert path.n_jumps == 0
    err = sup_l1_error(path, sol, 10)
    brute = max(float(np.abs(np.pad(np.array([1.0]), (0, 54)) - sol.density(t)).sum())
                for t in np.linspace(0, 1, 2001))
    assert err.value == pytest.approx(brute, abs=err.slack + 1e-9)


def test_sup_l1_error_self_refinement(model61, xi0_100, sol61_T1):
    path = simulate(model61, xi0_100, 100, 1.0, 42)
    coarse = sup_l1_error(path, sol61_T1, 100, refine=64)
    fine = sup_l1_error(path, sol61_T1, 100, refine=640)
    assert fine.value >= coarse.value - 1e-12
    assert fine.value - coarse.value <= coarse.slack + 1e-12
    assert fine.slack < coarse.slack


def test_sup_l1_error_horizon_mismatch(model61, xi0_100, sol61):
    path = simulate(model61, xi0_100, 100, 1.0, 1)
    with pytest.raises(ValueError, match="horizon"):
        sup_l1_error(path, sol61, 100)


def test_path_csv_dump(tmp_path, model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 0.5, 8)
    f = tmp_path / "path.csv"
    path.write_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == f"# model=luchsinger_nonlinear N=100 T=0.5 seed=8"
    assert lines[1] == "jump_index,time,event_kind,load_from,load_to"
    assert len(lines) == 2 + path.n_jumps


def _sup_l1_error_scalar(path, ode, N, refine=256):
    """Reference: the event-by-event sweep with one density call per time."""
    if abs(path.T - ode.T) > 1e-12:
        raise ValueError(f"horizon mismatch: path T = {path.T}, ode T = {ode.T}")
    width = max(path.initial.max_load + 1, ode.J + 1,
                int(path.load_to.max(initial=0)) + 1)
    counts = np.zeros(width, dtype=np.int64)
    dense0 = path.initial.to_dense()
    counts[: dense0.size] = dense0

    def err_at(t: float, counts_vec: np.ndarray) -> float:
        x = ode.density(t)
        diff = counts_vec.astype(np.float64) / N
        diff[: x.size] -= x
        return float(np.abs(diff).sum())

    grid_gap = path.T / refine if refine > 0 else path.T
    sup = err_at(0.0, counts)
    max_gap = 0.0
    prev_t = 0.0

    def sweep_gap(a: float, b: float, counts_vec: np.ndarray) -> None:
        nonlocal sup, max_gap
        if b <= a:
            return
        n_pts = int(np.floor((b - a) / grid_gap)) if grid_gap > 0 else 0
        last = a
        for m in range(1, n_pts + 1):
            u = a + m * grid_gap
            if u >= b:
                break
            sup = max(sup, err_at(u, counts_vec))
            max_gap = max(max_gap, u - last)
            last = u
        max_gap = max(max_gap, b - last)

    for k in range(path.n_jumps):
        tk = float(path.times[k])
        sweep_gap(prev_t, tk, counts)
        sup = max(sup, err_at(tk, counts))          # left limit
        counts = _apply_event(counts, int(path.kinds[k]),
                              int(path.load_from[k]), int(path.load_to[k]))
        if counts.size > width:
            width = counts.size
        sup = max(sup, err_at(tk, counts))          # right limit
        prev_t = tk
    sweep_gap(prev_t, path.T, counts)
    sup = max(sup, err_at(path.T, counts))

    slack = max_gap * ode.drift_l1_bound()
    return SupL1Error(sup, slack)


def _assert_sweeps_identical(path, sol, N, monkeypatch):
    for refine in (0, 1, 64, 256):
        ref = _sup_l1_error_scalar(path, sol, N, refine)
        assert sup_l1_error(path, sol, N, refine) == ref, refine
        with monkeypatch.context() as m:
            m.setattr(ssa, "_SWEEP_CHUNK", 5)       # many chunks per path
            assert sup_l1_error(path, sol, N, refine) == ref, refine


def test_sup_l1_error_matches_scalar_sweep(model61, sol61_T1, monkeypatch):
    for N in (10, 60, 300):
        xi0 = PopulationState.from_dense(np.round(STANDARD_X0 * N).astype(np.int64))
        for seed in (0, 1, 2):
            path = simulate(model61, xi0, N, 1.0, seed)
            assert path.n_jumps > 0
            _assert_sweeps_identical(path, sol61_T1, N, monkeypatch)


def test_sup_l1_error_zero_jumps_matches_scalar(model61, sol61_T1, monkeypatch):
    path = simulate(model61, PopulationState.from_dict({0: 10}), 10, 1.0, 0)
    assert path.n_jumps == 0
    _assert_sweeps_identical(path, sol61_T1, 10, monkeypatch)


def test_sup_l1_error_loads_above_truncation(model61_heavy, monkeypatch):
    sol = integrate(model61_heavy, np.array([0.5, 0.5]), 1.0, J=2)
    path = simulate(model61_heavy, PopulationState.from_dict({0: 50, 1: 50}), 100, 1.0, 3)
    assert int(path.load_to.max()) > sol.J
    _assert_sweeps_identical(path, sol, 100, monkeypatch)


def test_sup_l1_error_jumps_on_grid_points(model61, sol61_T1, monkeypatch):
    # jumps at multiples of T / 4 and T / 64, so refinement points hit them
    xi0 = PopulationState.from_dict({0: 3, 1: 2})
    times = np.array([0.25, 0.5, 0.5 + 1.0 / 64, 0.75, 1.0])
    path = PathRecord(model61.name, 5, 1.0, 0, xi0, times,
                      np.zeros(5, dtype=np.int8), np.array([1, 0, 4, 3, 0]),
                      np.array([0, 4, 3, -1, 2]), xi0)
    _assert_sweeps_identical(path, sol61_T1, 5, monkeypatch)
    for refine in (4, 64, 128):
        assert sup_l1_error(path, sol61_T1, 5, refine) == \
            _sup_l1_error_scalar(path, sol61_T1, 5, refine)
