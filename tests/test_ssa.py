import math

import numpy as np
import pytest

from conftest import STANDARD_X0, pure_death_model
from parasitelab import (OffspringLaw, kretzschmar_modified, luchsinger_linear,
                         luchsinger_nonlinear, ssa)
from parasitelab.harness import round_initial
from parasitelab.ode import integrate
from parasitelab.rates import (BaselineGenerator, Envelopes, EventKind,
                               InteractionSpec, ModelSpec, _check_rate)
from parasitelab.ssa import CapExceeded, PathRecord, SupL1Error, simulate, sup_l1_error
from parasitelab.state import PopulationState


def _apply_event(counts: np.ndarray, kind_idx: int, lf: int, lt: int) -> np.ndarray:
    """Reference: the per-event count update, growing the array on demand."""
    if lf >= 0:
        counts[lf] -= 1
    if lt >= 0:
        if lt >= counts.size:
            counts = np.concatenate([counts, np.zeros(lt + 1 - counts.size, dtype=counts.dtype)])
        counts[lt] += 1
    return counts


def _state_at_reference(path: PathRecord, t: float) -> PopulationState:
    """Reference: the per-event replay up to the last jump <= t."""
    if not 0.0 <= t <= path.T:
        raise ValueError(f"t = {t} outside [0, {path.T}]")
    counts = path.initial.to_dense(max(path.initial.max_load + 1, 1)).copy()
    upto = int(np.searchsorted(path.times, t, side="right"))
    for k in range(upto):
        counts = _apply_event(counts, int(path.kinds[k]),
                              int(path.load_from[k]), int(path.load_to[k]))
    return PopulationState.from_dense(counts)


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
    assert np.all(path.counts_at(np.linspace(0.0, 2.0, 9)).sum(axis=1) == 100)
    assert path.final.total_hosts == 100


def test_replay_reproduces_final(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 1.0, 99)
    assert PopulationState.from_dense(path.counts_at([1.0])[0]) == path.final
    assert np.all(np.diff(path.times) > 0)
    assert path.times.size == 0 or path.times[-1] <= 1.0
    kinds = {path.kind(k) for k in range(path.n_jumps)}
    assert kinds <= {EventKind.BASELINE_MOVE, EventKind.INTERACTION_MOVE,
                     EventKind.IMMIGRATION, EventKind.BASELINE_DEATH,
                     EventKind.INTERACTION_DEATH}


def test_counts_at_examples(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 1.0, 4)
    assert path.n_jumps >= 2
    mid = 0.5 * (path.times[0] + path.times[1])
    rows = path.counts_at([0.0, 1.0, mid], width=60)
    assert rows.dtype == np.int64 and rows.shape == (3, 60)
    expected = path.initial.to_dense(60).copy()
    assert np.array_equal(rows[0], expected)
    assert PopulationState.from_dense(rows[1]) == path.final
    lf, lt = int(path.load_from[0]), int(path.load_to[0])
    if lf >= 0:
        expected[lf] -= 1
    if lt >= 0:
        expected[lt] += 1
    assert np.array_equal(rows[2], expected)


def _assert_counts_match_reference(path: PathRecord, ts, width: int = 1) -> np.ndarray:
    rows = path.counts_at(ts, width)
    need = max(width, path.initial.max_load + 1, int(path.load_to.max(initial=0)) + 1)
    assert rows.dtype == np.int64 and rows.shape == (len(ts), need)
    for row, t in zip(rows, ts):
        assert PopulationState.from_dense(row) == _state_at_reference(path, float(t)), t
    return rows


def _query_times(path: PathRecord, rng) -> np.ndarray:
    # both ends, every jump time exactly, midpoints, repeats, shuffled
    mids = 0.5 * (path.times[1:] + path.times[:-1])
    ts = np.concatenate(([0.0, path.T, path.T], path.times, path.times[::3], mids))
    return rng.permutation(ts)


@pytest.mark.parametrize("case", range(5))
def test_counts_at_matches_reference_replay(case):
    model, x0 = _example_models()[case]
    rng = np.random.default_rng(case)
    for N in (20, 80):
        xi0 = round_initial(np.array(x0), N)
        for seed in range(2):
            path = simulate(model, xi0, N, 2.0, seed)
            assert path.n_jumps > 0
            _assert_counts_match_reference(path, _query_times(path, rng))
            assert PopulationState.from_dense(path.counts_at([2.0])[0]) == path.final


def test_counts_at_immigration_and_targets_past_initial_width(model62, model61_heavy):
    path = simulate(model62, PopulationState.from_dict({1: 45, 2: 5}), 50, 1.0, 21)
    assert np.any(path.load_from < 0)               # immigration events
    _assert_counts_match_reference(path, _query_times(path, np.random.default_rng(1)))
    path = simulate(model61_heavy, PopulationState.from_dict({0: 50, 1: 50}), 100, 1.0, 3)
    assert int(path.load_to.max()) > path.initial.max_load + 1
    _assert_counts_match_reference(path, _query_times(path, np.random.default_rng(2)), 4)


def test_counts_at_hand_built_path():
    # immigration into an empty state, a death, a target past the initial width
    xi0 = PopulationState.from_dict({1: 1})
    times = np.array([0.2, 0.4, 0.4 + 1.0 / 64, 0.9])
    path = PathRecord("hand", 3, 1.0, 0, xi0, times, np.array([2, 3, 0, 0], dtype=np.int8),
                      np.array([-1, 1, 3, 0]), np.array([3, -1, 0, 6]),
                      PopulationState.from_dict({6: 1}))
    ts = [1.0, 0.0, 0.4, 0.4, 0.3, 0.9, 0.95, 0.4 + 1.0 / 64]
    rows = _assert_counts_match_reference(path, ts)
    assert rows.shape == (8, 7)
    assert rows[0].tolist() == [0, 0, 0, 0, 0, 0, 1]
    assert rows[4].tolist() == [0, 1, 0, 1, 0, 0, 0]
    _assert_counts_match_reference(path, ts, width=10)


def test_counts_at_without_jumps(model61):
    path = simulate(model61, PopulationState.from_dict({0: 10}), 10, 1.0, 0)
    assert path.n_jumps == 0
    rows = _assert_counts_match_reference(path, [0.5, 0.0, 1.0, 0.5])
    assert rows.tolist() == [[10]] * 4
    empty = PathRecord("none", 1, 1.0, 0, PopulationState.empty(), np.array([]),
                       np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), PopulationState.empty())
    assert empty.counts_at([0.0, 1.0]).tolist() == [[0], [0]]
    assert empty.counts_at([], width=3).shape == (0, 3)


def test_counts_at_width_padding(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 1.0, 4)
    narrow = path.counts_at([0.3, 1.0])
    wide = path.counts_at([0.3, 1.0], width=narrow.shape[1] + 5)
    assert wide.shape == (2, narrow.shape[1] + 5)
    assert np.array_equal(wide[:, : narrow.shape[1]], narrow)
    assert not wide[:, narrow.shape[1]:].any()


def test_counts_at_rejects_times_outside_horizon(model61, xi0_100):
    path = simulate(model61, xi0_100, 100, 1.0, 4)
    for bad in ([1.5], [-1e-12], [0.5, 1.0 + 1e-12], [math.nan]):
        with pytest.raises(ValueError, match="outside"):
            path.counts_at(bad)
        with pytest.raises(ValueError, match="outside"):
            _state_at_reference(path, bad[-1])


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


def _simulate_reference(model, xi0, N, T, seed, event_cap=ssa.EVENT_CAP_DEFAULT):
    """Reference: the array jump loop the scalar loop replaced, verbatim."""
    _KIND_INDEX = ssa._KIND_INDEX
    if N < 1 or T < 0:
        raise ValueError("require N >= 1 and T >= 0")
    rng = np.random.default_rng(seed)
    seed_repr = seed if isinstance(seed, int) else -1
    base = model.baseline
    inter = model.interaction

    counts = xi0.to_dense(max(xi0.max_load + 1, 1)).copy()
    times: list[float] = []
    kinds: list[int] = []
    lfrom: list[int] = []
    lto: list[int] = []

    def finish() -> PathRecord:
        return PathRecord(
            model.name, N, T, seed_repr, xi0,
            np.array(times), np.array(kinds, dtype=np.int8),
            np.array(lfrom, dtype=np.int64), np.array(lto, dtype=np.int64),
            PopulationState.from_dense(counts),
        )

    t = 0.0
    while True:
        if len(times) >= event_cap:
            raise CapExceeded(finish(), event_cap)
        nz = np.nonzero(counts)[0]
        top = int(nz[-1]) if nz.size else 0
        x = counts[: top + 1].astype(np.float64) / N

        # channel table: (kind, load, rate); baseline exits aggregated per load
        ch_kind: list[int] = []
        ch_load: list[int] = []
        ch_rate: list[float] = []
        astar = base.alpha_star_array(top)
        dbar = base.dbar_array(top)
        for i in nz:
            i = int(i)
            exit_rate = counts[i] * (astar[i] + dbar[i])
            if exit_rate > 0.0:
                ch_kind.append(-1)  # baseline group, split after selection
                ch_load.append(i)
                ch_rate.append(exit_rate)
            if inter.alpha_loads is None or i in inter.alpha_loads:
                a = _check_rate("alpha_total", i, inter.alpha_total_at(i, x))
                if a > 0.0:
                    ch_kind.append(_KIND_INDEX[EventKind.INTERACTION_MOVE])
                    ch_load.append(i)
                    ch_rate.append(counts[i] * a)
            if not inter.delta_zero:
                d = _check_rate("delta", i, inter.delta_at(i, x))
                if d > 0.0:
                    ch_kind.append(_KIND_INDEX[EventKind.INTERACTION_DEATH])
                    ch_load.append(i)
                    ch_rate.append(counts[i] * d)
        if not inter.beta_zero:
            b = _check_rate("beta_total", -1, inter.beta_total_at(x))
            if b > 0.0:
                ch_kind.append(_KIND_INDEX[EventKind.IMMIGRATION])
                ch_load.append(-1)
                ch_rate.append(N * b)

        rates = np.array(ch_rate)
        total = float(rates.sum())
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > T:
            break

        cum = np.cumsum(rates)
        u = rng.random() * total
        pick = min(int(np.searchsorted(cum, u, side="right")), rates.size - 1)
        kind_idx = ch_kind[pick]
        i = ch_load[pick]

        if kind_idx == -1:
            # split the baseline exit of load i into its moves and death
            chosen = base.sample_exit(i, rng.random() * (astar[i] + dbar[i]), dbar[i])
            if chosen is None:
                kind_idx = _KIND_INDEX[EventKind.BASELINE_DEATH]
                lf, lt = i, -1
            else:
                kind_idx = _KIND_INDEX[EventKind.BASELINE_MOVE]
                lf, lt = i, chosen
        elif kind_idx == _KIND_INDEX[EventKind.INTERACTION_MOVE]:
            lf, lt = i, int(inter.alpha_sample(i, x, rng))
        elif kind_idx == _KIND_INDEX[EventKind.IMMIGRATION]:
            lf, lt = -1, int(inter.beta_sample(x, rng))
        else:
            lf, lt = i, -1

        counts = _apply_event(counts, kind_idx, lf, lt)
        times.append(t)
        kinds.append(kind_idx)
        lfrom.append(lf)
        lto.append(lt)

    return finish()


def _assert_paths_identical(a: PathRecord, b: PathRecord) -> None:
    for name in ("times", "kinds", "load_from", "load_to"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.final == b.final and a.initial == b.initial


def _wide_model() -> ModelSpec:
    """Every channel kind, with rates that vary with x in their last bits."""

    def moves(i):
        if i == 0:
            return ((1, 0.1),)
        return ((i - 1, 0.5 * i), (i + 1, 0.3 / i))

    base = BaselineGenerator(moves, lambda i: 0.3 * math.sqrt(i), m1=1.0, m2=1.0)
    weights = lambda x: x * np.arange(x.size)            # noqa: E731
    inter = InteractionSpec(
        alpha_total=lambda i, x: 0.7 * float(x[1:].sum()) / (1.0 + x[0]),
        alpha_sample=lambda i, x, rng: int(rng.integers(1, 4)),
        alpha_pointwise=lambda i, l, x: 0.0,
        beta_total=lambda x: 0.01 + 0.001 * float(weights(x).sum()),
        beta_sample=lambda x, rng: int(rng.integers(1, 6)),
        beta_pointwise=lambda i, x: 0.0,
        delta=lambda i, x: 0.013 * i * (1.0 + float(x @ x)),
        envelopes=Envelopes(),
        alpha_loads=frozenset({0}),
    )
    return ModelSpec("wide", base, inter)


def _example_models():
    table = OffspringLaw.table(np.array([0.3, 0.5, 0.2]))
    return [
        (luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)), [0.9, 0.1]),
        (luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)), [0.0, 0.9, 0.1]),
        (kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0, 0.3, 0.2,
                              beta_birth=0.5, birth_discount=0.9, c=1.0), [0.5, 0.3, 0.2]),
        (luchsinger_nonlinear(1.5, 1.0, 0.5, table), [0.7, 0.2, 0.1]),
        (kretzschmar_modified(1.5, OffspringLaw.geometric(0.6), 1.0, 0.3, 0.2,
                              beta_birth=0.5, birth_discount=0.9, c=1.0), [0.5, 0.3, 0.2]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_simulate_matches_reference_loop(case):
    model, x0 = _example_models()[case]
    for N in (20, 200):
        xi0 = round_initial(np.array(x0), N)
        for seed in range(4):
            path = simulate(model, xi0, N, 2.0, seed)
            assert path.n_jumps > 0
            _assert_paths_identical(path, _simulate_reference(model, xi0, N, 2.0, seed))


def test_simulate_matches_reference_on_wide_state(monkeypatch):
    # 80 occupied loads: the channel totals pass through every branch of
    # the pairwise sum (> 128, 8..128 and < 8 channels)
    model = _wide_model()
    xi0 = PopulationState.from_dense(np.array([3] + [1] * 79))
    lengths = []
    real_sum = ssa._pairwise_sum

    def spy(v, lo=0, n=None):
        if n is None:
            lengths.append(len(v))
        return real_sum(v, lo, n)

    monkeypatch.setattr(ssa, "_pairwise_sum", spy)
    kinds = set()
    for seed in range(3):
        path = simulate(model, xi0, 82, 8.0, seed)
        _assert_paths_identical(path, _simulate_reference(model, xi0, 82, 8.0, seed))
        kinds |= {path.kind(k) for k in range(path.n_jumps)}
    assert kinds == set(EventKind)
    assert max(lengths) > 128 and min(lengths) < 8
    assert any(8 <= n <= 128 for n in lengths)


def test_cap_exceeded_partial_path_matches_reference(model61, xi0_100):
    with pytest.raises(CapExceeded) as new:
        simulate(model61, xi0_100, 100, 2.0, 3, event_cap=5)
    with pytest.raises(CapExceeded) as ref:
        _simulate_reference(model61, xi0_100, 100, 2.0, 3, event_cap=5)
    _assert_paths_identical(new.value.partial, ref.value.partial)
    assert str(new.value) == str(ref.value)


def test_cap_exceeded_without_jumps_reports_time_zero(model61, xi0_100):
    with pytest.raises(CapExceeded, match=r"event cap 0 exceeded at t = 0$") as exc:
        simulate(model61, xi0_100, 100, 2.0, 3, event_cap=0)
    assert exc.value.partial.n_jumps == 0


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(11)
    differs_from_plain_loop = 0
    for _ in range(2000):
        n = int(rng.integers(1, 601))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        if rng.random() < 0.5:
            v = np.abs(v)
        values = v.tolist()
        expected = float(np.add.reduce(v))
        assert ssa._pairwise_sum(values) == expected, n
        plain = 0.0
        for value in values:
            plain += value
        differs_from_plain_loop += plain != expected
    # the order matters: a left-to-right loop rounds differently
    assert differs_from_plain_loop > 0
    assert ssa._pairwise_sum([]) == 0.0
