"""Pinned random streams of every engine, as SHA-256 digests.

Each digest hashes the complete fixed-seed output of one engine on one
example model at one N, over several seeds: the ``PathRecord`` arrays of
``simulate`` and ``simulate_tilde``; the evaluation-time values, tau,
sup errors, event and ghost counts, the recorded V trajectory and the
final four-component state of ``simulate_coupled``; and
``compensator_intensity`` (``tests/coupling_ref.py``) at the initial and
final coupled states.  A
second coupled case also hashes the compensator bound ratio on runs that
grow their load arrays and reach tau before the horizon.  The last
group hashes the CSV bodies that ``certify``, ``converge`` and
``couple`` write.  A refactor that claims to change no output must
leave every digest as it is.  A digest may change only together with a
CHANGES.md entry that declares which random stream changed and why.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from coupling_ref import compensator_intensity
from parasitelab import (OffspringLaw, harness, kretzschmar_modified,
                         luchsinger_linear, luchsinger_nonlinear)
from parasitelab.coupling import CouplingState, simulate_coupled
from parasitelab.harness import round_initial
from parasitelab.ode import integrate
from parasitelab.ssa import simulate
from parasitelab.state import PopulationState
from parasitelab.tilde import (concentration_check, mean_identity_check, moment_bound_check,
                               simulate_tilde)

T = 1.0
N_LIST = (20, 60)
SEEDS = (0, 1, 2)
EVAL_TIMES = (0.25, 0.5, 1.0)

MODELS = {
    "luchsinger_nonlinear": (
        lambda: luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        [0.9, 0.1]),
    "luchsinger_linear": (
        lambda: luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
        [0.0, 0.9, 0.1]),
    "kretzschmar_modified": (
        lambda: kretzschmar_modified(1.5, OffspringLaw.poisson(0.6), 1.0, 0.3, 0.2,
                                     beta_birth=0.5, birth_discount=0.9, c=1.0),
        [0.5, 0.3, 0.2]),
}

EXPECTED = {
    "kretzschmar_modified": {
        "ssa/N20": "5e61fcbe762e7637c42b19bd29b881c735caa980506866d1826fec5dbde50527",
        "tilde/N20": "3224b06e430138648406163f085a571e974c812724ed7869aed088b62137c86b",
        "coupled/N20": "63d088eddbf9fd8d5aac26d703a3c6c74fa786e6704f0323d5d63a423d555d8c",
        "compensator/N20": "893f8da29347e21f3298ab33e5d8d07f29cb81f0135e3db6b3a80e900f0d16bd",
        "ssa/N60": "ade2410dfe8fcfe273c060d33891485bac3e17590d466903b5fba4e9576d8b1a",
        "tilde/N60": "64e90524b62e0e3f883445ef36eea58fcf55163144f0fcc1bfed34437ba6144f",
        "coupled/N60": "842a25a303dda5d819da375342f6652bc37a897bc6ca978dcc6a27c8aa52fad1",
        "compensator/N60": "6a0ca90d8563b9de59146bd455b56b06044fa96664dd5ff470291f70306f00e5",
    },
    "luchsinger_linear": {
        "ssa/N20": "044d36931b04700d1a4fd66f4695c758b85bd591afef1d097f5cd8b0485f0f5b",
        "tilde/N20": "22fd8cfe07f67ac4a26039d0d01f6b0ad077893bc064ea3c805ac1aa0ce4251b",
        "coupled/N20": "7c4e3fae4bac55262dc7a963dcc141401a0b299f7ed37f9b135f28a011f302a4",
        "compensator/N20": "903dc5e5b729111b8507cf494f6700e235c4e2565291802b6e65ed11ae2d53a6",
        "ssa/N60": "4b6c36fa728924a52e36fbab08c067a2371d2684e0332c5ce4cb938671b66967",
        "tilde/N60": "fcf8a8501a8d2fe179eac833842d62bd4ac8bd157c2822fbf592fba3cf155977",
        "coupled/N60": "f900a323e3675de01ca2e6c7c30c0ed6d93a03b81e21c09f3eefdbf2c8b6808f",
        "compensator/N60": "899f4645fab397204a059424f01bac440faccc5eb24d83719f73f7a92146fb1d",
    },
    "luchsinger_nonlinear": {
        "ssa/N20": "f6eab61c7f279545b21bce23586b7fc63496263138ef6cc1d40c2299b32c2739",
        "tilde/N20": "df8cb47b0dd231d6eb6f88e6d2347bee01835952074b0c3dde816db7458f8f28",
        "coupled/N20": "9a68de216e0f1f2f10b7e9a46e52c179d36aebd15684a604794ea0a78a39077c",
        "compensator/N20": "4d06a5816d470468449ec86eb782144e25919deead9ab6e472ab0eed6cf2cdbe",
        "ssa/N60": "6d290bc704e89cebd658ec4667d9b8b8dcd0aa763a8c4a74d637d68271798ad0",
        "tilde/N60": "cc560ad473a1b6c47f02c9a4ebd96c87def3342458883348b9cdd94c02e77780",
        "coupled/N60": "92f72ceeac6be75829576f6ef1da7a34c27b49301ca65e86c841ac1e723c2503",
        "compensator/N60": "dbe7af0febeefae03d3e3631dcdaceb07f5ad2ff78371fdd13830f36ebff407d",
    },
}


def _update(h, *parts) -> None:
    for p in parts:
        a = np.ascontiguousarray(np.asarray(p))
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())


def _path_parts(path):
    return (path.times, path.kinds, path.load_from, path.load_to, path.final.to_dense())


def _coupled_parts(run):
    f = run.final
    return (run.V_at, run.A_at, math.nan if run.tau_N is None else run.tau_N,
            run.sup_err_X, run.sup_err_tilde, run.n_events, run.n_ghosts,
            run.times, run.V_traj, f.Z1.to_dense(), f.Z2.to_dense(),
            f.Z3.to_dense(), f.Z4)


def stream_digests(name: str) -> dict[str, str]:
    make, x0 = MODELS[name]
    model = make()
    out = {}
    for N in N_LIST:
        xi0 = round_initial(np.array(x0), N)
        sol = integrate(model, xi0.to_dense().astype(np.float64) / N, T, J=54)
        start = CouplingState(xi0, PopulationState.empty(), PopulationState.empty(), 0)
        h = {k: hashlib.sha256() for k in ("ssa", "tilde", "coupled", "compensator")}
        for seed in SEEDS:
            _update(h["ssa"], *_path_parts(simulate(model, xi0, N, T, seed)))
            _update(h["tilde"], *_path_parts(simulate_tilde(model, xi0, N, T, sol, seed)))
            run = simulate_coupled(model, xi0, N, T, sol, seed,
                                   eval_times=EVAL_TIMES, record_trajectory=True)
            _update(h["coupled"], *_coupled_parts(run))
            _update(h["compensator"],
                    *[compensator_intensity(model, state, t, N, sol)
                      for state in (start, run.final) for t in (0.0, T / 2, T)])
        out.update({f"{k}/N{N}": v.hexdigest() for k, v in h.items()})
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stream_digests(name):
    assert stream_digests(name) == EXPECTED[name]


# coupled runs on a coarse truncation J at small N, chosen so that the
# load arrays grow past their initial width and tau is reached before T,
# with evaluation times on both sides of tau
GROW_TAU_CASES = {
    "kretzschmar_modified": (
        lambda: kretzschmar_modified(3.0, OffspringLaw.poisson(2.0), 1.0, 0.3, 0.2,
                                     beta_birth=1.0, birth_discount=0.9, c=1.0),
        [0.5, 0.3, 0.2], 2, 1,
        "c6fbcecf09738f44b1c0b112f7d9bdf9892643e41a20ec03575b247a17a7e6fd"),
    "luchsinger_linear": (
        lambda: luchsinger_linear(2.0, 1.0, 0.5, OffspringLaw.poisson(2.0)),
        [0.0, 0.5, 0.5], 3, 2,
        "1350badb79ad0fd540bf1b28bf1185a065eba5c757e83ccb7f932712e37c7688"),
}


@pytest.mark.parametrize("name", sorted(GROW_TAU_CASES))
def test_coupled_stream_grows_and_stops(name):
    make, x0, J, seed, expected = GROW_TAU_CASES[name]
    model, N = make(), 8
    xi0 = round_initial(np.array(x0), N)
    sol = integrate(model, xi0.to_dense().astype(np.float64) / N, T, J=J)
    run = simulate_coupled(model, xi0, N, T, sol, seed,
                           eval_times=(0.2, 0.5, 0.75, 1.0), record_trajectory=True)
    f = run.final
    width0 = max(xi0.max_load + 1, sol.J + 1)
    assert max(f.Z1.max_load, f.Z2.max_load, f.Z3.max_load) + 1 > width0
    assert run.tau_N is not None and run.tau_N < T
    h = hashlib.sha256()
    _update(h, *_coupled_parts(run), run.compensator_bound_ratio,
            run.compensator_bound_checked,
            *[compensator_intensity(model, f, t, N, sol) for t in (0.0, T / 2, T)])
    assert h.hexdigest() == expected


# the three X~ checks on small instances of the three example models: the
# report fields are hashed, so a change in how the checks read counts off
# their paths (widths, replay, summation order) shows as a new digest.
# The "grow" cases use a coarse truncation J, so paths reach loads past
# the limit's width.
CHECK_N = 30
CHECK_REPLICAS = 6
CHECK_CASES = {name: (make, x0, 54) for name, (make, x0) in MODELS.items()}
CHECK_CASES.update({f"{name}/grow": (make, x0, J)
                    for name, (make, x0, J, _, _) in GROW_TAU_CASES.items()})

EXPECTED_CHECKS = {
    "kretzschmar_modified": {
        "moment": "0df9a9bb30d9c97626e841c20cd149d258697e528d62b9b5663bd6011c525da9",
        "mean_identity": "cfc9f0e2369727dcece34eea566e56c3b520915812c6c818600da94794122124",
        "concentration": "fa21623c1db7b1d22a937a88036b96874a12c434ef9de4170922249845403fd4",
    },
    "kretzschmar_modified/grow": {
        "moment": "b6aacfb9c39ed37e453169efb4e689a096a26dc5e31d1a06a3ddb7f3e092cf60",
        "mean_identity": "5ccf169c17a869355a280b83602982a3a710e0fcda3e1cf7f12bb4b73879b387",
        "concentration": "fd932c2fbeef8dfabb3e2c0a4b61077830a275a1394df2ce1732f13e93e79b63",
    },
    "luchsinger_linear": {
        "moment": "5ecb3c567dd65d62a0022e9479b7c0ef06e55a6da52396ceef2eab8dcd7cddee",
        "mean_identity": "0e6f730c68f821b88836c2ea546196aec8ed3b17ef6225e19f22178661e78a73",
        "concentration": "f0c2d02b56f5dae655bf3041443c891f8c90d70ef1bf11fa5a0adbf164db6ec3",
    },
    "luchsinger_linear/grow": {
        "moment": "a8ac0dd4042af5639dbb35b60bff90c038a66d12517899bcedebdf67c6331725",
        "mean_identity": "c96c8b1c84cd6f7be7e728c451ca0af973ba921ddd064224a17e293adbbdd1f8",
        "concentration": "160a18e00438bf74d206c6be4c5523ce45cff99f922f58c9b7a0020b0cca6a5d",
    },
    "luchsinger_nonlinear": {
        "moment": "f0190e49eb5a327a4cc0d5e2492f62e0add2c35b1b073c6ed6ebfddf9268611e",
        "mean_identity": "ac923e91a99d55df00de07c2f135dd1eb9501fd2cb77466e8179307613bbf10d",
        "concentration": "e09b4625148e93316311f4f52ff05d60570b047302b54364802a88f8dd1c4884",
    },
}


def check_digests(name: str) -> dict[str, str]:
    make, x0, J = CHECK_CASES[name]
    model = make()
    N, R = CHECK_N, CHECK_REPLICAS
    xi0 = round_initial(np.array(x0), N)
    sol = integrate(model, xi0.to_dense().astype(np.float64) / N, T, J=J)
    h = {k: hashlib.sha256() for k in ("moment", "mean_identity", "concentration")}
    for seed in (0, 1):
        rep = moment_bound_check(model, xi0, N, T, sol, R, seed)
        _update(h["moment"], rep.bound, rep.empirical_sup, rep.margin, rep.grid,
                rep.empirical, rep.replicas)
        rep = mean_identity_check(model, xi0, N, T, sol, R, seed,
                                  ts=(0.3, T / 2, T), max_load=40)
        _update(h["mean_identity"], rep.replicas, rep.worst_z,
                *[np.array(dataclasses.astuple(row)) for row in rep.rows])
        rep = concentration_check(model, xi0, N, T, sol, R, seed)
        _update(h["concentration"], rep.grid, rep.empirical_mean, rep.std_err, rep.bound,
                *[np.array(sorted(d.items())) for d in (rep.tail_thresholds, rep.tail_frequency)],
                rep.replicas)
    return {k: v.hexdigest() for k, v in h.items()}


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_tilde_check_digests(name):
    assert check_digests(name) == EXPECTED_CHECKS[name]


# the CSV bodies the harness writes, header comment line excluded, on small
# configs: every certificate, a convergence study on one and on two
# workers (the same bodies), and the coupled summary
COUPLE_MODEL = {"name": "kretzschmar_modified", "nu": 1.5, "mu": 1.0, "kappa": 0.3,
                "alpha_extra": 0.2, "beta_birth": 0.5, "birth_discount": 0.9, "c": 1.0,
                "offspring": {"family": "poisson", "mean": 0.6}}
NONLINEAR_MODEL = {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0, "kappa": 1.0,
                   "offspring": {"family": "poisson", "mean": 0.8}}
HARNESS_CASES = {
    "certify": (COUPLE_MODEL, [0.5, 0.3, 0.2], [20, 40], 5, harness.run_certificates),
    "converge/1": (NONLINEAR_MODEL, [0.9, 0.1], [20, 40, 80], 6,
                   lambda cfg: harness.run_convergence(cfg, workers=1)),
    "converge/2": (NONLINEAR_MODEL, [0.9, 0.1], [20, 40, 80], 6,
                   lambda cfg: harness.run_convergence(cfg, workers=2)),
    "couple": (COUPLE_MODEL, [0.5, 0.3, 0.2], [20], 5, harness.coupled_summary),
}
EXPECTED_HARNESS = {
    "certify": "72399b8b0f12cd19152d54979032ad6426940a5ea633679bb9a30618a1d62385",
    "converge/1": "cbb0d68e1ad8345ee33358cb4f59aea1c6d10b243c86606a3c1973519d1a77f3",
    "converge/2": "cbb0d68e1ad8345ee33358cb4f59aea1c6d10b243c86606a3c1973519d1a77f3",
    "couple": "ef0f5fafdccbee8d120c47aa2f095b34c7555bfe00e4c1e7d7e6e52bd19f4a0d",
}


def harness_digest(name: str, out_dir) -> str:
    model, x0, n_list, replicas, run = HARNESS_CASES[name]
    cfg = harness.ExperimentConfig.from_dict({
        "model": model, "initial": {"density": x0},
        "sim": {"n_list": n_list, "horizon": 0.5, "replicas": replicas, "master_seed": 11},
        "checks": {"run": list(harness.CERTIFICATES), "replicas": 20},
        "output": {"directory": str(out_dir)}})
    run(cfg)
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        header, body = path.read_bytes().split(b"\n", 1)
        assert header.startswith(b"# config="), path.name
        h.update(path.name.encode() + b"\0" + body)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(HARNESS_CASES))
def test_harness_csv_digests(name, tmp_path):
    assert harness_digest(name, tmp_path / "out") == EXPECTED_HARNESS[name]
