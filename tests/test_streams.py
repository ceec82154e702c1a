"""Pinned random streams of every engine, as SHA-256 digests.

Each digest hashes the complete fixed-seed output of one engine on one
example model at one N, over several seeds: the ``PathRecord`` arrays of
``simulate`` and ``simulate_tilde``; the evaluation-time values, tau,
sup errors, event and ghost counts, the recorded V trajectory and the
final four-component state of ``simulate_coupled``; and
``compensator_intensity`` at the initial and final coupled states.  A
second coupled case also hashes the compensator bound ratio on runs that
grow their load arrays and reach tau before the horizon.  A
refactor that claims to change no output must leave every digest as it
is.  A digest may change only together with a CHANGES.md entry that
declares which random stream changed and why.
"""

import hashlib
import math

import numpy as np
import pytest

from parasitelab import (OffspringLaw, kretzschmar_modified, luchsinger_linear,
                         luchsinger_nonlinear)
from parasitelab.coupling import CouplingState, compensator_intensity, simulate_coupled
from parasitelab.harness import round_initial
from parasitelab.ode import integrate
from parasitelab.ssa import simulate
from parasitelab.state import PopulationState
from parasitelab.tilde import simulate_tilde

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
        "tilde/N20": "f81809ba9bd26a6fd5b0e0706c33ef0a121363f7d876b07245b13902428c946c",
        "coupled/N20": "8ea27daa031c37ed2727e2ff431821ef845f22bdadd9f412adee069928379d05",
        "compensator/N20": "893f8da29347e21f3298ab33e5d8d07f29cb81f0135e3db6b3a80e900f0d16bd",
        "ssa/N60": "ade2410dfe8fcfe273c060d33891485bac3e17590d466903b5fba4e9576d8b1a",
        "tilde/N60": "aafa69a8873d0394d8ab28bacc5f1c48adf712e682f61cfa083c1e83333146f0",
        "coupled/N60": "6b3c796578881656476cf7e9f5db562d0d698ef9478df5f39d0c1f3dfa9ed24d",
        "compensator/N60": "6a0ca90d8563b9de59146bd455b56b06044fa96664dd5ff470291f70306f00e5",
    },
    "luchsinger_linear": {
        "ssa/N20": "044d36931b04700d1a4fd66f4695c758b85bd591afef1d097f5cd8b0485f0f5b",
        "tilde/N20": "67d1bb16b3353b69a23e027a44ec512c0a2695ae0bcc5cf6fa5ee3123d2fde50",
        "coupled/N20": "5cd89565599816f1463dae96f0fdf3819776785c9d99104fa257539080e3a01d",
        "compensator/N20": "903dc5e5b729111b8507cf494f6700e235c4e2565291802b6e65ed11ae2d53a6",
        "ssa/N60": "4b6c36fa728924a52e36fbab08c067a2371d2684e0332c5ce4cb938671b66967",
        "tilde/N60": "107498fc44b7c99ff3f3bf3718b2f68fbe578289c6408b0732aebcb74922897c",
        "coupled/N60": "d0854db883edd46a4d52b17c17e9fa9045b100d13e03f6c4259267d0838dbd5d",
        "compensator/N60": "899f4645fab397204a059424f01bac440faccc5eb24d83719f73f7a92146fb1d",
    },
    "luchsinger_nonlinear": {
        "ssa/N20": "f6eab61c7f279545b21bce23586b7fc63496263138ef6cc1d40c2299b32c2739",
        "tilde/N20": "19faadc83f0e20254598b8d37188868513935c7374ce02880adb743944e3bd02",
        "coupled/N20": "6ff20e673ab2b94b5363a64bd89ac102d314ab2626ff20ebea067c0f9f233c68",
        "compensator/N20": "4d06a5816d470468449ec86eb782144e25919deead9ab6e472ab0eed6cf2cdbe",
        "ssa/N60": "6d290bc704e89cebd658ec4667d9b8b8dcd0aa763a8c4a74d637d68271798ad0",
        "tilde/N60": "8eabb23da675605192dc8d0360e6c2a463f6413eea761cf7e81c69f523626009",
        "coupled/N60": "81724a8db1e4f6f8cb4951de2b6875e28938c4c64b39be52f29c985f8cdf67bd",
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
        "1068bb594765ded9fa1c2019fcc1a6fa40dd262f4eed448b5c1a00a8ecb88cb1"),
    "luchsinger_linear": (
        lambda: luchsinger_linear(2.0, 1.0, 0.5, OffspringLaw.poisson(2.0)),
        [0.0, 0.5, 0.5], 3, 2,
        "b9e05b33a824269a9722ac2382a6dccc97e1ffb42451e9f27fd6214746a7277d"),
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
