import dataclasses
import json
import math

import numpy as np
import pytest

from parasitelab import harness
from parasitelab.cli import main as cli_main
from parasitelab.harness import (CertificateBundle, CertificateResult,
                                 ExperimentConfig, build_model, replica_seed,
                                 round_initial, run_certificates,
                                 run_convergence)
from parasitelab.ode import StiffnessError
from parasitelab.rates import Envelopes, ModelSpec
from parasitelab.ssa import simulate
from parasitelab.state import l11_norm


# runaway births: the limit trajectory blows up before t = 1
RUNAWAY_MODEL = {"name": "kretzschmar_modified", "nu": 1.0, "mu": 1.0,
                 "kappa": 0.0, "alpha_extra": 0.0, "beta_birth": 8.0,
                 "birth_discount": 1.0, "c": 1.0,
                 "offspring": {"family": "poisson", "mean": 0.5}}


def small_config(tmp_path, **overrides) -> ExperimentConfig:
    raw = {
        "model": {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0,
                  "kappa": 1.0, "offspring": {"family": "poisson", "mean": 0.8}},
        "initial": {"density": [0.9, 0.1]},
        "sim": {"n_list": [20, 40, 80], "horizon": 0.5, "replicas": 8,
                "master_seed": 123},
        "checks": {"run": ["growth", "lemma_a1"], "replicas": 40},
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, val in overrides.items():
        raw[key].update(val)
    return ExperimentConfig.from_dict(raw)


def test_round_initial_examples():
    assert round_initial(np.array([1.0]), 7).counts == ((0, 7),)
    assert round_initial(np.array([0.5, 0.5]), 5).counts == ((0, 3), (1, 2))
    with pytest.raises(ValueError):
        round_initial(np.array([0.5, 0.4]), 5)


def test_round_initial_apportionment_bound():
    rng = np.random.default_rng(3)
    N = 1000
    for _ in range(50):
        x = rng.uniform(0.0, 1.0, size=11)
        x /= x.sum()
        xi = round_initial(x, N)
        assert xi.total_hosts == N
        gap = l11_norm(xi.to_dense(11).astype(float) / N - x)
        assert gap <= 121.0 / N + 1e-12


def test_replica_seed_stability(model61=None):
    # identical (master, N, r) -> identical stream; later replicas unaffected
    from parasitelab import OffspringLaw, luchsinger_nonlinear
    from parasitelab.state import PopulationState
    m = luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8))
    xi0 = PopulationState.from_dict({0: 18, 1: 2})
    a = simulate(m, xi0, 20, 0.5, replica_seed(5, 20, 3))
    b = simulate(m, xi0, 20, 0.5, replica_seed(5, 20, 3))
    assert np.array_equal(a.times, b.times)
    c = simulate(m, xi0, 20, 0.5, replica_seed(5, 20, 4))
    assert not np.array_equal(a.times, c.times)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="increasing"):
        small_config(tmp_path, sim={"n_list": [50, 50]})
    with pytest.raises(ValueError):
        small_config(tmp_path, sim={"replicas": 0})
    cfg = small_config(tmp_path)
    assert cfg.config_hash() == small_config(tmp_path).config_hash()
    assert cfg.slope_band == (-0.65, -0.35)


def test_parametric_initial_family(tmp_path):
    raw = {
        "model": {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0,
                  "kappa": 1.0, "offspring": {"family": "poisson", "mean": 0.8}},
        "initial": {"family": "poisson", "mean": 0.5, "support": 12},
        "sim": {"n_list": [30], "horizon": 0.5, "replicas": 2, "master_seed": 1},
        "output": {"directory": str(tmp_path / "fam")},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.density.sum() == pytest.approx(1.0)
    assert cfg.density.size == 13
    rep = run_convergence(cfg, workers=1, write=False)
    assert rep.rows[0].replicas == 2


def test_convergence_deterministic_and_decreasing(tmp_path):
    cfg1 = small_config(tmp_path / "a")
    cfg2 = small_config(tmp_path / "b")
    r1 = run_convergence(cfg1, workers=1)
    r2 = run_convergence(cfg2, workers=2)
    for f in ("convergence.csv", "replicas.csv", "slope.csv"):
        b1 = (cfg1.out_dir / f).read_bytes()
        b2 = (cfg2.out_dir / f).read_bytes()
        assert b1 == b2, f
    assert [row.N for row in r1.rows] == [20, 40, 80]
    assert all(row.capped == 0 for row in r1.rows)
    assert r1.slope == r2.slope


def test_convergence_report_fields(tmp_path):
    cfg = small_config(tmp_path)
    rep = run_convergence(cfg, workers=1, write=False)
    for row in rep.rows:
        assert row.comparator == pytest.approx(row.N ** -0.5 * math.log(row.N) ** 1.5)
        assert row.min_err <= row.mean_err <= row.max_err
        assert row.ratio == pytest.approx(row.mean_err / row.comparator)
        assert row.mean_slack >= 0.0
    lo, hi = rep.slope_ci
    assert lo <= rep.slope <= hi


def test_adding_replicas_preserves_existing(tmp_path):
    cfg8 = small_config(tmp_path / "r8")
    cfg16 = small_config(tmp_path / "r16", sim={"replicas": 16})
    run_convergence(cfg8, workers=1)
    run_convergence(cfg16, workers=1)
    rows8 = (cfg8.out_dir / "replicas.csv").read_text().splitlines()[2:]
    rows16 = (cfg16.out_dir / "replicas.csv").read_text().splitlines()[2:]
    per_n = {}
    for line in rows16:
        n, rep = line.split(",")[:2]
        per_n.setdefault(n, []).append(line)
    kept = [line for line in rows16 if int(line.split(",")[1]) < 8]
    assert kept == rows8


def test_certificates_pass_and_exit_codes(tmp_path):
    cfg = small_config(tmp_path)
    bundle = run_certificates(cfg, write=True)
    assert bundle.exit_code == 0
    assert all(r.passed for r in bundle.results)
    body = (cfg.out_dir / "certificates.csv").read_text()
    assert "growth" in body and "lemma_a1" in body
    # exit-code contract
    soft = CertificateBundle([CertificateResult("x", False, -1.0)])
    assert soft.exit_code == 1
    hard = CertificateBundle([], hard_failure="boom")
    assert hard.exit_code == 2


def test_blow_up_aborts_that_n_with_diagnostic(tmp_path):
    # runaway births blow the limit trajectory past a tight cap
    raw = {
        "model": RUNAWAY_MODEL,
        "initial": {"density": [0.8, 0.2]},
        "sim": {"n_list": [20], "horizon": 2.0, "replicas": 3, "master_seed": 5},
        "ode": {"blowup_factor": 5.0},
        "output": {"directory": str(tmp_path / "boom")},
    }
    rep = run_convergence(ExperimentConfig.from_dict(raw), workers=1, write=False)
    assert 20 in rep.aborted and "blow-up" in rep.aborted[20]
    assert rep.rows == []


def test_certificates_emit_one_csv_each(tmp_path):
    cfg = small_config(tmp_path, checks={"run": ["growth", "lipschitz", "mild",
                                                 "moment", "mean_identity"],
                                         "replicas": 30})
    bundle = run_certificates(cfg, write=True)
    assert bundle.exit_code == 0
    for fname in ("growth.csv", "lipschitz.csv", "mild.csv", "moment.csv",
                  "mean_identity.csv", "certificates.csv"):
        body = (cfg.out_dir / fname).read_text()
        assert body.startswith("# config="), fname
        assert len(body.splitlines()) >= 3, fname


def test_worker_count_env_override(monkeypatch):
    from parasitelab.harness import worker_count
    monkeypatch.setenv("PARASITELAB_WORKERS", "7")
    assert worker_count() == 7
    monkeypatch.delenv("PARASITELAB_WORKERS")
    assert worker_count() >= 1


def test_certificates_hard_failure_on_corrupt_envelope(tmp_path):
    cfg = small_config(tmp_path, checks={"run": ["moment"], "replicas": 30})
    model = build_model(cfg.model)
    corrupt = Envelopes(a01=lambda z: 0.01, a11=model.interaction.envelopes.a11)
    bad = ModelSpec(model.name, model.baseline,
                    dataclasses.replace(model.interaction, envelopes=corrupt))
    bundle = run_certificates(cfg, write=False, model=bad)
    assert bundle.exit_code == 2
    assert "DominatingRateError" in bundle.hard_failure


def test_metadata_separate_from_bodies(tmp_path):
    cfg = small_config(tmp_path)
    run_convergence(cfg, workers=1)
    meta = json.loads((cfg.out_dir / "metadata.json").read_text())
    assert "timestamp" in meta and meta["master_seed"] == 123
    body = (cfg.out_dir / "convergence.csv").read_text()
    assert meta["timestamp"] not in body


def test_cli_simulate_and_ode(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0,
                  "kappa": 1.0, "offspring": {"family": "poisson", "mean": 0.8}},
        "initial": {"density": [0.9, 0.1]},
        "sim": {"n_list": [30], "horizon": 0.5, "replicas": 4, "master_seed": 1},
        "output": {"directory": str(tmp_path / "cli_out")},
    }))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert cli_main(["ode", "--config", str(cfg_path)]) == 0
    assert cli_main(["tilde", "--config", str(cfg_path)]) == 0
    assert cli_main(["couple", "--config", str(cfg_path), "--replicas", "5"]) == 0
    assert cli_main(["converge", "--config", str(cfg_path), "--n", "25"]) == 0
    assert (tmp_path / "cli_out" / "path.csv").exists()
    assert (tmp_path / "cli_out" / "ode.csv").exists()
    assert (tmp_path / "cli_out" / "coupled.csv").exists()


def test_cli_certify_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0,
                  "kappa": 1.0, "offspring": {"family": "poisson", "mean": 0.8}},
        "initial": {"density": [0.9, 0.1]},
        "sim": {"n_list": [20], "horizon": 0.5, "replicas": 4, "master_seed": 1},
        "checks": {"run": ["growth", "lipschitz", "lemma_a1"]},
        "output": {"directory": str(tmp_path / "cert_out")},
    }))
    assert cli_main(["certify", "--config", str(cfg_path)]) == 0


def test_stiffness_aborts_only_that_n(tmp_path, monkeypatch):
    # the integrator fails for N = 40 only; the other N still report
    real_round, real_integrate = harness.round_initial, harness.integrate
    current = {}

    def spy_round(x0, N):
        current["N"] = N
        return real_round(x0, N)

    def stiff_for_40(*args, **kwargs):
        if current["N"] == 40:
            raise StiffnessError("required step size is less than spacing between numbers")
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(harness, "round_initial", spy_round)
    monkeypatch.setattr(harness, "integrate", stiff_for_40)
    rep = run_convergence(small_config(tmp_path), workers=1, write=False)
    assert list(rep.aborted) == [40]
    assert "StiffnessError" in rep.aborted[40] and "step size" in rep.aborted[40]
    assert [row.N for row in rep.rows] == [20, 80]
    assert all(row.replicas == 8 for row in rep.rows)


def test_certificates_hard_failure_on_coupled_event_cap(tmp_path):
    cfg = small_config(tmp_path, sim={"event_cap": 3},
                       checks={"run": ["growth", "coupling"], "replicas": 4})
    bundle = run_certificates(cfg, write=True)
    assert bundle.exit_code == 2
    assert bundle.hard_failure.startswith("CoupledCapExceeded: coupled event cap 3")
    assert [r.name for r in bundle.results] == ["growth"]
    assert "hard_failure" in (cfg.out_dir / "certificates.csv").read_text()


def test_certificates_hard_failure_on_stiffness(tmp_path, monkeypatch):
    def stiff(*args, **kwargs):
        raise StiffnessError("required step size is less than spacing between numbers")

    monkeypatch.setattr(harness, "integrate", stiff)
    bundle = run_certificates(small_config(tmp_path), write=False)
    assert bundle.exit_code == 2
    assert bundle.hard_failure.startswith("StiffnessError: required step size")
    assert bundle.results == []


def test_certificates_hard_failure_on_blow_up(tmp_path):
    raw = {"model": RUNAWAY_MODEL, "initial": {"density": [0.8, 0.2]},
           "sim": {"n_list": [20], "horizon": 2.0, "master_seed": 5},
           "checks": {"run": ["growth"]}}
    bundle = run_certificates(ExperimentConfig.from_dict(raw), write=False)
    assert bundle.exit_code == 2
    assert bundle.hard_failure.startswith("BlowUpError: blow-up at t = ")


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="'replica'.*'sim'"):
        small_config(tmp_path, sim={"replica": 5})
    for section in ("ode", "checks", "output", "initial"):
        raw = small_config(tmp_path).raw
        raw.setdefault(section, {})["bogus"] = 1
        with pytest.raises(ValueError, match=f"'bogus'.*'{section}'"):
            ExperimentConfig.from_dict(raw)
    raw = dict(small_config(tmp_path).raw, simulation={"replicas": 5})
    with pytest.raises(ValueError, match="section 'simulation'"):
        ExperimentConfig.from_dict(raw)
    # the model section is checked too
    raw = small_config(tmp_path).raw
    raw["model"]["colour"] = "red"
    with pytest.raises(ValueError, match="'colour'.*'luchsinger_nonlinear'"):
        ExperimentConfig.from_dict(raw)


KRETZSCHMAR = {"name": "kretzschmar_modified", "nu": 1.5, "mu": 1.0, "kappa": 0.3,
               "c": 1.0, "offspring": {"family": "geometric", "p": 0.5}}


@pytest.mark.parametrize("change, message", [
    ({"name": "luchsinger_nonlinaer"}, "unknown model 'luchsinger_nonlinaer'"),
    ({"beta_brith": 0.5}, "unknown key 'beta_brith' in model 'kretzschmar_modified'"),
    ({"kappa": None}, "missing key 'kappa' in model 'kretzschmar_modified'"),
    ({"offspring": {"family": "binomial", "n": 3}}, "unknown offspring family 'binomial'"),
    ({"offspring": {"family": "geometric", "mean": 0.5}},
     "unknown key 'mean' in offspring family 'geometric'"),
    ({"offspring": {"family": "table"}}, "missing key 'probs' in offspring family 'table'"),
])
def test_config_rejects_bad_model_section(tmp_path, change, message):
    model = {k: v for k, v in {**KRETZSCHMAR, **change}.items() if v is not None}
    raw = dict(small_config(tmp_path).raw, model=model)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError, match=message):
        build_model(model)


def test_config_accepts_every_model_form(tmp_path):
    forms = [KRETZSCHMAR, dict(KRETZSCHMAR, alpha_extra=0.2, beta_birth=0.5,
                               birth_discount=0.9),
             {"name": "luchsinger_linear", "lam": 1.0, "mu": 1.0, "kappa": 0.5},
             {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0, "kappa": 1.0,
              "offspring": {"family": "point_mass", "value": 2}},
             {"name": "luchsinger_nonlinear", "lam": 1.0, "mu": 1.0, "kappa": 1.0,
              "offspring": {"family": "table", "probs": [0.5, 0.5]}}]
    for model in forms:
        cfg = ExperimentConfig.from_dict(dict(small_config(tmp_path).raw, model=model))
        assert build_model(cfg.model).name == model["name"]


def test_config_rejects_unknown_certificate(tmp_path):
    with pytest.raises(ValueError, match="'momnet'"):
        small_config(tmp_path, checks={"run": ["growth", "momnet"]})
    every = small_config(tmp_path, checks={"run": list(harness.CERTIFICATES)})
    assert tuple(every.checks) == harness.CERTIFICATES


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad_name = small_config(tmp_path).raw
    bad_name["checks"]["run"] = ["growth", "momnet"]
    cases = {
        "missing.json": None,
        "broken.json": "{\"model\": ",
        "bad_name.json": json.dumps(bad_name),
    }
    for fname, text in cases.items():
        path = tmp_path / fname
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli_main(["certify", "--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        error_lines = [ln for ln in err.splitlines() if ln.startswith("parasitelab")]
        assert len(error_lines) == 1 and fname in error_lines[0]
        assert "Traceback" not in err
    assert "momnet" in error_lines[0]
    assert not (tmp_path / "out").exists()


def test_cli_bad_model_section_exits_2(tmp_path, capsys):
    # a misspelled model name and a missing parameter are usage errors,
    # reported before any certificate runs
    bad_name = small_config(tmp_path).raw
    bad_name["model"]["name"] = "luchsinger_nonlinaer"
    no_kappa = small_config(tmp_path).raw
    del no_kappa["model"]["kappa"]
    for fname, raw, word in (("bad_model.json", bad_name, "luchsinger_nonlinaer"),
                             ("no_kappa.json", no_kappa, "'kappa'")):
        path = tmp_path / fname
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            cli_main(["certify", "--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert word in err.splitlines()[-1] and fname in err.splitlines()[-1]
    assert not (tmp_path / "out").exists()
