"""Command-line interface: build, verify, simulate, and sweep experiments.

Experiments are described by a small JSON config (see ``configs/`` for
samples)::

    {
      "name": "canonical_n3",
      "plant": {"alpha": [1.0, 0.0]},
      "chain": {"mu": [1.0, 1.0, 1.0]},
      "initial": {"plant": [1.0, 0.0], "observer": "zero"},
      "horizons": [100, 1000, 10000],
      "sample_dt": 0.01,
      "seed": 1234
    }

The chain is given either by its gains (``mu``) or physically by the head
gain plus mirror transmissivities (``mu_1`` + ``kappas``); exactly one form
must be present.  ``chain.omega_override`` replaces the design detunings for
degradation studies.  ``initial.observer`` is ``"zero"``, ``"steady"``, or an
explicit vector.

Exit codes: 0 success, 1 verification/consensus failure, 2 malformed config,
3 construction error, 4 I/O error.  Set ``QCHAIN_LOG=debug|info|warning`` to
control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, network, observer, sim
from .core import build_symplectic, check_commutation_preservation
from .errors import ConfigError, IntegratorAccuracyError, QchainError

log = logging.getLogger("qchain")

REPORT_VERSION = 1

_TOP_KEYS = {
    "name",
    "plant",
    "chain",
    "initial",
    "horizons",
    "sample_dt",
    "seed",
    "csv_stride",
    "method",
}
_CHAIN_KEYS = {"mu", "mu_1", "kappas", "omega_override"}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parsed and normalized experiment description."""

    name: str
    alpha: tuple[float, ...]
    mu: tuple[float, ...] | None
    mu_1: float | None
    kappas: tuple[float, ...] | None
    omega_override: tuple[float, ...] | None
    initial_plant: tuple[float, ...]
    initial_observer: str | tuple[float, ...]
    horizons: tuple[float, ...]
    sample_dt: float | None
    seed: int
    csv_stride: int
    method: str

    @property
    def n_elements(self) -> int:
        if self.mu is not None:
            return len(self.mu)
        return len(self.kappas) // 2 + 1


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", path)
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError("expected a finite number", path)
    return out


def _numbers(value, path: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value and length != 0:
        raise ConfigError("expected a non-empty list of numbers", path)
    out = [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"expected exactly {length} entries", path)
    return tuple(out)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object and normalize it.

    Only structure, types and finiteness are checked here (unknown keys,
    wrong shapes, missing sections, NaN or infinite numbers).  Value-level
    constraints — positivity of gains, grid limits — are deferred to
    construction so they surface as construction errors, not schema errors.
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")

    name = raw.get("name", "experiment")
    if not isinstance(name, str) or not name:
        raise ConfigError("must be a non-empty string", "name")

    plant = raw.get("plant")
    if not isinstance(plant, dict) or set(plant) != {"alpha"}:
        raise ConfigError("must be an object with exactly the key 'alpha'", "plant")
    alpha = _numbers(plant["alpha"], "plant.alpha", length=2)

    chain = raw.get("chain")
    if not isinstance(chain, dict):
        raise ConfigError("must be an object", "chain")
    unknown = set(chain) - _CHAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", "chain")
    has_mu = "mu" in chain
    has_phys = "mu_1" in chain or "kappas" in chain
    if has_mu and has_phys:
        raise ConfigError("give either 'mu' or 'mu_1'+'kappas', not both", "chain")
    if not has_mu and not ("mu_1" in chain and "kappas" in chain):
        raise ConfigError("give either 'mu' or both 'mu_1' and 'kappas'", "chain")
    mu = mu_1 = kappas = None
    if has_mu:
        mu = _numbers(chain["mu"], "chain.mu")
    else:
        mu_1 = _number(chain["mu_1"], "chain.mu_1")
        kappas = (
            ()
            if chain["kappas"] == []
            else _numbers(chain["kappas"], "chain.kappas")
        )
        if len(kappas) % 2 != 0:
            raise ConfigError("expected an even number of entries", "chain.kappas")
    omega_override = None
    if "omega_override" in chain:
        omega_override = _numbers(chain["omega_override"], "chain.omega_override")

    initial = raw.get("initial")
    if not isinstance(initial, dict) or set(initial) != {"plant", "observer"}:
        raise ConfigError(
            "must be an object with exactly the keys 'plant' and 'observer'",
            "initial",
        )
    initial_plant = _numbers(initial["plant"], "initial.plant", length=2)
    obs = initial["observer"]
    if isinstance(obs, str):
        if obs not in ("zero", "steady"):
            raise ConfigError("must be 'zero', 'steady', or a vector", "initial.observer")
        initial_observer: str | tuple[float, ...] = obs
    else:
        initial_observer = _numbers(obs, "initial.observer")

    horizons = _numbers(raw.get("horizons", []), "horizons")
    if any(h <= 0 for h in horizons) or any(
        b <= a for a, b in zip(horizons, horizons[1:])
    ):
        raise ConfigError("must be positive and strictly increasing", "horizons")

    sample_dt = raw.get("sample_dt")
    if sample_dt is not None:
        sample_dt = _number(sample_dt, "sample_dt")

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("expected a non-negative integer", "seed")

    csv_stride = raw.get("csv_stride", 1)
    if isinstance(csv_stride, bool) or not isinstance(csv_stride, int) or csv_stride < 1:
        raise ConfigError("expected a positive integer", "csv_stride")

    method = raw.get("method", "exact")
    if method not in ("exact", "rk4"):
        raise ConfigError("must be 'exact' or 'rk4'", "method")

    return ExperimentConfig(
        name=name,
        alpha=alpha,
        mu=mu,
        mu_1=mu_1,
        kappas=kappas,
        omega_override=omega_override,
        initial_plant=initial_plant,
        initial_observer=initial_observer,
        horizons=horizons,
        sample_dt=sample_dt,
        seed=seed,
        csv_stride=csv_stride,
        method=method,
    )


def normalized_config(cfg: ExperimentConfig) -> dict:
    """Canonical JSON form of a config; reparsing it yields the same config."""
    chain: dict = {}
    if cfg.mu is not None:
        chain["mu"] = list(cfg.mu)
    else:
        chain["mu_1"] = cfg.mu_1
        chain["kappas"] = list(cfg.kappas)
    if cfg.omega_override is not None:
        chain["omega_override"] = list(cfg.omega_override)
    obs = (
        cfg.initial_observer
        if isinstance(cfg.initial_observer, str)
        else list(cfg.initial_observer)
    )
    out = {
        "name": cfg.name,
        "plant": {"alpha": list(cfg.alpha)},
        "chain": chain,
        "initial": {"plant": list(cfg.initial_plant), "observer": obs},
        "horizons": list(cfg.horizons),
        "seed": cfg.seed,
        "csv_stride": cfg.csv_stride,
        "method": cfg.method,
    }
    if cfg.sample_dt is not None:
        out["sample_dt"] = cfg.sample_dt
    return out


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        text = f.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def realize(cfg: ExperimentConfig):
    """Build plant and observer realization from a config."""
    plant = observer.PlantSpec(alpha=np.array(cfg.alpha))
    if cfg.mu is not None:
        mu = np.array(cfg.mu)
    else:
        params = observer.ChainParams(
            n_elements=cfg.n_elements, mu_1=cfg.mu_1, kappas=cfg.kappas
        )
        mu = observer.gains_from_kappas(params)
    realization = observer.build_observer(
        plant, mu, omega_override=cfg.omega_override
    )
    return plant, realization


def _resolve_initial_observer(cfg, plant, realization) -> np.ndarray:
    if isinstance(cfg.initial_observer, str):
        if cfg.initial_observer == "zero":
            return np.zeros(realization.state_dim)
        z0 = float(np.array(cfg.initial_plant) @ plant.alpha)
        vec, _ = observer.steady_vector(realization, plant, z0, tol=None)
        return vec
    return np.array(cfg.initial_observer)


def _sim_config(cfg, realization) -> sim.SimulationConfig:
    dt = cfg.sample_dt
    if dt is None:
        dt = sim.default_sample_dt(realization.omega)
    plant = observer.PlantSpec(alpha=np.array(cfg.alpha))
    return sim.SimulationConfig(
        initial_plant=np.array(cfg.initial_plant),
        initial_observer=_resolve_initial_observer(cfg, plant, realization),
        horizon_T=max(cfg.horizons),
        sample_dt=dt,
        method=cfg.method,
    )


def _dump_json(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    if args.emit_config:
        _dump_json(normalized_config(cfg), args.out)
        return 0
    plant, realization = realize(cfg)
    augmented = observer.assemble_augmented(realization, plant)
    ham = analysis.observer_hamiltonian(realization.mu, realization.omega)
    form = build_symplectic(realization.n_elements)
    cert = analysis.convergence_certificate(ham, form)
    report = {
        "report_version": REPORT_VERSION,
        "name": cfg.name,
        "config": normalized_config(cfg),
        "n_elements": realization.n_elements,
        "alpha": list(map(float, plant.alpha)),
        "mu": list(map(float, realization.mu)),
        "omega": list(map(float, realization.omega)),
        "observer_dim": realization.state_dim,
        "augmented_dim": augmented.dim,
        "certificate": {
            "lambda_min": cert.lambda_min,
            "lambda_max": cert.lambda_max,
            "exp_bound": cert.exp_bound,
            "avg_constant": cert.avg_constant,
        },
    }
    _dump_json(report, args.out)
    return 0


def _verify_checks(cfg, args) -> list[dict]:
    scale = args.tolerance_scale
    seed = cfg.seed if args.seed is None else args.seed
    plant, realization = realize(cfg)
    augmented = observer.assemble_augmented(realization, plant)
    n_el = realization.n_elements
    checks = []

    def add(name, residual, tol, passed, skipped=False, **extra):
        entry = {
            "name": name,
            "residual": None if residual is None else float(residual),
            "tolerance": float(tol),
            "passed": bool(passed),
            "skipped": skipped,
        }
        entry.update(extra)
        checks.append(entry)

    report = check_commutation_preservation(
        augmented.drift, augmented.form, [0.1, 1.0, 10.0, 100.0], tol=1e-8 * scale
    )
    add("commutation_preservation", report.max_residual, report.tol, report.passed)

    probe_cfg = sim.SimulationConfig(
        initial_plant=np.array(cfg.initial_plant),
        initial_observer=_resolve_initial_observer(cfg, plant, realization),
        horizon_T=1000.0,
        sample_dt=max(0.05, sim.default_sample_dt(realization.omega)),
        method="exact",
    )
    series = sim.simulate(augmented, probe_cfg, keep_states=True)
    states = series.states
    energies = 0.5 * np.sum((states @ augmented.hamiltonian) * states, axis=1)
    e0 = energies[0]
    energy_drift = float(np.max(np.abs(energies - e0)) / max(1.0, abs(e0)))
    add("energy_conservation", energy_drift, 1e-9 * scale, energy_drift <= 1e-9 * scale)

    if n_el >= 2:
        if cfg.kappas is not None:
            kappas = cfg.kappas
        else:
            kappas = observer.kappas_from_gains(realization.mu).kappas
        beta = -realization.mu[0] * plant.alpha
        systems, links = network.build_chain(
            plant.alpha, beta, realization.omega, kappas
        )
        reduced = network.connect(systems, links)
        drift_resid = float(np.max(np.abs(reduced.drift - augmented.drift)))
        noise_resid = network.verify_noise_cancellation(reduced)
        resid = max(drift_resid, noise_resid)
        add("noise_cancellation", resid, 1e-12 * scale, resid <= 1e-12 * scale)
    else:
        add("noise_cancellation", 0.0, 1e-12 * scale, True, skipped=True)

    ham = analysis.observer_hamiltonian(realization.mu, realization.omega)
    ok, lo, hi = analysis.check_positive_definite(ham)
    add("positive_definite", max(0.0, -lo), 0.0, ok, lambda_min=lo, lambda_max=hi)

    red = analysis.hermitian_reduce(ham)
    split, failures = analysis.split_report(red, seed=seed)
    split_resid = max(
        split.remainder_reconstruction,
        split.null_residual,
        split.sos_draw_error,
        max(0.0, -split.remainder_min_eig),
        abs(split.corner_null_energy - realization.mu[0]),
    )
    add(
        "hermitian_split",
        split_resid,
        1e-11 * (1.0 + float(np.max(np.abs(red.matrix)))) * scale,
        split.passed,
        failures=failures,
    )

    form = build_symplectic(n_el)
    if ok:
        times = np.logspace(-2, 3, 50)
        bound_report = analysis.exp_norm_bound(ham, form, times, probe_seed=seed)
        margin = float(np.max(bound_report.norms / bound_report.bound - 1.0))
        add(
            "exp_norm_bound",
            max(0.0, margin),
            1e-9 * scale,
            margin <= 1e-9 * scale,
            bound=bound_report.bound,
        )
    else:
        add("exp_norm_bound", None, 1e-9 * scale, False)

    _, steady_resid = observer.steady_vector(realization, plant, 1.0, tol=None)
    add(
        "steady_configuration",
        steady_resid,
        1e-12 * scale,
        steady_resid <= 1e-12 * scale,
    )

    gains = realization.readout @ (realization.steady_pattern @ plant.alpha)
    gain_dev = float(np.max(np.abs(gains - 1.0)))
    add("consensus_readout", gain_dev, 1e-12 * scale, gain_dev <= 1e-12 * scale)
    return checks


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    checks = _verify_checks(cfg, args)
    passed = all(c["passed"] for c in checks if not c["skipped"])
    report = {
        "report_version": REPORT_VERSION,
        "name": cfg.name,
        "config": normalized_config(cfg),
        "seed": cfg.seed if args.seed is None else args.seed,
        "tolerance_scale": args.tolerance_scale,
        "checks": checks,
        "passed": passed,
    }
    _dump_json(report, args.out)
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    plant, realization = realize(cfg)
    augmented = observer.assemble_augmented(realization, plant)
    sim_cfg = _sim_config(cfg, realization)
    log.info(
        "simulating %s: %d elements, horizon %g, dt %g",
        cfg.name,
        realization.n_elements,
        sim_cfg.horizon_T,
        sim_cfg.sample_dt,
    )
    try:
        report = sim.consensus_report(augmented, realization, sim_cfg, cfg.horizons)
        if args.csv:
            series = sim.simulate(augmented, sim_cfg, stride=cfg.csv_stride)
            sim.write_timeseries_csv(series, args.csv)
    except IntegratorAccuracyError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "report_version": REPORT_VERSION,
        "name": cfg.name,
        "config": normalized_config(cfg),
        "seed": cfg.seed,
        "sample_dt": sim_cfg.sample_dt,
        "csv_path": args.csv if args.csv else None,
    }
    payload.update(report.to_dict())
    _dump_json(payload, args.out)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.param != "mu_1":
        raise ConfigError(f"unknown sweep parameter {args.param!r}", "sweep.param")
    rows = []
    for value in args.values:
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(
                "swept mu_1 values must be positive and finite", "sweep.values"
            )
        if cfg.mu is not None:
            swept = replace(cfg, mu=(value, *cfg.mu[1:]))
        else:
            swept = replace(cfg, mu_1=value)
        plant, realization = realize(swept)
        augmented = observer.assemble_augmented(realization, plant)
        report = sim.consensus_report(
            augmented, realization, _sim_config(swept, realization), swept.horizons
        )
        cert = report.certificate
        rows.append(
            (
                value,
                cert.lambda_min,
                cert.lambda_max,
                cert.avg_constant,
                float(np.max(report.per_element_error[-1])),
                float(report.matrix_residual[-1]),
                report.passed,
            )
        )
    header = (
        "mu_1,lambda_min,lambda_max,avg_constant,"
        "final_max_error,final_matrix_residual,passed"
    )
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                format(v, ".17g") if isinstance(v, float) else str(v) for v in row
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="Build, certify, and simulate cavity-chain observers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a chain and print its certificate")
    p_build.add_argument("config", help="experiment config JSON")
    p_build.add_argument("--out", help="write the report here instead of stdout")
    p_build.add_argument(
        "--emit-config",
        action="store_true",
        help="print the normalized config instead of building",
    )
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the structural verification suite")
    p_verify.add_argument("config", help="experiment config JSON")
    p_verify.add_argument("--out")
    p_verify.add_argument("--seed", type=int, default=None, help="override config seed")
    p_verify.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every verification tolerance by this factor",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="simulate and report consensus errors")
    p_sim.add_argument("config", help="experiment config JSON")
    p_sim.add_argument("--out")
    p_sim.add_argument("--csv", help="also write the sampled time series here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter and tabulate certificates")
    p_sweep.add_argument("config", help="experiment config JSON")
    p_sweep.add_argument("--param", required=True, help="parameter to sweep (mu_1)")
    p_sweep.add_argument(
        "--values", required=True, type=float, nargs="+", help="values to sweep over"
    )
    p_sweep.add_argument("--out", help="write the CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("QCHAIN_LOG", "warning").strip().lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (QchainError, ValueError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
