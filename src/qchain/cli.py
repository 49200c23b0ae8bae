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
degradation studies; it holds one entry per element.  ``initial.observer`` is
``"zero"``, ``"steady"``, or an explicit vector.  ``seed`` is accepted and
echoed in reports, but inert: no result depends on it.

Each ``cmd_*`` returns its output (a report dict or the sweep table) and its
exit code; :func:`main` writes the output to ``--out`` or stdout and is the
one place that maps an exception to an exit code: 0 success, 1 verification
or consensus failure or a failed ``rk4`` run, 2 malformed config, 3
construction error, 4 I/O error.  ``QCHAIN_LOG=debug|info|warning`` sets
the logging level.  :func:`main` may be called repeatedly in one process:
it builds its parser once and reads ``QCHAIN_LOG`` on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analysis, network, observer, sim
from .core import check_commutation_preservation
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
    n_elements: int
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
    constraints (positive gains and ``sample_dt``, the grid's limits) are
    deferred so they surface as construction errors, not schema errors.
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
        n_elements = len(mu)
    else:
        mu_1 = _number(chain["mu_1"], "chain.mu_1")
        kappas = (
            ()
            if chain["kappas"] == []
            else _numbers(chain["kappas"], "chain.kappas")
        )
        if len(kappas) % 2 != 0:
            raise ConfigError("expected an even number of entries", "chain.kappas")
        n_elements = len(kappas) // 2 + 1
    omega_override = None
    if "omega_override" in chain:
        omega_override = _numbers(
            chain["omega_override"], "chain.omega_override", length=n_elements
        )

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
        initial_observer = _numbers(obs, "initial.observer", length=2 * n_elements)

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
        n_elements=n_elements,
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


def _augmented(cfg: ExperimentConfig) -> observer.AugmentedSystem:
    """The closed system of a config's plant and chain."""
    plant, realization = realize(cfg)
    return observer.assemble_augmented(realization, plant)


def _resolve_initial_observer(cfg, augmented) -> np.ndarray:
    plant, realization = augmented.plant, augmented.realization
    if isinstance(cfg.initial_observer, str):
        if cfg.initial_observer == "zero":
            return np.zeros(realization.state_dim)
        z0 = float(np.array(cfg.initial_plant) @ plant.alpha)
        vec, _ = observer.steady_vector(realization, plant, z0, tol=None)
        return vec
    return np.array(cfg.initial_observer)


def _sim_config(cfg, augmented) -> sim.SimulationConfig:
    dt = cfg.sample_dt
    if dt is None:
        dt = sim.default_sample_dt(augmented.realization.omega)
    return sim.SimulationConfig(
        initial_plant=np.array(cfg.initial_plant),
        initial_observer=_resolve_initial_observer(cfg, augmented),
        horizon_T=max(cfg.horizons),
        sample_dt=dt,
        method=cfg.method,
    )


def _render(output: dict | str) -> str:
    """The text of a command's output: a report as strict JSON, a table as is."""
    if isinstance(output, str):
        return output
    return json.dumps(output, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _report(cfg: ExperimentConfig, **fields) -> dict:
    """A JSON report: its version, the config's name and normalized form, ``fields``."""
    return {
        "report_version": REPORT_VERSION,
        "name": cfg.name,
        "config": normalized_config(cfg),
        **fields,
    }


def cmd_build(args) -> tuple[dict, int]:
    cfg = load_config(args.config)
    if args.emit_config:
        return normalized_config(cfg), 0
    augmented = _augmented(cfg)
    plant, realization = augmented.plant, augmented.realization
    cert = analysis.convergence_certificate(realization.hamiltonian)
    return _report(
        cfg,
        n_elements=realization.n_elements,
        alpha=list(map(float, plant.alpha)),
        mu=list(map(float, realization.mu)),
        omega=list(map(float, realization.omega)),
        observer_dim=realization.state_dim,
        augmented_dim=augmented.dim,
        certificate=asdict(cert),
    ), 0


def _verify_checks(cfg, scale: float) -> list[dict]:
    augmented = _augmented(cfg)
    plant, realization = augmented.plant, augmented.realization
    checks = []

    def add(name, residual, tol, *, skipped=False, **extra):
        if residual is not None:
            residual = float(residual)
            if not math.isfinite(residual):
                raise ValueError(f"the {name} residual is not finite")
        entry = {
            "name": name,
            "residual": residual,
            "tolerance": float(tol),
            "passed": bool(residual is not None and residual <= tol),
            "skipped": skipped,
        }
        entry.update(extra)
        checks.append(entry)

    # the realization's one chain spectrum serves the flow, the energy probe,
    # the positivity split and the norm bound
    ham = realization.hamiltonian
    commutation = np.max([
        check_commutation_preservation(sim.flow_matrix(augmented, t), augmented.form)
        for t in (0.1, 1.0, 10.0, 100.0)
    ])
    add("commutation_preservation", commutation, 1e-8 * scale)

    # the exact route accumulates nothing between samples, so 200 log-spaced
    # times out to 1e3 suffice
    probe_times = np.concatenate(([0.0], np.logspace(-2, 3, 200)))
    states = sim.states_at(augmented, _sim_config(cfg, augmented), probe_times)
    with np.errstate(over="ignore", invalid="ignore"):  # add() checks the drift
        energies = 0.5 * np.sum((states @ augmented.hamiltonian) * states, axis=1)
        e0 = energies[0]
        energy_drift = float(np.max(np.abs(energies - e0)) / max(1.0, abs(e0)))
    add("energy_conservation", energy_drift, 1e-9 * scale)

    if realization.n_elements >= 2:
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
        add("noise_cancellation", resid, 1e-12 * scale)
    else:
        add("noise_cancellation", 0.0, 1e-12 * scale, skipped=True)

    # a singular chain never gets here: the flow above refuses it
    ok, lo, hi = analysis.check_positive_definite(ham)
    add("positive_definite", max(0.0, -lo), 0.0, lambda_min=lo, lambda_max=hi)

    split, split_tol, failures = analysis.split_report(ham, scale)
    add("hermitian_split", split, split_tol, failures=failures)

    if ok:
        times = np.logspace(-2, 3, 50)
        bound_report = analysis.exp_norm_bound(ham, times)
        margin = float(np.max(bound_report.norms / bound_report.bound - 1.0))
        add("exp_norm_bound", max(0.0, margin), 1e-9 * scale, bound=bound_report.bound)
    else:
        add("exp_norm_bound", None, 1e-9 * scale)

    _, steady_resid = observer.steady_vector(realization, plant, 1.0, tol=None)
    add("steady_configuration", steady_resid, 1e-12 * scale)

    gains = observer.consensus_readout(realization, plant)
    gain_dev = float(np.max(np.abs(gains - 1.0)))
    add("consensus_readout", gain_dev, 1e-12 * scale)
    return checks


def cmd_verify(args) -> tuple[dict, int]:
    if not (math.isfinite(args.tolerance_scale) and args.tolerance_scale > 0):
        raise ConfigError("expected a positive finite number", "verify.tolerance_scale")
    cfg = load_config(args.config)
    checks = _verify_checks(cfg, args.tolerance_scale)
    passed = all(c["passed"] for c in checks if not c["skipped"])
    report = _report(
        cfg,
        seed=cfg.seed,
        tolerance_scale=args.tolerance_scale,
        checks=checks,
        passed=passed,
    )
    return report, 0 if passed else 1


def cmd_simulate(args) -> tuple[dict, int]:
    cfg = load_config(args.config)
    augmented = _augmented(cfg)
    sim_cfg = _sim_config(cfg, augmented)
    log.info(
        "simulating %s: %d elements, horizon %g, dt %g",
        cfg.name,
        cfg.n_elements,
        sim_cfg.horizon_T,
        sim_cfg.sample_dt,
    )
    report = sim.consensus_report(augmented, sim_cfg, cfg.horizons)
    if args.csv:
        sim.write_timeseries_csv(augmented, sim_cfg, args.csv, stride=cfg.csv_stride)
    payload = _report(
        cfg,
        seed=cfg.seed,
        sample_dt=sim_cfg.sample_dt,
        csv_path=args.csv or None,
        **report.to_dict(),
    )
    return payload, 0 if report.passed else 1


def cmd_sweep(args) -> tuple[str, int]:
    cfg = load_config(args.config)
    if args.param != "mu_1":
        raise ConfigError(f"unknown sweep parameter {args.param!r}", "sweep.param")
    lines = [
        "mu_1,lambda_min,lambda_max,avg_constant,"
        "final_max_error,final_matrix_residual,passed"
    ]
    for value in args.values:
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(
                "swept mu_1 values must be positive and finite", "sweep.values"
            )
        if cfg.mu is not None:
            swept = replace(cfg, mu=(value, *cfg.mu[1:]))
        else:
            swept = replace(cfg, mu_1=value)
        augmented = _augmented(swept)
        report = sim.consensus_report(
            augmented, _sim_config(swept, augmented), swept.horizons
        )
        cert = report.certificate
        row = (
            value,
            cert.lambda_min,
            cert.lambda_max,
            cert.avg_constant,
            float(np.max(report.per_element_error[-1])),
            float(report.matrix_residual[-1]),
            report.passed,
        )
        lines.append(
            ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n", 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qchain`` parser, built on the first call and shared after it.

    Each subcommand is named after its ``cmd_*`` function, and the parser
    keeps only that name: :func:`main` looks the function up when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="Build, certify, and simulate cavity-chain observers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="experiment config JSON")
    common.add_argument("--out", help="write the output here instead of stdout")

    def add_command(func, summary):
        name = func.__name__.removeprefix("cmd_")
        return sub.add_parser(name, parents=[common], help=summary)

    p_build = add_command(cmd_build, "construct a chain and print its certificate")
    p_build.add_argument(
        "--emit-config",
        action="store_true",
        help="print the normalized config instead of building",
    )

    p_verify = add_command(cmd_verify, "run the structural verification suite")
    p_verify.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every verification tolerance by this factor",
    )

    p_sim = add_command(cmd_simulate, "simulate and report consensus errors")
    p_sim.add_argument("--csv", help="also write the sampled time series here")

    p_sweep = add_command(cmd_sweep, "sweep a parameter and tabulate certificates")
    p_sweep.add_argument("--param", required=True, help="parameter to sweep (mu_1)")
    p_sweep.add_argument(
        "--values", required=True, type=float, nargs="+", help="values to sweep over"
    )
    return parser


class _CurrentStderr(logging.StreamHandler):
    """A handler that writes to ``sys.stderr`` as it is when a line is logged."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


def _configure_logging() -> None:
    level_name = os.environ.get("QCHAIN_LOG", "warning").strip().lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    # adds its handler only while the root logger has none; the level is
    # qchain's own, so it is read again on every call
    fmt = "%(levelname)s %(name)s: %(message)s"
    logging.basicConfig(format=fmt, handlers=[_CurrentStderr()])
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        # looked up on each call, so a cmd_* replaced after the parser was
        # built (a tracer's wrapper, a test's patch) is the one that runs
        output, code = globals()[f"cmd_{args.command}"](args)
        text = _render(output)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegratorAccuracyError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except (QchainError, ValueError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
