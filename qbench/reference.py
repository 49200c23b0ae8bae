"""Independent references and output checks for benchmark jobs.

The reference never goes through the closed-form construction the program
simulates with.  The augmented drift comes from the field-network
elimination (``network.build_chain`` + ``network.connect``), or for N = 1
from the closed form written out below.  Readouts, the steady configuration
and the gains are re-derived here from the config.  Running averages come
from the Van Loan block exponential

    expm([[A, I], [0, 0]] T) = [[exp(A T), int_0^T exp(A s) ds], [0, I]],

so they are exact at every horizon.  Certificates come from the Jacobi form
of the chain Hamiltonian: its spectrum is that of the real symmetric
tridiagonal matrix ``tri(omega, mu_2..mu_N)``, each eigenvalue doubled, and
``C = (1 + sqrt(l_max / l_min)) / (2 l_min)``.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Relative tolerance on per-element errors, matrix residuals and
#: certificates.  A result perturbed by 1e-3 relative is far outside it.
REL_TOL = 1e-6

#: Absolute floor, scaled by ``1 + |z|``: rounding of the program's cumulative
#: trapezoid sum and of the reference exponential over 1e6 samples.
ABS_FLOOR = 1e-9

#: The rk4 diagnostic integrator is checked against the same exact reference,
#: with a tolerance that covers its truncation error at dt = 0.01, T = 100.
RK4_ABS_TOL = 1e-7

def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# chain parameters and drift, derived from the raw config


def chain_params(raw: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gains, detunings in force and mirror transmissivities (if given)."""
    chain = raw["chain"]
    if "mu" in chain:
        mu = np.array(chain["mu"], dtype=float)
        kappas = None
    else:
        kappas = np.array(chain["kappas"], dtype=float)
        links = kappas.reshape(-1, 2)
        mu = np.concatenate([[chain["mu_1"]], 0.25 * np.sqrt(links[:, 0] * links[:, 1])])
    if "omega_override" in chain:
        omega = np.array(chain["omega_override"], dtype=float)
    else:
        omega = mu + np.append(mu[1:], 0.0)
    return mu, omega, kappas


def augmented_drift(raw: dict) -> np.ndarray:
    """Drift of plant + chain on ``(x_p, x_1, ..., x_N)``."""
    from qchain import network

    mu, omega, kappas = chain_params(raw)
    alpha = np.array(raw["plant"]["alpha"], dtype=float)
    beta = -mu[0] * alpha
    if mu.size == 1:
        cross = 2.0 * J2 @ np.outer(alpha, beta)
        A = np.zeros((4, 4))
        A[0:2, 2:4] = cross
        A[2:4, 0:2] = cross
        A[2:4, 2:4] = 2.0 * omega[0] * J2
        return A
    if kappas is None:
        kappas = np.repeat(4.0 * mu[1:], 2)
    systems, links = network.build_chain(alpha, beta, omega, kappas)
    return network.connect(systems, links).drift


def readout(alpha: np.ndarray, n: int) -> np.ndarray:
    """``(N, 2N)`` per-element consensus readouts: ``alpha (-J)^(i-1) / |alpha|^2``."""
    out = np.zeros((n, 2 * n))
    row = alpha / (alpha @ alpha)
    for i in range(n):
        out[i, 2 * i: 2 * i + 2] = row
        row = row @ (-J2)
    return out


def initial_state(raw: dict) -> np.ndarray:
    mu, _, _ = chain_params(raw)
    n = mu.size
    alpha = np.array(raw["plant"]["alpha"], dtype=float)
    x_p = np.array(raw["initial"]["plant"], dtype=float)
    obs = raw["initial"]["observer"]
    if obs == "zero":
        x_o = np.zeros(2 * n)
    elif obs == "steady":
        z = float(alpha @ x_p)
        x_o = np.concatenate([np.linalg.matrix_power(J2, i) @ alpha * z for i in range(n)])
    else:
        x_o = np.array(obs, dtype=float)
    return np.concatenate([x_p, x_o])


def jacobi_certificate(mu, omega) -> dict:
    """Extreme chain eigenvalues and the ``C/T`` constant from the Jacobi form."""
    mu = np.asarray(mu, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if mu.size == 1:
        lam = omega.copy()
    else:
        lam = scipy.linalg.eigh_tridiagonal(omega, mu[1:], eigvals_only=True)
    lo, hi = float(lam[0]), float(lam[-1])
    bound = math.sqrt(hi / lo)
    return {"lambda_min": lo, "lambda_max": hi, "exp_bound": bound,
            "avg_constant": (1.0 + bound) / (2.0 * lo)}


# ---------------------------------------------------------------------------
# exact trajectories


@dataclass
class SimReference:
    """Exact readouts of one config at its horizons.

    ``avg[h]`` is the exact running average of each element at horizon ``h``;
    ``em[h]`` is the leading Euler-Maclaurin term ``dt^2/(12 T) (f'(T) -
    f'(0))`` by which a trapezoid average on the ``dt`` grid differs from it.
    """

    horizons: np.ndarray
    dt: float
    z: float
    avg: np.ndarray          # (H, N)
    em: np.ndarray           # (H, N)
    z_o_end: np.ndarray      # (N,) instantaneous readouts at the last horizon
    matrix_residual: np.ndarray  # (H,)
    certificate: dict

    def errors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element errors for an exact and for a trapezoid average."""
        return np.abs(self.avg - self.z), np.abs(self.avg + self.em - self.z)


def _van_loan(A: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    d = A.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = A
    block[:d, d:] = np.eye(d)
    E = scipy.linalg.expm(block * T)
    return E[:d, :d], E[:d, d:]


def sim_reference(raw: dict) -> SimReference:
    """Exact readouts and running averages at every horizon of ``raw``.

    The plant couples into the chain only through the conserved ``z``: the
    plant-to-chain block ``Q`` of the drift annihilates the plant velocity
    ``P x_o``, so ``Q x_p(t) = Q x_p(0) = b``.  The chain then obeys ``x_o' =
    A_c x_o + b``, which the state ``(x_o, 1)`` turns into a homogeneous
    drift without the plant's Jordan block.  Van Loan on the full augmented
    drift loses ~1e-5 of ``z`` by T = 1e4 to that block; this form keeps
    every horizon exact to rounding.
    """
    A = augmented_drift(raw)
    P, Q, A_c = A[:2, 2:], A[2:, :2], A[2:, 2:]
    leak = float(np.max(np.abs(Q @ P)))
    if leak > 1e-12 * (1.0 + float(np.max(np.abs(A)))) ** 2:
        raise ValueError(f"plant velocity leaks into the chain drive ({leak:.2e})")
    x0 = initial_state(raw)
    mu, omega, _ = chain_params(raw)
    n = mu.size
    d = 2 * n
    alpha = np.array(raw["plant"]["alpha"], dtype=float)
    R = readout(alpha, n)
    drive = np.zeros((d + 1, d + 1))
    drive[:d, :d] = A_c
    drive[:d, d] = Q @ x0[:2]
    y0 = np.append(x0[2:], 1.0)
    dt = float(raw["sample_dt"])
    hs = np.array(raw["horizons"], dtype=float)
    avg = np.empty((hs.size, n))
    em = np.empty_like(avg)
    resid = np.empty(hs.size)
    f0 = R @ (drive @ y0)[:d]
    for k, h in enumerate(hs):
        E, Phi = _van_loan(drive, h)
        avg[k] = R @ (Phi @ y0)[:d] / h
        yT = E @ y0
        em[k] = dt * dt / (12.0 * h) * (R @ (drive @ yT)[:d] - f0)
        resid[k] = np.linalg.norm(R @ Phi[:d, :d] / h, 2)
    return SimReference(horizons=hs, dt=dt, z=float(alpha @ x0[:2]), avg=avg, em=em,
                        z_o_end=R @ yT[:d], matrix_residual=resid,
                        certificate=jacobi_certificate(mu, omega))


def swept_config(raw: dict, value: float) -> dict:
    out = json.loads(json.dumps(raw))
    if "mu" in out["chain"]:
        out["chain"]["mu"][0] = value
    else:
        out["chain"]["mu_1"] = value
    return out


# ---------------------------------------------------------------------------
# checks


def _close(a, b, rel=REL_TOL, floor=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= rel * np.abs(np.asarray(b)) + floor))


def band_gap(reported, targets, z: float, rk4: bool = False) -> float:
    """How far reported values sit outside the band around any of ``targets``.

    Each target gets ``REL_TOL`` relative slack plus the absolute floor; the
    result is 0 when the values lie within the band of at least one target.
    """
    reported = np.asarray(reported, dtype=float)
    floor = ABS_FLOOR * (1.0 + abs(z)) + (RK4_ABS_TOL if rk4 else 0.0)
    worst = min(
        float(np.max(np.abs(reported - t) - (REL_TOL * np.abs(t) + floor)))
        for t in targets
    )
    return max(0.0, worst)


def error_gap(reported, ref: SimReference, rk4: bool = False) -> float:
    """Band gap of reported per-element errors.

    The band accepts either the exact average or the trapezoid average the
    sampled route produces today.
    """
    return band_gap(reported, ref.errors(), ref.z, rk4)


def check_certificate(cert: dict, ref: dict) -> list[str]:
    return [f"certificate {k} {cert[k]!r} != reference {ref[k]!r}"
            for k in ("lambda_min", "lambda_max", "exp_bound", "avg_constant")
            if not _close(cert[k], ref[k], rel=1e-8)]


def check_simulate(report: dict, ref: SimReference, rk4: bool) -> list[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append("report did not pass")
    if report.get("method") != ("rk4" if rk4 else "exact"):
        problems.append(f"method {report.get('method')!r}")
    if report["horizons"] != ref.horizons.tolist():
        problems.append("horizons differ from the config")
    if error_gap(report["per_element_error"], ref, rk4) > 0:
        problems.append("per_element_error disagrees with the reference")
    if not _close(report["matrix_residual"], ref.matrix_residual):
        problems.append("matrix_residual disagrees with the reference")
    if abs(report["z_p"] - ref.z) > ABS_FLOOR * (1.0 + abs(ref.z)):
        problems.append("z_p differs from alpha . x_p(0)")
    problems += check_certificate(report["certificate"], ref.certificate)
    return problems


def check_build(report: dict, raw: dict) -> list[str]:
    mu, omega, _ = chain_params(raw)
    problems = []
    if report.get("n_elements") != mu.size:
        problems.append("n_elements differs")
    if not _close(report["mu"], mu, rel=1e-12) or not _close(report["omega"], omega,
                                                             rel=1e-12):
        problems.append("gains or detunings differ from the config")
    if report.get("augmented_dim") != 2 * mu.size + 2:
        problems.append("augmented_dim differs")
    return problems + check_certificate(report["certificate"],
                                        jacobi_certificate(mu, omega))


def check_verify(report: dict, raw: dict, expect_failed=()) -> list[str]:
    mu, omega, _ = chain_params(raw)
    checks = {c["name"]: c for c in report["checks"]}
    failed = sorted(n for n, c in checks.items() if not c["passed"] and not c["skipped"])
    problems = []
    if len(checks) != 8:
        problems.append(f"{len(checks)} checks reported, expected 8")
    if failed != sorted(expect_failed):
        problems.append(f"failed checks {failed}, expected {sorted(expect_failed)}")
    if report.get("passed") is not (not expect_failed):
        problems.append("overall verdict disagrees with the checks")
    if checks.get("noise_cancellation", {}).get("skipped") is not (mu.size == 1):
        problems.append("noise_cancellation skipped state is wrong")
    pd = checks.get("positive_definite", {})
    ref = jacobi_certificate(mu, omega)
    if not (_close(pd.get("lambda_min", np.nan), ref["lambda_min"], rel=1e-8)
            and _close(pd.get("lambda_max", np.nan), ref["lambda_max"], rel=1e-8)):
        problems.append("positive_definite eigenvalues disagree with the Jacobi form")
    return problems


def check_sweep(text: str, values, refs: list[SimReference]) -> list[str]:
    lines = text.splitlines()
    header = ("mu_1,lambda_min,lambda_max,avg_constant,"
              "final_max_error,final_matrix_residual,passed")
    if not lines or lines[0] != header:
        return ["sweep header differs"]
    if len(lines) != len(values) + 1:
        return [f"{len(lines) - 1} sweep rows, expected {len(values)}"]
    problems = []
    for value, line, ref in zip(values, lines[1:], refs):
        cells = line.split(",")
        row = [float(c) for c in cells[:6]]
        if row[0] != value or cells[6] != "True":
            problems.append(f"sweep row for {value} not passed")
            continue
        problems += check_certificate(
            dict(zip(("lambda_min", "lambda_max", "avg_constant"), row[1:4]),
                 exp_bound=ref.certificate["exp_bound"]),
            ref.certificate)
        finals = [float(np.max(e[-1])) for e in ref.errors()]
        if band_gap(row[4], finals, ref.z) > 0:
            problems.append(f"final_max_error for {value} disagrees")
        if not _close(row[5], ref.matrix_residual[-1]):
            problems.append(f"final_matrix_residual for {value} disagrees")
    return problems


def csv_rows(n_samples: int, stride: int) -> int:
    """Rows the stride rule keeps: every stride-th sample plus the final one."""
    return len(range(0, n_samples, stride)) + (0 if (n_samples - 1) % stride == 0 else 1)


def check_csv(path: str, raw: dict, ref: SimReference) -> tuple[list[str], str, int, int]:
    """Check a CSV export; returns problems, its sha256, row count and bytes."""
    with open(path, "rb") as f:
        data = f.read()
    digest = hashlib.sha256(data).hexdigest()
    n = ref.avg.shape[1]
    header = ",".join(["t", "z_p"] + [f"z_o_{i}" for i in range(1, n + 1)]
                      + [f"avg_z_o_{i}" for i in range(1, n + 1)])
    problems = []
    first_nl = data.find(b"\n")
    if data[:first_nl].decode() != header:
        problems.append("csv header differs")
    T = float(ref.horizons[-1])
    n_samples = int(round(T / ref.dt)) + 1
    rows = data.count(b"\n") - 1
    expected = csv_rows(n_samples, int(raw.get("csv_stride", 1)))
    if rows != expected:
        problems.append(f"csv has {rows} rows, stride rule gives {expected}")
    last = [float(v) for v in data.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")]
    floor = ABS_FLOOR * (1.0 + abs(ref.z))
    if len(last) != 2 + 2 * n:
        problems.append("csv last row has the wrong width")
    elif abs(last[0] - T) > 1e-9 * T or abs(last[1] - ref.z) > floor:
        problems.append("csv last row t or z_p is wrong")
    elif not _close(last[2:2 + n], ref.z_o_end, rel=1e-7, floor=floor):
        problems.append("csv last-row readouts disagree with exp(A T) x0")
    elif band_gap(last[2 + n:], (ref.avg[-1], ref.avg[-1] + ref.em[-1]), ref.z) > 0:
        problems.append("csv last-row running averages disagree")
    return problems, digest, rows, len(data)
