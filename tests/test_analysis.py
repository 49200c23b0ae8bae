"""Certificate-layer tests: energy matrix, complex reduction, norm bounds, averaging."""

import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from flow_reference import ConservativeFlow
from qchain import analysis, observer
from qchain.core import build_symplectic


def _complex_amplitudes(x):
    return x[0::2] + 1j * x[1::2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_energy_matrix_rejects_non_finite_inputs(bad):
    # NaN < 0 is false, so a plain sign check would let these through to a
    # silently wrong spectrum
    with pytest.raises(ValueError, match="finite"):
        analysis.observer_hamiltonian([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        analysis.observer_hamiltonian([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        analysis.observer_hamiltonian([1.0, 1.0], omega=[bad, 1.0])


def test_analysis_does_not_import_observer():
    """``observer`` builds on ``analysis``, never the other way round.

    ``analysis`` reads everything from the chain spectrum, so it imports no
    other qchain module at all.  The package ``__init__`` imports every layer, so ``qchain`` is replaced
    by a bare package object and ``qchain.analysis`` is imported alone.
    """
    package_dir = str(pathlib.Path(analysis.__file__).parent)
    code = (
        "import sys, types; "
        "pkg = types.ModuleType('qchain'); pkg.__path__ = [sys.argv[1]]; "
        "sys.modules['qchain'] = pkg; "
        "import qchain.analysis; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qchain.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, package_dir], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["qchain.analysis"]


def test_energy_matrix_literal():
    ham = analysis.observer_hamiltonian([1.0, 1.0])
    expected = np.array(
        [
            [2.0, 0.0, 0.0, 1.0],
            [0.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(ham.matrix, expected)
    assert np.array_equal(ham.omega, [2.0, 1.0])
    assert ham.mu.size == 2


def test_energy_matrix_eigenvalues_come_in_pairs():
    ham = analysis.observer_hamiltonian([1.0, 1.0])
    evals = np.sort(np.linalg.eigvalsh(ham.matrix))
    golden = np.sort(
        np.repeat([(3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0], 2)
    )
    assert np.allclose(evals, golden, atol=1e-13)


def test_energy_matrix_validates_gains():
    with pytest.raises(ValueError):
        analysis.observer_hamiltonian([1.0, 0.0])
    with pytest.raises(ValueError):
        analysis.observer_hamiltonian([-0.1])
    with pytest.raises(ValueError):
        analysis.observer_hamiltonian([1.0, 1.0], omega=[2.0])
    # a zero head gain is allowed: it detaches the chain from the plant
    ham = analysis.observer_hamiltonian([0.0, 1.0])
    assert ham.matrix.shape == (4, 4)


def test_hermitian_reduction_literal():
    ham = analysis.observer_hamiltonian([1.0, 1.0])
    assert np.allclose(ham.H, [[2.0, -1.0j], [1.0j, 1.0]], atol=1e-15)


def test_reduction_preserves_spectrum():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        mu = rng.uniform(0.05, 4.0, size=n)
        ham = analysis.observer_hamiltonian(mu)
        real_evals = np.sort(np.linalg.eigvalsh(ham.matrix))
        complex_evals = np.sort(np.linalg.eigvalsh(ham.H))
        assert np.allclose(real_evals, np.sort(np.repeat(complex_evals, 2)), atol=1e-12)


def test_reduction_preserves_quadratic_form():
    rng = np.random.default_rng(29)
    ham = analysis.observer_hamiltonian([0.8, 1.4, 0.6, 2.0])
    for _ in range(25):
        x = rng.standard_normal(8)
        a = _complex_amplitudes(x)
        real_form = x @ ham.matrix @ x
        complex_form = np.real(np.conj(a) @ ham.H @ a)
        assert abs(real_form - complex_form) <= 1e-12 * max(1.0, abs(real_form))


def test_split_certifies_design_chain():
    ham = analysis.observer_hamiltonian([0.8, 1.4, 0.6, 2.0])
    residual, tolerance, failures = analysis.split_report(ham)
    assert failures == []
    # the deciding sub-check has the largest ratio, so every one passes
    assert residual <= tolerance


def test_split_rejects_detuned_chain():
    ham = analysis.observer_hamiltonian([1.0, 1.0], omega=[2.0, 1.25])
    residual, tolerance, failures = analysis.split_report(ham)
    assert residual > tolerance
    assert failures
    # the link-square reconstruction misses by the detuning, 0.25
    assert residual == pytest.approx(0.25, abs=1e-12)


def test_zero_head_kernel_matches_steady_pattern():
    # with the plant coupling switched off the chain Hamiltonian loses rank and
    # its kernel is exactly the span of the steady-state pattern columns
    for n in (1, 2, 5):
        mu = np.linspace(1.0, 2.0, n)
        detached = np.concatenate(([0.0], mu[1:]))
        ham = analysis.observer_hamiltonian(detached)
        evals, evecs = np.linalg.eigh(ham.matrix)
        assert np.all(np.abs(evals[:2]) <= 1e-12)
        if n > 1:
            assert np.all(evals[2:] > 1e-10)
        plant = observer.PlantSpec(alpha=np.array([1.0, 0.0]))
        real = observer.build_observer(plant, mu)
        angles = scipy.linalg.subspace_angles(evecs[:, :2], real.steady_pattern)
        assert np.max(angles) <= 1e-7


def test_positive_definite_check():
    ok, lo, hi = analysis.check_positive_definite(
        analysis.observer_hamiltonian([1.0, 1.0, 1.0])
    )
    assert ok
    assert lo == pytest.approx(0.19806226419516165, rel=1e-10)
    assert hi == pytest.approx(3.2469796037174667, rel=1e-10)
    ok_bad, lo_bad, _ = analysis.check_positive_definite(
        analysis.observer_hamiltonian([1.0, 1.0], omega=[-2.0, 1.0])
    )
    assert not ok_bad
    assert lo_bad < -1.0


def test_exp_norm_bound_canonical():
    ham = analysis.observer_hamiltonian([1.0, 1.0, 1.0])
    times = np.logspace(-2, 3, 50)
    report = analysis.exp_norm_bound(ham, times)
    assert report.passed
    assert report.bound == pytest.approx(4.048917339522306, rel=1e-12)
    assert np.all(report.norms <= report.bound * (1.0 + 1e-9))
    assert np.allclose(report.norms, 1.0, atol=1e-12)  # the chain flow is unitary


def test_exp_norm_bound_requires_definite_energy():
    ham = analysis.observer_hamiltonian([1.0, 1.0], omega=[-2.0, 1.0])
    with pytest.raises(ValueError):
        analysis.exp_norm_bound(ham, [1.0])
    with pytest.raises(ValueError):
        analysis.exp_norm_bound(analysis.observer_hamiltonian([1.0, 1.0]), [-1.0])


def test_time_average_integral_against_quadrature():
    ham = analysis.observer_hamiltonian([0.7, 1.2])
    form = build_symplectic(2)
    flow = ConservativeFlow(ham.matrix, form)
    T = 5.0
    times = np.linspace(0.0, T, 2001)
    stack = np.stack([flow.matrix(t) for t in times])
    reference = scipy.integrate.simpson(stack, x=times, axis=0)
    result = analysis.time_average_integral(ham, T)
    assert np.max(np.abs(result - reference)) <= 1e-10


def test_time_average_integral_validates():
    # the closed form needs only lam != 0: a zero horizon and an indefinite
    # chain are fine, a negative horizon and a singular chain are not
    ham = analysis.observer_hamiltonian([0.7, 1.2])
    assert np.all(analysis.time_average_integral(ham, 0.0) == 0.0)
    indefinite = analysis.observer_hamiltonian([1.0, 1.0], omega=[-2.0, 1.0])
    assert np.all(np.isfinite(analysis.time_average_integral(indefinite, 1.0)))
    with pytest.raises(ValueError, match="non-negative"):
        analysis.time_average_integral(ham, -1.0)
    singular = analysis.observer_hamiltonian([0.0, 1.0])  # tri(1, 1; 1) has lam = 0
    assert singular.singular
    with pytest.raises(ValueError, match="singular"):
        analysis.time_average_integral(singular, 1.0)


def test_convergence_certificate_values():
    ham = analysis.observer_hamiltonian([1.0, 1.0, 1.0])
    cert = analysis.convergence_certificate(ham)
    assert cert.lambda_min == pytest.approx(0.19806226419516165, rel=1e-12)
    assert cert.lambda_max == pytest.approx(3.2469796037174667, rel=1e-12)
    assert cert.avg_constant == pytest.approx(12.745783150664494, rel=1e-12)
    # the inverse form is orthogonal, so the constant collapses to a spectral ratio
    expected = 0.5 * (cert.exp_bound + 1.0) / cert.lambda_min
    assert cert.avg_constant == pytest.approx(expected, rel=1e-12)


def test_certificate_two_element_value():
    ham = analysis.observer_hamiltonian([1.0, 1.0])
    cert = analysis.convergence_certificate(ham)
    assert cert.exp_bound == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=1e-9)


def test_averaged_propagator_obeys_certificate():
    ham = analysis.observer_hamiltonian([1.0, 1.0, 1.0])
    cert = analysis.convergence_certificate(ham)
    for T in (0.5, 3.0, 42.0, 777.0):
        avg = analysis.time_average_integral(ham, T) / T
        assert np.linalg.norm(avg, 2) <= (cert.avg_constant / T) * (1.0 + 1e-9)


def test_certificate_rejects_indefinite_energy():
    ham = analysis.observer_hamiltonian([1.0, 1.0], omega=[-2.0, 1.0])
    with pytest.raises(ValueError):
        analysis.convergence_certificate(ham)


def test_certificate_rejects_a_singular_chain():
    # lambda_min is 1e-16 of lambda_max: positive to rounding, but singular
    ham = analysis.observer_hamiltonian([1.0, 1.0, 1.0], omega=[1.0, 2.0, 1.0])
    assert 0.0 < ham.lam[0] <= analysis.SINGULAR_TOL * ham.lam[-1]
    with pytest.raises(ValueError, match="chain Hamiltonian is singular"):
        analysis.convergence_certificate(ham)


# ---------------------------------------------------------------------------
# the steady solve


def _random_chain(rng, kind):
    """A random chain: ``design``, ``detuned`` or ``indefinite``."""
    n = int(rng.integers(1, 40))
    mu = 10.0 ** rng.uniform(-2, 2, n)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    alpha = 10.0 ** rng.uniform(-3, 3) * np.array([np.cos(phi), np.sin(phi)])
    plant = observer.PlantSpec(alpha=alpha)
    omega = analysis.detunings_from_gains(mu)
    if kind == "detuned":
        omega = omega * (1.0 + rng.choice([-1, 1], n) * 10.0 ** rng.uniform(-16, -1, n))
    elif kind == "indefinite":
        omega = omega - rng.uniform(0.0, 2.0) * omega.max()
    return observer.build_observer(plant, mu, omega)


@pytest.mark.parametrize("kind", ["design", "detuned", "indefinite"])
def test_steady_matches_the_dense_solve(kind):
    # the spectral steady offset against LU on the 2N x 2N drift
    rng = np.random.default_rng(["design", "detuned", "indefinite"].index(kind))
    for _ in range(300):
        real = _random_chain(rng, kind)
        drift, drive = real.drift, real.input_vector
        s = real.hamiltonian.steady(drive)
        scale = np.linalg.norm(drift, 2) * np.linalg.norm(s) + np.linalg.norm(drive)
        assert np.linalg.norm(drift @ s + drive) <= 1e-14 * scale
        dense = np.linalg.solve(drift, -drive)
        size = np.abs(real.hamiltonian.lam)
        cond = size.max() / size.min()
        assert np.linalg.norm(s - dense) <= 1e-13 * cond * np.linalg.norm(dense)


def test_steady_refuses_a_singular_chain():
    for omega in ([1.0, 1.0], [1.0, 2.0, 1.0]):
        ham = analysis.observer_hamiltonian(np.ones(len(omega)), omega=omega)
        assert ham.singular
        with pytest.raises(ValueError, match="chain drift is singular"):
            ham.steady(np.ones(2 * len(omega)))
    assert not analysis.observer_hamiltonian([1.0, 1.0], omega=[-2.0, 1.0]).singular


# ---------------------------------------------------------------------------
# the Jacobi spectrum


@pytest.mark.parametrize("mu", [0.7, 1.0, 1.3])
def test_uniform_chain_spectrum_matches_closed_form(mu):
    for n in (1, 2, 3, 10, 50, 100):
        ham = analysis.observer_hamiltonian(np.full(n, mu))
        k = np.arange(1, n + 1)
        oracle = 2.0 * mu * (1.0 - np.cos((2 * k - 1) * np.pi / (2 * n + 1)))
        assert np.max(np.abs(ham.lam - oracle)) <= 1e-13 * mu


def test_uniform_certificate_grows_like_n_cubed():
    expected = {1: 1.0, 3: 12.745783150664494, 10: 318.5560118265, 100: 263924.6302142}
    for n, value in expected.items():
        ham = analysis.observer_hamiltonian(np.ones(n))
        cert = analysis.convergence_certificate(ham)
        assert cert.avg_constant == pytest.approx(value, rel=1e-9)
    # at N = 100, lam_min ~ pi^2 / (4 N^2) and lam_max ~ 4 give C ~ 8 N^3 / pi^3
    assert cert.avg_constant / n**3 == pytest.approx(8.0 / np.pi**3, rel=0.03)


def test_chain_propagator_is_unitary():
    rng = np.random.default_rng(41)
    for n in (1, 4, 30):
        ham = analysis.observer_hamiltonian(
            rng.uniform(0.3, 2.0, size=n), omega=rng.uniform(-1.0, 3.0, size=n)
        )
        for t in np.concatenate(([0.0], np.logspace(-2, 4, 25))):
            U = ham.propagator(t)
            assert abs(np.linalg.norm(U, 2) - 1.0) <= 1e-12
            assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-12
    # so the norm bound sqrt(l_max / l_min) >= 1 of criterion 5 is never tight
    report = analysis.exp_norm_bound(
        analysis.observer_hamiltonian([1.0, 1.0, 1.0]), np.logspace(-2, 3, 50)
    )
    assert np.max(np.abs(report.norms - 1.0)) <= 1e-12
    assert report.bound > 4.0
