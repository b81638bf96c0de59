"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every criterion runs at its stated tolerance through the shared verification
checks, so the CLI ``verify`` report and this suite cannot drift apart.
"""

from landaustar import checks
from landaustar.phase_space import PhysParams

PARAMS = PhysParams()


def report(criterion: str, results):
    if isinstance(results, checks.CheckResult):
        results = [results]
    worst = max(results, key=lambda r: r.residual - r.tolerance)
    status = "PASS" if all(r.passed for r in results) else "FAIL"
    print(f"[{criterion}] {status}: worst residual={worst.residual:.3e} "
          f"(tolerance {worst.tolerance:g}, {len(results)} checks)")
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual} > tolerance {r.tolerance}"


def test_criterion_01_normalization():
    """Wigner functions and all four 1D marginals integrate to h^2 (n, l <= 6)."""
    report("criterion-1 normalization", [
        checks.check_wigner_normalization(PARAMS),
        checks.check_marginal_normalization(PARAMS),
    ])


def test_criterion_02_spectrum():
    """Two-sided energy/angular-momentum eigenvalue equations (n, l <= 6)."""
    report("criterion-2 spectrum", [
        checks.check_energy_eigenvalues(PARAMS),
        checks.check_angular_momentum_eigenvalues(PARAMS),
    ])


def test_criterion_03_projection_orthogonality():
    """W * W' = delta * W with per-coefficient residual <= 1e-12."""
    report("criterion-3 projection", [
        checks.check_projection(PARAMS),
        checks.check_orthogonality(PARAMS),
    ])


def test_criterion_04_oracle_equivalence():
    """Ladder route and bidifferential oracle agree for all words of length <= 4."""
    report("criterion-4 oracle-equivalence", checks.check_oracle_equivalence(PARAMS))


def test_criterion_05_marginal_consistency():
    """Closed-form 1D densities match 3D quadrature on both a q- and a p-axis."""
    report("criterion-5 marginal-consistency",
           checks.check_marginal_wigner_consistency(PARAMS))


def test_criterion_06_integral_equalities():
    """Both closed-form plane reductions agree with the Hermite sum."""
    report("criterion-6 integral-equalities", checks.integral_equality_checks(PARAMS))


def test_criterion_07_uncertainty_table():
    """Uncertainty products equal hbar sqrt(var(u_j) var(v_j)) from the state functional;
    none is below hbar/2, and the ground state saturates."""
    results = checks.uncertainty_table_checks(PARAMS)
    ground = results[0]
    assert ground.name == "uncertainty-product n=0 l=0"
    assert ground.residual <= 1e-10
    results.append(checks.check_uncertainty_lower_bound(PARAMS))
    report("criterion-7 uncertainty-table", results)


def test_criterion_08_coherent_states():
    """Eight displacement samples: minimum uncertainty, moments, projection, norm."""
    report("criterion-8 coherent-states", [
        checks.check_coherent_min_uncertainty(PARAMS),
        checks.check_coherent_moments(PARAMS),
        checks.check_coherent_projection(PARAMS),
        checks.check_coherent_normalization(PARAMS),
    ])


def test_criterion_09_displacement_algebra():
    """Star-unitarity, conjugation shift, and displaced-polynomial agreement."""
    report("criterion-9 displacement-algebra", [
        checks.check_displacement_unitarity(PARAMS),
        checks.check_displacement_conjugation(PARAMS),
        checks.check_displaced_polynomial(PARAMS),
    ])


def test_criterion_10_generalized_coherent():
    """Displaced-observable expectation theorem and variance invariance."""
    results = checks.check_generalized_power_theorem(PARAMS)
    results.append(checks.check_generalized_variance_invariance(PARAMS))
    report("criterion-10 generalized-coherent", results)


def test_criterion_11_robertson_schrodinger():
    """Slack non-negative over 100 random real observable pairs and 3 states."""
    report("criterion-11 robertson-schrodinger",
           checks.check_robertson_schrodinger(PARAMS))


def test_criterion_12_property_suites():
    """Associativity, trace property, Hermitian involution, Cauchy-Schwarz."""
    report("criterion-12 property-suites", [
        checks.check_associativity(PARAMS),
        checks.check_trace_property(PARAMS),
        checks.check_hermitian_involution(PARAMS),
        checks.check_cbs(PARAMS),
    ])
