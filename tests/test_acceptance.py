"""Acceptance suite: every check of ``verify all`` passes at the default units,
and each exit criterion gets its own test with a verdict line (``pytest -s``).

The results are the session's one verify pass (conftest.py), made by the
``checks.run_suite`` that the CLI ``verify`` report prints, so this suite and
the report cannot drift apart, and each check runs once.
"""

import pytest

from landaustar import checks

# Each exit criterion and the result names that decide it; a name also
# selects the results it heads ("integral-equality n=1 l=0 q1=0*gamma").
CRITERIA = {
    "01-normalization": (  # W and the four 1D marginals integrate to h^2
        "normalization-wigner", "normalization-marginal-1d"),
    "02-spectrum": (  # two-sided energy/angular-momentum eigenvalue equations
        "eigenvalue-energy", "eigenvalue-angular-momentum"),
    "03-projection-orthogonality": (  # W * W' = delta W, per coefficient
        "projection W*W=W", "orthogonality W*W'=0"),
    "04-oracle-equivalence": (  # ladder route vs bidifferential oracle
        "oracle-equivalence",),
    "05-marginal-consistency": (  # closed-form 1D densities vs quadrature of W
        "marginal-wigner-consistency",),
    "06-integral-equalities": (  # both plane reductions vs the Hermite sum
        "integral-equality",),
    "07-uncertainty-table": (  # products from the state functional, >= hbar/2,
        "uncertainty-product", "uncertainty-lower-bound"),  # ground saturates
    "08-coherent-states": (  # minimum uncertainty, moments, projection, norm
        "coherent-min-uncertainty", "coherent-moments", "coherent-projection",
        "coherent-normalization"),
    "09-displacement-algebra": (  # star-unitarity, conjugation shift, polynomials
        "displacement-unitarity", "displacement-conjugation",
        "displaced-polynomial-conjugation"),
    "10-generalized-coherent": (  # displaced-observable theorem, variance invariance
        "generalized-power-theorem", "generalized-variance-invariance"),
    "11-robertson-schrodinger": (  # slack >= 0 over random real pairs and states
        "robertson-schrodinger",),
    "12-property-suites": (  # associativity, trace, involution, Cauchy-Schwarz
        "associativity", "trace-property", "hermitian-involution", "cauchy-schwarz"),
}


def failures(results):
    return [f"{r.name}: residual {r.residual} > tolerance {r.tolerance}"
            + (f" ({r.error})" if r.error else "")
            for r in results if not r.passed]


@pytest.mark.parametrize("suite", checks.SUITES)
def test_every_check_of_the_suite_passes(verify_pass, suite):
    assert failures(verify_pass[suite]) == []


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(verify_pass, criterion):
    results = [r for suite in checks.SUITES for r in verify_pass[suite]]
    chosen = []
    for name in CRITERIA[criterion]:
        heads = [r for r in results if r.name == name or r.name.startswith(name + " ")]
        assert heads, f"no result of the pass is named {name!r}"
        chosen += heads
    worst = max(chosen, key=lambda r: r.residual - r.tolerance)
    status = "PASS" if all(r.passed for r in chosen) else "FAIL"
    print(f"[criterion-{criterion}] {status}: worst residual={worst.residual:.3e} "
          f"(tolerance {worst.tolerance:g}, {len(chosen)} checks)")
    assert failures(chosen) == []


def test_the_pass_reports_each_of_its_114_checks_once(verify_pass):
    names = [r.name for suite in checks.SUITES for r in verify_pass[suite]]
    assert len(set(names)) == len(names) == 114
