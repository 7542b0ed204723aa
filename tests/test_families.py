import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from lqglm import (
    Bernoulli,
    CanonicalLink,
    DomainError,
    Gaussian,
    Poisson,
    PowerThetaLink,
    deformed_log,
    get_family,
    get_link,
    jq,
    log_density,
    quantile_residual_base,
    rng_stream,
)
from lqglm.errors import UsageError
from conftest import escort

FAMILIES = [Bernoulli(), Poisson(), Gaussian()]

# Frozen oracle constants, evaluated independently at 50-digit precision.
JQ_POISSON_T1_Q05 = 1.3358667825340613759747386152939199725705894711936
ESCORT_BERN_Y1_T1_Q05_R2 = -0.46989253127733425107349324245178346287292012850552


class TestFamilyInvariants:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_cumulant_convex(self, family):
        grid = np.linspace(-3.0, 3.0, 31)
        assert np.all(family.b_ddot(grid) > 0)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_derivatives_match_finite_differences(self, family):
        grid = np.linspace(-2.0, 2.0, 17)
        h = 1e-6
        fd1 = (family.b(grid + h) - family.b(grid - h)) / (2 * h)
        fd2 = (family.b(grid + h) - 2 * family.b(grid) + family.b(grid - h)) / h**2
        assert_allclose(family.b_dot(grid), fd1, rtol=1e-6, atol=1e-6)
        assert_allclose(family.b_ddot(grid), fd2, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_density_normalizes(self, family):
        phi = family.resolve_phi(1.3 if family.phi_fixed is None else 1.0)
        for theta in (-1.0, 0.3, 1.5):
            if family.discrete:
                ys = np.arange(0, 400, dtype=float)
                if family.name == "bernoulli":
                    ys = np.array([0.0, 1.0])
                total = np.sum(np.exp(log_density(family, ys, theta, phi)))
            else:
                total, _ = quad(
                    lambda u: np.exp(log_density(family, u, theta, phi)),
                    -40.0, 40.0, limit=200,
                )
            assert abs(total - 1.0) < 1e-8

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_sample_moments(self, family):
        # mean within 4 SE of b_dot, variance within 4 SE of b_ddot / phi
        theta = 0.6
        phi = family.resolve_phi(2.0 if family.phi_fixed is None else 1.0)
        rng = rng_stream(101, 0)
        n = 1_000_000
        draws = family.sample(rng, np.full(n, float(family.b_dot(theta))), phi)
        mu, v = float(family.b_dot(theta)), float(family.b_ddot(theta)) / phi
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - mu) < 4 * se_mean
        centered = (draws - mu) ** 2
        se_var = centered.std(ddof=1) / math.sqrt(n)
        assert abs(centered.mean() - v) < 4 * se_var

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_cumulants_equal_the_separate_functions(self, family):
        # one pass gives exactly what b, b_dot and b_ddot give one by one
        # trial points reach past the 700 guard: refits stop on |theta| overflow
        grid = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 700.0, -700.0,
                         709.0, -709.0, 745.0, -745.0, 800.0, -800.0])
        batch = rng_stream(43, 0).normal(0.0, 20.0, size=(5, 8))
        wide = np.linspace(-800.0, 800.0, 16001)
        with np.errstate(over="ignore"):
            for theta in (grid, batch, wide):
                got = family.cumulants(theta)
                want = (family.b(theta), family.b_dot(theta), family.b_ddot(theta))
                for g, w in zip(got, want):
                    assert g.shape == theta.shape and np.array_equal(g, w)
                if family.name != "bernoulli":
                    continue
                # b = max(theta, 0) - log(expit(|theta|)) stays finite and
                # accurate where -log(expit(-theta)) would not (inf beyond 745)
                b = family.b(theta)
                assert np.isfinite(b).all() and b.tobytes() == got[0].tobytes()
                ulp = np.spacing(np.maximum(1.0, np.abs(theta)))
                assert np.all(np.abs(b - np.logaddexp(0.0, theta)) <= 4 * ulp)


class TestThetaLinks:
    @pytest.mark.parametrize("name", ["canonical", "Canonical"])
    def test_canonical_by_name(self, name):
        from lqglm.families import get_link

        assert type(get_link(name)) is CanonicalLink

    @pytest.mark.parametrize("link", [CanonicalLink(), PowerThetaLink(3)])
    def test_inverse_roundtrip(self, link):
        eta = np.linspace(-3.0, 3.0, 61)
        assert np.max(np.abs(link.g(link.k(eta)) - eta)) < 1e-10

    @pytest.mark.parametrize("link", [CanonicalLink(), PowerThetaLink(3)])
    def test_strictly_monotone(self, link):
        eta = np.linspace(-3.0, 3.0, 61)
        eta = eta[np.abs(eta) > 1e-6]  # power link has k_dot(0) = 0
        kd = link.k_dot(eta)
        assert np.all(kd > 0)


class TestDeformedLog:
    def test_unit_argument(self):
        assert deformed_log(1.0, 0.7) == 0.0

    def test_log_branch(self):
        assert_allclose(deformed_log(np.e, 1.0), 1.0, rtol=1e-14)

    def test_half_power(self):
        assert_allclose(deformed_log(4.0, 0.5), 2.0, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            deformed_log(0.0, 0.5)
        with pytest.raises(DomainError):
            deformed_log(1.0, -0.1)

    def test_continuity_in_q(self):
        for u in (0.5, 2.0, 10.0):
            C = np.log(u) ** 2  # |l_{1-h}(u) - log u| ~ h log(u)^2 / 2
            for h in (1e-3, 1e-4):
                gap = abs(deformed_log(u, 1.0 - h) - np.log(u))
                assert gap <= C * h


class TestLogDensity:
    def test_symmetric_bernoulli(self):
        assert_allclose(log_density("bernoulli", 1.0, 0.0, 1.0), np.log(0.5), rtol=1e-14)

    def test_poisson_zero(self):
        assert_allclose(log_density("poisson", 0.0, 0.0, 1.0), -1.0, rtol=1e-14)

    def test_standard_normal_mode(self):
        mu = 0.7
        assert_allclose(
            log_density("gaussian", mu, mu, 1.0), -0.5 * np.log(2 * np.pi), rtol=1e-14
        )


class TestJq:
    def test_bernoulli_at_zero(self):
        assert_allclose(jq("bernoulli", 0.0, 0.8), 2.0**0.2, rtol=1e-14)

    def test_unit_q(self):
        for fam in FAMILIES:
            for theta in (-1.0, 0.0, 2.0):
                assert jq(fam, theta, 1.0) == 1.0

    def test_poisson_value(self):
        assert_allclose(jq("poisson", 1.0, 0.5), JQ_POISSON_T1_Q05, rtol=1e-14)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    def test_non_finite_theta_raises(self, family, theta):
        # the natural parameter space is the real line: only a non-finite theta is outside
        with pytest.raises(DomainError, match="not finite"):
            jq(family, theta, 0.9)
        with pytest.raises(DomainError, match="not finite"):
            jq(family, np.array([0.5, theta]), 0.9)
        with pytest.raises(DomainError, match="not finite"):
            log_density(family, 1.0, theta)


class TestEscort:
    def test_r1_relation_to_log_density(self):
        # At r = 1 the exponential tilt has unit rate, so the escort equals
        # the log-density up to the carrier term (1-q) c(y, phi): exact
        # equality for carrier-free families (Bernoulli), a (1-q) c(y, phi)
        # offset otherwise (the formula's own value; the offset is why the
        # escort mass deviates from 1 for those families).
        rng = rng_stream(12, 0)
        q = 0.6
        for fam in FAMILIES:
            for _ in range(5):
                theta = float(rng.uniform(-1.5, 1.5))
                phi = fam.resolve_phi(float(rng.uniform(0.5, 2.0)))
                y = float(fam.sample(rng, np.atleast_1d(fam.b_dot(theta)), phi)[0])
                a = escort(fam, theta, phi, q, 1.0, y=y)
                b = log_density(fam, y, theta, phi)
                offset = (1.0 - q) * float(fam.c(np.asarray(y), phi))
                assert_allclose(a, b + offset, rtol=1e-12, atol=1e-12)
                if fam.name == "bernoulli":
                    assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_q1_reduces(self):
        fam = Poisson()
        a = escort(fam, 0.4, 1.0, 1.0, 2.0, y=3.0)
        assert_allclose(a, log_density(fam, 3.0, 0.4, 1.0), rtol=1e-12)

    def test_bernoulli_value(self):
        val = escort("bernoulli", 1.0, 1.0, 0.5, 2.0, y=1.0)
        assert_allclose(val, ESCORT_BERN_Y1_T1_Q05_R2, rtol=1e-14)

    def test_normalization_gate(self):
        """The escort integrates to one exactly where the theory needs it.

        Order r = 1 with a carrier-free family (Bernoulli) is normalized;
        elsewhere the mass deviates from 1 and identity tests must record
        the combination instead of asserting the identity.
        """
        records = []
        for fam in FAMILIES:
            for r in (1.0, 2.0):
                mass = escort(fam, 0.5, 1.0, 0.8, r)
                if abs(mass - 1.0) > 1e-8:
                    records.append((fam.name, r, mass))
                else:
                    assert fam.name == "bernoulli" and r == 1.0
        names = {(n, r) for n, r, _ in records}
        assert ("bernoulli", 1.0) not in names
        assert ("bernoulli", 2.0) in names
        assert ("poisson", 1.0) in names and ("gaussian", 1.0) in names


class TestExpectationIdentities:
    """Monte Carlo checks of the power-weight expectation identities."""

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_weighted_mean_identity(self, family):
        # E0[U(theta*) Y] under theta0 = q theta* equals
        # J_q(theta*)^{-phi} * E_q[Y], with E_q summed/integrated over the
        # escort function itself (normalized or not).
        q, theta_star = 0.8, 0.7
        phi = family.resolve_phi(1.0)
        theta0 = q * theta_star
        rng = rng_stream(202, 0)
        n = 1_000_000
        y = family.sample(rng, np.full(n, float(family.b_dot(theta0))), phi)
        U = np.exp((1.0 - q) * log_density(family, y, theta_star, phi))
        vals = U * y
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        if family.discrete:
            ys = np.array([0.0, 1.0]) if family.name == "bernoulli" else np.arange(0, 500, dtype=float)
            eq = np.sum(ys * np.exp(escort(family, theta_star, phi, q, 1.0, y=ys)))
        else:
            eq, _ = quad(
                lambda u: u * np.exp(escort(family, theta_star, phi, q, 1.0, y=u)),
                -40.0, 40.0, limit=200,
            )
        target = jq(family, theta_star, q) ** (-phi) * eq
        assert abs(mc - target) < 4 * se

    def test_weighted_variance_identity_gated(self):
        # E0[U^r (Y-mu)^2] = phi^{-1}/(r(1-q)+q) J^{-phi} b_ddot(theta),
        # asserted only where the escort normalization gate passes; failing
        # combinations are recorded, not assumed.
        q = 0.8
        gate_failures = []
        for family in FAMILIES:
            for r in (1.0, 2.0):
                theta_star = 0.7
                phi = family.resolve_phi(1.0)
                mass = escort(family, theta_star, phi, q, r)
                if abs(mass - 1.0) > 1e-8:
                    gate_failures.append((family.name, r, round(mass, 6)))
                    continue
                theta0 = q * theta_star
                rng = rng_stream(203, int(r))
                n = 2_000_000
                y = family.sample(rng, np.full(n, float(family.b_dot(theta0))), phi)
                U = np.exp((1.0 - q) * log_density(family, y, theta_star, phi))
                vals = U**r * (y - family.b_dot(theta_star)) ** 2
                se = vals.std(ddof=1) / math.sqrt(n)
                target = (
                    (1.0 / phi) / (r * (1.0 - q) + q)
                    * jq(family, theta_star, q) ** (-phi)
                    * family.b_ddot(theta_star)
                )
                assert abs(vals.mean() - target) < 4 * se, (family.name, r)
        # the identity's premise holds only for Bernoulli at r = 1
        assert {(n, r) for n, r, _ in gate_failures} == {
            ("bernoulli", 2.0),
            ("poisson", 1.0), ("poisson", 2.0),
            ("gaussian", 1.0), ("gaussian", 2.0),
        }


class TestQuantileResidualBase:
    def test_gaussian_center(self):
        r, clamped = quantile_residual_base("gaussian", 0.4, 0.4, 1.0)
        assert r == 0.0 and not clamped

    def test_gaussian_quantile(self):
        r, _ = quantile_residual_base("gaussian", 1.96, 0.0, 1.0)
        assert abs(r - 1.96) < 1e-12

    def test_poisson_randomized(self):
        # oracle: sum the pmf terms independently
        mu = 3.0
        pmf = [math.exp(-mu) * mu**k / math.factorial(k) for k in range(3)]
        f1, f2 = sum(pmf[:2]), sum(pmf[:3])
        r, _ = quantile_residual_base("poisson", 2.0, mu, 1.0, uniform_draw=0.5)
        target = -0.49253900580858016  # Phi^{-1}((F(1)+F(2))/2), frozen
        assert abs((f1 + f2) / 2.0 - 0.3111691772991496) < 1e-12
        assert abs(r - target) < 1e-12

    def test_clamp_flag(self):
        r, clamped = quantile_residual_base("gaussian", 50.0, 0.0, 1.0)
        assert clamped and np.isfinite(r)

    def test_discrete_needs_uniform(self):
        with pytest.raises(UsageError, match="discrete families need a uniform_draw"):
            quantile_residual_base("poisson", 2.0, 3.0, 1.0)


def test_get_family_rejects_unknown():
    with pytest.raises(UsageError, match="unknown family 'gamma'"):
        get_family("gamma")


@pytest.mark.parametrize("name,message", [
    ("probit", "unknown theta-link 'probit'"),
    (5, "unknown theta-link 5"),  # once an AttributeError from name.lower()
    ("powerx", "unknown theta-link 'powerx'"),  # once the ValueError of int()
    ("power2", "exponent must be a positive odd integer, got 2"),
])
def test_get_link_rejects_unknown(name, message):
    with pytest.raises(UsageError, match=message):
        get_link(name)


def test_non_numeric_exponent_is_a_usage_error():
    # "3" % 2 once formatted the string and raised a bare TypeError
    with pytest.raises(UsageError, match="^exponent must be a real number, got '3'$"):
        PowerThetaLink("3")


@pytest.mark.parametrize("y", [np.inf, np.nan, -1.0, 2.5])
def test_poisson_support_is_the_finite_nonnegative_integers(y):
    # inf equals its own rounding, so a check by rounding alone let it pass
    with pytest.raises(DomainError, match="Poisson responses must be nonnegative integers"):
        Poisson().validate_y(np.array([0.0, 3.0, y]))
