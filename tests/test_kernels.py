import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import beta as beta_dist
from scipy.stats import norm

from mixlab.errors import (
    ConvergenceError,
    DegenerateXi,
    InvalidParameter,
    MidpointOutsideDomain,
    NonDifferentiablePoint,
    QuadratureNonConvergence,
    RootBracketingFailed,
)
from mixlab.kernels import (
    BernoulliKernel,
    BetaPushforwardKernel,
    GammaKernel,
    GaussianLocationKernel,
    GaussianLocationMixtureKernel,
    LocScaleExponentialKernel,
    UniformKernel,
    betaln,
    bracketed_roots,
    digamma,
    divergence_numeric,
    gamma_quantile,
    gammaln,
    gauss_legendre,
    KERNEL_BUILDERS,
    hellinger_expfam,
    integrate_panels,
    kernel_from_spec,
    logsumexp,
    mixture_divergence,
    mixture_panels,
    moment_map,
    norm_ppf,
    panel_rule,
    segment_boundaries,
    TAIL_EPS,
)


def fd_gradient(kernel, x, theta, step=1e-6):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(theta.size)
    for i in range(theta.size):
        h = step * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (kernel.density(x, up) - kernel.density(x, dn)) / (2 * h)
    return out


CONTINUOUS_CASES = [
    (GaussianLocationKernel(1.3), np.array([0.4])),
    (GammaKernel(), np.array([2.5, 1.7])),
    (UniformKernel(), np.array([2.2])),
    (LocScaleExponentialKernel(), np.array([-0.5, 1.4])),
    (GaussianLocationMixtureKernel(3, 0.8), np.array([0.2, 0.5, -1.0, 0.3, 2.0])),
    (BetaPushforwardKernel(0.4), np.array([0.3, 2.6, 5.0])),
]


class TestDensities:
    @pytest.mark.parametrize("kernel,theta", CONTINUOUS_CASES)
    def test_normalization(self, kernel, theta):
        pts = kernel.support(theta)
        total = sum(
            quad(
                lambda x: kernel.density(x, theta), a, b, epsabs=1e-10, epsrel=1e-10
            )[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_bernoulli_normalization(self):
        ker = BernoulliKernel()
        assert ker.density(0.0, [0.3]) + ker.density(1.0, [0.3]) == pytest.approx(1.0)

    def test_gaussian_mixture_matches_direct_sum(self):
        ker = GaussianLocationMixtureKernel(2, 0.7)
        theta = np.array([0.3, -1.0, 0.5])
        xs = np.linspace(-3, 3, 11)
        direct = 0.3 * norm.pdf(xs, -1.0, 0.7) + 0.7 * norm.pdf(xs, 0.5, 0.7)
        np.testing.assert_allclose(ker.density(xs, theta), direct, rtol=1e-12)

    def test_beta_mixture_matches_direct_sum(self):
        ker = BetaPushforwardKernel(0.25)
        theta = np.array([0.6, 3.0, 8.0])
        zs = np.linspace(0.05, 0.95, 13)
        direct = 0.6 * beta_dist.pdf(zs, 0.75, 2.25) + 0.4 * beta_dist.pdf(
            zs, 2.0, 6.0
        )
        np.testing.assert_allclose(ker.density(zs, theta), direct, rtol=1e-10)

    def test_density_zero_outside_support(self):
        assert UniformKernel().density(3.0, [2.0]) == 0.0
        assert GammaKernel().density(-1.0, [2.0, 1.0]) == 0.0
        assert LocScaleExponentialKernel().density(-1.0, [0.0, 1.0]) == 0.0
        assert BetaPushforwardKernel(0.4).density(1.5, [0.5, 3.0, 4.0]) == 0.0

    def test_box_rejections(self):
        with pytest.raises(InvalidParameter):
            BernoulliKernel().check_theta([0.0])
        with pytest.raises(InvalidParameter):
            GammaKernel().check_theta([1.0, -1.0])
        with pytest.raises(InvalidParameter):
            UniformKernel().check_theta([0.0])
        with pytest.raises(InvalidParameter):
            GaussianLocationMixtureKernel(2).check_theta([1.1, 0.0, 1.0])
        with pytest.raises(InvalidParameter):
            GaussianLocationMixtureKernel(2).check_theta([0.5, 1.0, 0.0])
        with pytest.raises(InvalidParameter):
            BetaPushforwardKernel(0.4).check_theta([0.5, 1.5, 3.0])
        with pytest.raises(InvalidParameter):
            BetaPushforwardKernel(0.4).check_theta([0.5, 4.0, 3.0])
        with pytest.raises(InvalidParameter):
            BetaPushforwardKernel(1.2)
        for trials in (-1, 2.5):
            with pytest.raises(InvalidParameter):
                BernoulliKernel(trials)


PROTOCOL_CASES = [
    (
        BernoulliKernel(),
        [[0.3], [0.55], [0.8]],
        [1.2],
        [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
    ),
    (
        GaussianLocationKernel(1.3),
        [[0.4], [-1.0], [2.5]],
        [np.inf],
        [[-2.0, 0.1, 0.7], [1.3, 3.0, -0.4]],
    ),
    (
        GammaKernel(),
        [[2.5, 1.7], [1.2, 3.0], [0.7, 0.4]],
        [1.0, -1.0],
        [[-0.5, 0.1, 0.7], [1.3, 3.0, 6.0]],
    ),
    (
        UniformKernel(),
        [[2.2], [1.0], [0.7]],
        [-1.0],
        [[-0.5, 0.1, 0.8], [1.3, 2.0, 2.5]],
    ),
    (
        LocScaleExponentialKernel(),
        [[-0.5, 1.4], [0.3, 0.5], [1.0, 2.0]],
        [0.0, -1.0],
        [[-1.0, 0.1, 0.7], [1.3, 3.0, 6.0]],
    ),
    (
        GaussianLocationMixtureKernel(3, 0.8),
        [
            [0.2, 0.5, -1.0, 0.3, 2.0],
            [0.3, 0.3, -0.5, 0.0, 1.0],
            [0.1, 0.1, 0.0, 1.0, 3.0],
        ],
        [0.6, 0.6, -1.0, 0.3, 2.0],
        [[-2.0, 0.1, 0.7], [1.3, 3.0, -0.4]],
    ),
    (
        BetaPushforwardKernel(0.4),
        [[0.3, 2.6, 5.0], [0.5, 3.0, 4.0], [0.9, 2.1, 9.0]],
        [0.5, 1.5, 3.0],
        [[-0.2, 0.05, 0.3], [0.6, 0.95, 1.5]],
    ),
    (
        BernoulliKernel(3),
        [[0.3], [0.55], [0.8]],
        [1.2],
        [[0.0, 1.0, 3.0], [2.0, 0.0, 1.0]],
    ),
]


class TestBroadcastProtocol:
    @pytest.mark.parametrize("kernel,atoms,bad,xs", PROTOCOL_CASES)
    def test_batch_equals_stacked_single_atoms(self, kernel, atoms, bad, xs):
        atoms = np.asarray(atoms, dtype=float)
        xs = np.asarray(xs, dtype=float)
        for name in ("log_density", "density", "grad_density"):
            method = getattr(kernel, name)
            batched = method(xs, atoms)
            stacked = np.stack([method(xs, atom) for atom in atoms])
            np.testing.assert_allclose(batched, stacked, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kernel,atoms,bad,xs", PROTOCOL_CASES)
    def test_output_shapes(self, kernel, atoms, bad, xs):
        atoms = np.asarray(atoms, dtype=float)
        xs = np.asarray(xs, dtype=float)
        q = kernel.q
        assert kernel.log_density(xs, atoms).shape == (3,) + xs.shape
        assert kernel.density(xs, atoms).shape == (3,) + xs.shape
        assert kernel.grad_density(xs, atoms).shape == (3, q) + xs.shape
        grid = atoms.reshape(3, 1, q)
        assert kernel.log_density(xs, grid).shape == (3, 1) + xs.shape
        assert kernel.grad_density(xs, grid).shape == (3, 1, q) + xs.shape
        assert kernel.log_density(xs, atoms[0]).shape == xs.shape
        assert kernel.grad_density(xs, atoms[0]).shape == (q,) + xs.shape
        x0 = float(xs[1, 1])
        assert isinstance(kernel.log_density(x0, atoms[0]), float)
        assert kernel.grad_density(x0, atoms[0]).shape == (q,)

    @pytest.mark.parametrize("kernel,atoms,bad,xs", PROTOCOL_CASES)
    def test_one_bad_atom_rejects_the_batch(self, kernel, atoms, bad, xs):
        atoms = np.asarray(atoms, dtype=float).copy()
        atoms[1] = bad
        for name in ("log_density", "density", "grad_density"):
            with pytest.raises(InvalidParameter):
                getattr(kernel, name)(xs, atoms)


class TestLogSumExp:
    def test_matches_scipy(self, rng):
        from scipy.special import logsumexp as scipy_logsumexp

        a = rng.normal(0, 30, size=(6, 5))
        a[2, 1] = -np.inf
        for axis in (0, 1, -1):
            np.testing.assert_allclose(
                logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis), rtol=1e-14
            )

    def test_all_minus_infinity_row(self):
        a = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        out = logsumexp(a, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(math.log(2.0), abs=1e-15)


class TestSamplers:
    @pytest.mark.parametrize(
        "kernel,theta",
        CONTINUOUS_CASES
        + [(BernoulliKernel(), np.array([0.35]))]
        + [(BernoulliKernel(5), np.array([0.35]))],
    )
    def test_sample_mean(self, kernel, theta, rng):
        draws = kernel.sample(theta, 40000, rng)
        sd = draws.std() + 1e-12
        assert abs(draws.mean() - kernel.mean(theta)) < 5 * sd / math.sqrt(
            draws.size
        )

    def test_samples_inside_support(self, rng):
        ker = UniformKernel()
        draws = ker.sample([1.7], 1000, rng)
        assert np.all((draws >= 0) & (draws <= 1.7))
        ker = BetaPushforwardKernel(0.3)
        draws = ker.sample([0.5, 2.5, 6.0], 1000, rng)
        assert np.all((draws > 0) & (draws < 1))


class TestExpFamily:
    @pytest.mark.parametrize(
        "kernel,theta,xs",
        [
            (BernoulliKernel(), [0.3], [0.0, 1.0]),
            (GaussianLocationKernel(0.9), [0.7], np.linspace(-2, 3, 9)),
            (GammaKernel(), [2.3, 1.4], np.geomspace(0.05, 8.0, 9)),
            (BernoulliKernel(4), [0.3], [0.0, 1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_reconstruction(self, kernel, theta, xs):
        spec = kernel.expfam
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        for x in xs:
            recon = math.exp(spec.log_density(float(x), theta))
            assert abs(recon - kernel.density(float(x), theta)) < 1e-10

    def test_gaussian_spot_value(self):
        ker = GaussianLocationKernel(1.0)
        h = hellinger_expfam(ker, [0.0], [1.0])
        assert h**2 == pytest.approx(1.0 - math.exp(-1.0 / 8.0), abs=1e-12)

    @pytest.mark.parametrize(
        "kernel,make_pair",
        [
            (BernoulliKernel(), lambda r: ([r.uniform(0.05, 0.95)], [r.uniform(0.05, 0.95)])),
            (
                GaussianLocationKernel(1.2),
                lambda r: ([r.normal(0, 1)], [r.normal(0, 1)]),
            ),
            (
                GammaKernel(),
                lambda r: (
                    [r.uniform(0.5, 4), r.uniform(0.5, 3)],
                    [r.uniform(0.5, 4), r.uniform(0.5, 3)],
                ),
            ),
        ],
    )
    def test_matches_quadrature(self, kernel, make_pair, rng):
        for _ in range(20):
            t1, t2 = make_pair(rng)
            h_spec = hellinger_expfam(kernel, t1, t2)
            h_quad = divergence_numeric(kernel, t1, t2, "hellinger")
            assert abs(h_spec - h_quad) < 1e-6

    def test_midpoint_outside_domain(self):
        spec = GammaKernel().expfam
        with pytest.raises(MidpointOutsideDomain):
            hellinger_expfam(spec, [-0.5, 1.0], [0.2, 1.0])

    def test_no_expfam_on_unnormalized_gamma(self):
        with pytest.raises(InvalidParameter):
            hellinger_expfam(GammaKernel(normalized=False), [2.0, 1.0], [3.0, 1.0])


class TestClosedForms:
    def test_bernoulli_exact(self):
        ker = BernoulliKernel()
        t1, t2 = [0.2], [0.55]
        assert ker.closed_divergence("tv", t1, t2) == pytest.approx(0.35, abs=1e-15)
        for which in ("tv", "hellinger", "kl"):
            closed = ker.closed_divergence(which, t1, t2)
            numeric = divergence_numeric(ker, t1, t2, which)
            assert closed == pytest.approx(numeric, abs=1e-14)

    def test_gaussian_closed_vs_numeric(self, rng):
        ker = GaussianLocationKernel(0.8)
        for _ in range(10):
            t1 = [rng.normal(0, 1)]
            t2 = [rng.normal(0, 1)]
            for which in ("tv", "hellinger", "kl"):
                closed = ker.closed_divergence(which, t1, t2)
                numeric = divergence_numeric(ker, t1, t2, which)
                assert abs(closed - numeric) < 1e-7

    def test_gamma_kl_closed_vs_numeric(self, rng):
        ker = GammaKernel()
        for _ in range(5):
            t1 = [rng.uniform(1, 4), rng.uniform(0.5, 2)]
            t2 = [rng.uniform(1, 4), rng.uniform(0.5, 2)]
            closed = ker.closed_divergence("kl", t1, t2)
            numeric = divergence_numeric(ker, t1, t2, "kl")
            assert abs(closed - numeric) < 1e-7

    def test_uniform_closed_vs_numeric(self):
        ker = UniformKernel()
        a, b = [1.3], [2.0]
        for which in ("tv", "hellinger", "kl"):
            closed = ker.closed_divergence(which, a, b)
            numeric = divergence_numeric(ker, a, b, which)
            assert closed == pytest.approx(numeric, abs=1e-9)

    def test_uniform_kl_infinite_when_support_shrinks(self):
        ker = UniformKernel()
        assert ker.closed_divergence("kl", [2.0], [1.0]) == np.inf
        assert divergence_numeric(ker, [2.0], [1.0], "kl") == np.inf

    @pytest.mark.parametrize("gap", [1e-5, 1e-7])
    def test_bernoulli_hellinger_without_cancellation(self, gap):
        t1, t2 = 0.3, 0.3 + gap
        with localcontext() as ctx:
            ctx.prec = 60
            a, b = Decimal(t1), Decimal(t2)
            one = Decimal(1)
            h2 = one - (a * b).sqrt() - ((one - a) * (one - b)).sqrt()
            reference = float(h2.sqrt())
        closed = BernoulliKernel().closed_divergence("hellinger", [t1], [t2])
        assert abs(closed - reference) <= 1e-14 * reference

    def test_numeric_divergence_takes_single_atoms(self):
        with pytest.raises(InvalidParameter):
            divergence_numeric(GaussianLocationKernel(), [[0.3]], [[0.5]], "tv")

    def test_unknown_divergence_name(self):
        with pytest.raises(InvalidParameter):
            divergence_numeric(BernoulliKernel(), [0.3], [0.4], "chi2")

    def test_gamma_tv_closed_form(self):
        tv = divergence_numeric(GammaKernel(), [2.0, 1.0], [3.0, 1.0], "tv")
        assert abs(tv - 2.0 * math.exp(-2.0)) < 1e-12

    def test_gamma_small_shape_hellinger(self):
        ker = GammaKernel()
        closed = hellinger_expfam(ker, [0.1, 1.0], [0.6, 1.3])
        numeric = divergence_numeric(ker, [0.1, 1.0], [0.6, 1.3], "hellinger")
        assert abs(closed - numeric) < 1e-10

    def test_quadrature_failure_raises(self):
        with pytest.raises(QuadratureNonConvergence):
            integrate_panels(lambda x: np.sin(1.0 / (np.abs(x) + 1e-12)), [0.0, 1.0])


class TestGradients:
    @pytest.mark.parametrize(
        "kernel,theta,xs",
        [
            (GaussianLocationKernel(1.1), [0.4], [-1.0, 0.2, 2.0]),
            (GammaKernel(), [2.2, 1.3], [0.4, 1.5, 4.0]),
            (GammaKernel(normalized=False), [2.2, 1.3], [0.4, 1.5]),
            (LocScaleExponentialKernel(), [-0.3, 1.6], [0.2, 1.0, 3.0]),
            (UniformKernel(), [2.0], [0.5, 1.5]),
            (BernoulliKernel(4), [0.37], [0.0, 1.0, 2.0, 4.0]),
        ],
    )
    def test_analytic_matches_fd(self, kernel, theta, xs):
        for x in xs:
            analytic = kernel.grad_density(x, theta)
            fd = fd_gradient(kernel, x, theta)
            np.testing.assert_allclose(analytic, fd, rtol=2e-5, atol=1e-8)

    def test_composites_fd_gradient(self):
        ker = GaussianLocationMixtureKernel(2, 1.0)
        theta = np.array([0.4, -0.5, 1.0])
        g = ker.grad_density(0.3, theta)
        assert g.shape == (3,)
        assert np.all(np.isfinite(g))

    def test_bernoulli_gradient(self):
        ker = BernoulliKernel()
        assert ker.grad_density(1.0, [0.3])[0] == 1.0
        assert ker.grad_density(0.0, [0.3])[0] == -1.0

    def test_gamma_shift_identity(self):
        ker = GammaKernel()
        alpha, beta = 2.7, 1.9
        for x in (0.3, 1.1, 2.5):
            g = ker.grad_density(x, [alpha, beta])
            rhs = (alpha / beta) * (
                ker.density(x, [alpha, beta]) - ker.density(x, [alpha + 1, beta])
            )
            assert g[1] == pytest.approx(rhs, rel=1e-12)

    def test_boundary_points_raise(self):
        with pytest.raises(NonDifferentiablePoint):
            UniformKernel().grad_density(2.0, [2.0])
        with pytest.raises(NonDifferentiablePoint):
            UniformKernel().grad_density(0.0, [2.0])
        with pytest.raises(NonDifferentiablePoint):
            LocScaleExponentialKernel().grad_density(-0.3, [-0.3, 1.6])
        with pytest.raises(NonDifferentiablePoint):
            GammaKernel().grad_density(0.0, [0.5, 1.0])

    def test_outside_support_zero(self):
        assert np.all(UniformKernel().grad_density(3.0, [2.0]) == 0.0)
        assert np.all(
            LocScaleExponentialKernel().grad_density(-1.0, [0.0, 1.0]) == 0.0
        )


class TestMomentMaps:
    def test_gaussian_mixture_spot(self):
        ker = GaussianLocationMixtureKernel(2, 1.0)
        rep = moment_map(ker, [0.5, -1.0, 1.0])
        np.testing.assert_allclose(rep.lam, [0.0, 2.0, 0.0], atol=1e-12)
        assert abs(rep.det_closed) == pytest.approx(4.0, abs=1e-9)
        assert np.linalg.det(rep.jacobian) == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_gaussian_mixture_fd_agreement(self, k, rng):
        ker = GaussianLocationMixtureKernel(k, 0.9)
        for _ in range(10):
            pis = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
            pis /= pis.sum()
            mus = np.sort(rng.normal(0, 1, k))
            while np.min(np.diff(mus)) < 0.2:
                mus = np.sort(rng.normal(0, 1, k))
            theta = np.concatenate([pis[:-1], mus])
            rep = moment_map(ker, theta)
            assert abs(rep.det_closed - rep.det_fd) / max(
                1, abs(rep.det_closed)
            ) < 1e-4
            det_analytic = np.linalg.det(rep.jacobian)
            assert rep.det_closed == pytest.approx(det_analytic, rel=1e-7)

    def test_beta_fd_agreement_signed(self, rng):
        ker = BetaPushforwardKernel(0.27)
        for _ in range(10):
            theta = np.array(
                [
                    rng.uniform(0.1, 0.9),
                    rng.uniform(2.2, 5.0),
                    rng.uniform(5.5, 9.0),
                ]
            )
            rep = moment_map(ker, theta)
            det_analytic = np.linalg.det(rep.jacobian)
            assert rep.det_closed == pytest.approx(det_analytic, rel=1e-8)
            assert np.sign(rep.det_closed) == np.sign(rep.det_fd)

    def test_beta_lambda_is_moment_vector(self):
        ker = BetaPushforwardKernel(0.4)
        theta = np.array([0.35, 2.8, 6.5])
        for row, j in enumerate((1, 2, 3)):
            numeric = quad(
                lambda z, jj=j: z ** (jj + 1) * ker.density(z, theta),
                0.0,
                1.0,
                epsabs=1e-10,
                epsrel=1e-10,
            )[0]
            assert ker.moment_lambda(theta)[row] == pytest.approx(numeric, abs=1e-9)

    def test_degenerate_xi_raises(self):
        for xi in (1 / 3, 1 / 2, 2 / 3):
            ker = BetaPushforwardKernel(xi)
            with pytest.raises(DegenerateXi):
                moment_map(ker, [0.4, 3.0, 5.0])

    def test_reports_compare_by_identity(self):
        ker = GaussianLocationMixtureKernel(2)
        rep = moment_map(ker, [0.3, -1.0, 1.0])
        twin = moment_map(ker, [0.3, -1.0, 1.0])
        assert rep == rep
        assert rep != twin
        assert len({rep, twin}) == 2

    def test_no_moment_map_for_plain_kernels(self):
        with pytest.raises(InvalidParameter):
            moment_map(BernoulliKernel(), [0.4])

    def test_report_invariant_enforced(self):
        from mixlab.kernels import MomentMapReport

        with pytest.raises(ConvergenceError):
            MomentMapReport(
                lam=np.zeros(3),
                jacobian=np.eye(3),
                det_closed=2.0,
                det_fd=1.0,
            )


class TestKernelFromSpec:
    def test_dispatch(self):
        ker = kernel_from_spec({"family": "gaussian_location", "params_fixed": {"sigma": 2.0}})
        assert isinstance(ker, GaussianLocationKernel)
        assert ker.sigma == 2.0
        ker = kernel_from_spec({"family": "beta_pushforward", "params_fixed": {"xi": 0.4}})
        assert ker.xi == 0.4
        ker = kernel_from_spec(
            {"family": "gaussian_location_mixture", "params_fixed": {"k": 3}}
        )
        assert ker.q == 5

    def test_unknown_family(self):
        with pytest.raises(InvalidParameter):
            kernel_from_spec({"family": "cauchy"})

    def test_unknown_fixed_parameter(self):
        with pytest.raises(InvalidParameter):
            kernel_from_spec({"family": "bernoulli", "params_fixed": {"trials": 3}})
        with pytest.raises(InvalidParameter):
            kernel_from_spec({"family": "gaussian_location", "params_fixed": {"sigmaa": 2.0}})

    @pytest.mark.parametrize(
        "family,params",
        [
            ("gaussian_location_mixture", {"k": 2.5}),
            ("gaussian_location_mixture", {"k": 2, "sigma": math.nan}),
            ("gaussian_location_mixture", {"k": 3, "sigma": math.inf}),
            ("gaussian_location_mixture", {"k": 3, "sigma": "2"}),
            ("gamma", {"normalized": "no"}),
            ("gaussian_location", {"sigma": math.nan}),
            ("gaussian_location", {"sigma": math.inf}),
            ("gaussian_location", {"sigma": "2"}),
            ("beta_pushforward", {"xi": math.nan}),
            ("beta_pushforward", {"xi": math.inf}),
        ],
    )
    def test_constructors_refuse_what_they_would_coerce(self, family, params):
        constructor = {
            "gaussian_location": GaussianLocationKernel,
            "gamma": GammaKernel,
            "gaussian_location_mixture": GaussianLocationMixtureKernel,
            "beta_pushforward": BetaPushforwardKernel,
        }[family]
        with pytest.raises(InvalidParameter):
            constructor(**params)
        with pytest.raises(InvalidParameter):
            kernel_from_spec({"family": family, "params_fixed": params})


# A valid atom of each family, and the fixed parameters it is built with.
FAMILY_ATOMS = {
    "bernoulli": ({}, [0.3]),
    "gaussian_location": ({}, [0.4]),
    "gamma": ({}, [2.5, 1.7]),
    "uniform": ({}, [2.2]),
    "locscale_exponential": ({}, [-0.5, 1.4]),
    "gaussian_location_mixture": ({"k": 3}, [0.2, 0.5, -1.0, 0.3, 2.0]),
    "beta_pushforward": ({"xi": 0.4}, [0.3, 2.6, 5.0]),
}


class TestNonFiniteAtoms:
    def test_every_family_has_a_case(self):
        assert sorted(FAMILY_ATOMS) == sorted(KERNEL_BUILDERS)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("family", sorted(KERNEL_BUILDERS))
    def test_every_coordinate_refuses_non_finite_values(self, family, bad):
        params, atom = FAMILY_ATOMS[family]
        kernel = kernel_from_spec({"family": family, "params_fixed": params})
        assert kernel.in_box(np.array(atom))
        for i in range(len(atom)):
            theta = np.array(atom, dtype=float)
            theta[i] = bad
            assert not kernel.in_box(theta)
            assert not kernel.in_box(np.stack([np.array(atom), theta]))[1]
            with pytest.raises(InvalidParameter, match="outside box"):
                kernel.log_density(0.5, theta)
            with pytest.raises(InvalidParameter, match="outside box"):
                kernel.mean(theta)

    def test_gamma_faults_from_infinite_parameters(self):
        with pytest.raises(InvalidParameter):
            GammaKernel().log_density(1.0, (math.inf, 1.0))
        with pytest.raises(InvalidParameter):
            GammaKernel().tail_bounds((1.0, math.inf), 1e-13)


class TestGaussianScaleRange:
    @pytest.mark.parametrize("sigma", [1.5e-154, 1.3e154])
    def test_scales_whose_square_is_normal_are_accepted(self, sigma):
        assert GaussianLocationKernel(sigma).sigma == sigma
        assert GaussianLocationMixtureKernel(2, sigma).sigma == sigma

    @pytest.mark.parametrize("sigma", [1e-300, 1.4e-154, 1.35e154, 1e300])
    def test_scales_whose_square_is_not_normal_are_refused(self, sigma):
        with pytest.raises(InvalidParameter, match="sigma"):
            GaussianLocationKernel(sigma)
        with pytest.raises(InvalidParameter, match="sigma"):
            GaussianLocationMixtureKernel(2, sigma)

    def test_reduction_refuses_a_length_beyond_the_float_range(self):
        assert GaussianLocationKernel(1.0).sufficient_kernel(10**300).sigma == 1e-150
        for N in (10**400, 10**308):
            with pytest.raises(InvalidParameter, match="N is too large"):
                GaussianLocationKernel(1.0).sufficient_kernel(N)


def damped_sine(x):
    """Roots at the multiples of pi, one in each bracket of width < pi."""
    return np.sin(x) * np.exp(0.1 * x)


class TestBracketedRoots:
    @staticmethod
    def brackets(rng, size):
        centres = np.pi * rng.integers(-12, 13, size)
        lo = centres - rng.uniform(0.05, 3.0, size)
        hi = centres + rng.uniform(0.05, 3.0, size)
        return lo, hi

    @pytest.mark.parametrize("xtol", [2e-12, 1e-14])
    def test_random_brackets_agree_with_brentq(self, rng, xtol):
        lo, hi = self.brackets(rng, 60)
        roots = bracketed_roots(damped_sine, lo, hi, xtol, maxiter=200)
        rtol = 4 * np.finfo(float).eps
        for x, a, b in zip(roots, lo, hi):
            want = brentq(damped_sine, a, b, xtol=xtol, rtol=rtol, maxiter=200)
            assert a < x < b
            assert abs(x - want) <= 2 * (xtol + rtol * abs(want))

    def test_brackets_solved_together_or_alone_agree_bit_for_bit(self, rng):
        lo, hi = self.brackets(rng, 40)
        together = bracketed_roots(damped_sine, lo, hi, 2e-12)
        alone = [
            bracketed_roots(damped_sine, lo[i : i + 1], hi[i : i + 1], 2e-12)[0]
            for i in range(lo.size)
        ]
        assert together.tolist() == alone

    def test_a_root_at_an_end_is_returned_exactly(self):
        line = lambda x: x - 1.0  # noqa: E731
        roots = bracketed_roots(line, [1.0, -2.0, 0.0], [3.0, 1.0, 2.0], 2e-12)
        assert roots[0] == 1.0 and roots[1] == 1.0
        assert abs(roots[2] - 1.0) <= 2e-12

    def test_a_bracket_without_a_sign_change_is_refused(self):
        with pytest.raises(RootBracketingFailed):
            bracketed_roots(lambda x: x**2 + 1.0, [-1.0, 2.0], [1.0, 3.0], 2e-12)
        with pytest.raises(RootBracketingFailed):
            bracketed_roots(lambda x: x - 0.5, [0.0, 2.0], [1.0, 3.0], 2e-12)

    def test_no_brackets_give_no_roots(self):
        assert bracketed_roots(damped_sine, [], [], 2e-12).size == 0

    def test_gaussian_tv_cell_matches_quad_split_at_the_crossings(self):
        kernel = GaussianLocationKernel()
        atoms, weights = np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])
        atoms2, weights2 = np.array([[-0.3], [0.4]]), np.array([0.4, 0.6])

        def diff(x):
            p = sum(w * norm.pdf(x, a) for a, w in zip(atoms[:, 0], weights))
            q = sum(w * norm.pdf(x, a) for a, w in zip(atoms2[:, 0], weights2))
            return p - q

        crossings = [brentq(diff, -2.0, 0.0), brentq(diff, 0.5, 2.0)]
        ends = [-np.inf, *crossings, np.inf]
        want = sum(
            quad(lambda x: 0.5 * abs(diff(x)), a, b, epsabs=1e-14, epsrel=1e-13)[0]
            for a, b in zip(ends[:-1], ends[1:])
        )
        got, _ = mixture_divergence(kernel, atoms, weights, atoms2, weights2, "tv")
        assert got == pytest.approx(want, abs=1e-12)


def assert_close(got, want, rel, floor=1.0):
    """|got - want| <= rel * max(floor, |want|) everywhere, with the worst
    point in the message."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(floor, np.abs(want))
    worst = int(np.argmax(err))
    assert err.flat[worst] <= rel, (want.flat[worst], got.flat[worst], err.flat[worst])


class TestSpecialFunctions:
    """The special functions mixlab evaluates on the standard library,
    against scipy.special."""

    def test_lgamma(self):
        x = np.concatenate([
            np.linspace(0.9, 2.1, 12001),
            np.geomspace(1e-6, 1e6, 12000),
            np.linspace(-9.75, -0.25, 3000),
        ])
        assert x.size == 27001
        assert_close(gammaln(x), special.gammaln(x), 1e-14)
        assert gammaln(x[:27000].reshape(3, -1)).shape == (3, 9000)
        assert gammaln(np.array([0.0, -1.0, -7.0])).tolist() == [np.inf] * 3

    @pytest.mark.parametrize("shape", [1e6, 1e10])
    def test_gamma_tail_bounds_at_large_shape(self, shape):
        # The tail loops take about 7 sqrt(shape) terms, under their cap.
        lo, hi = GammaKernel().tail_bounds((shape, 1.0), 1e-13)
        sd = math.sqrt(shape)
        assert shape - 8 * sd < lo < shape - 7 * sd
        assert shape + 7 * sd < hi < shape + 8 * sd

    @pytest.mark.parametrize("shape", [1e12, 1e300])
    def test_gamma_tail_loops_are_capped(self, shape):
        with pytest.raises(ConvergenceError, match=re.escape(f"shape {shape!r}")):
            GammaKernel().tail_bounds((shape, 1.0), 1e-13)

    def test_lgamma_is_exactly_zero_at_one_and_two(self):
        assert gammaln(1.0) == 0.0 and gammaln(2) == 0.0
        carrier = BernoulliKernel().expfam.log_carrier(np.array([0.0, 1.0, 1.0, 0.0]))
        assert carrier.tolist() == [0.0] * 4

    def test_digamma(self):
        x = np.concatenate([np.geomspace(1e-3, 100, 20000), np.linspace(1.36, 1.56, 10001)])
        assert_close(digamma(x), special.digamma(x), 1e-14)

    def test_betaln(self):
        a = np.geomspace(0.05, 50, 161)
        A, B = np.meshgrid(a, a)
        assert_close(betaln(A, B), special.betaln(A, B), 1e-13)

    def test_erf_in_the_closed_gaussian_tv(self):
        kernel = GaussianLocationKernel()
        t = np.linspace(-6.0, 6.0, 2401)
        # |erf| <= 1, so the default floor makes these bounds absolute.
        assert_close([math.erf(v) for v in t], special.erf(t), 1e-15)
        d = t[t >= 0] * 2 * math.sqrt(2)
        tv = [kernel.closed_divergence("tv", [0.0], [v]) for v in d]
        assert_close(tv, special.erf(t[t >= 0]), 1e-15)

    def test_ndtri(self):
        p = np.concatenate([
            np.geomspace(1e-300, 0.5, 4000), 1 - np.geomspace(1e-15, 0.5, 4000)
        ])
        assert_close([norm_ppf(v) for v in p], special.ndtri(p), 1e-14, floor=1e-300)

    @pytest.mark.parametrize("p", [1e-13, 1e-6, 0.3, 0.9, 1 - 1e-13])
    def test_gamma_quantile(self, p):
        shapes = np.geomspace(0.2, 50, 97)
        lower = [gamma_quantile(a, p) for a in shapes]
        upper = [gamma_quantile(a, p, upper=True) for a in shapes]
        assert_close(lower, special.gammaincinv(shapes, p), 1e-12, floor=1e-300)
        assert_close(upper, special.gammainccinv(shapes, p), 1e-12, floor=1e-300)

    @pytest.mark.parametrize(
        "theta", [(0.2, 1.0), (0.7, 0.1), (2.0, 3.0), (3.0, 3.1), (47.0, 5.0)]
    )
    def test_gamma_tail_bounds_leave_eps_in_each_tail(self, theta):
        a, b = theta
        lo, hi = GammaKernel().tail_bounds(theta, 1e-13)
        assert special.gammainc(a, lo * b) == pytest.approx(1e-13, rel=1e-6)
        assert special.gammaincc(a, hi * b) == pytest.approx(1e-13, rel=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.5, -1e-3, math.nan, "0.1"])
    def test_tail_bounds_refuse_eps_outside_the_open_half_interval(self, eps):
        with pytest.raises(InvalidParameter, match="eps"):
            GaussianLocationKernel().tail_bounds([0.0], eps)


class TestGaussLegendre:
    def test_rules_are_cached_and_read_only(self):
        nodes, weights = gauss_legendre(16)
        assert gauss_legendre(16)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        want = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])

    @pytest.mark.parametrize(
        "kernel, atoms",
        [
            (GammaKernel(), [[2.0, 3.0], [3.0, 3.1]]),
            (UniformKernel(), [[0.5], [2.0]]),
            (LocScaleExponentialKernel(), [[0.0, 1e-6], [5.0, 1.0], [0.0, 2.0]]),
        ],
        ids=["gamma", "uniform", "narrow_locscale"],
    )
    def test_mixture_panels_tile_the_boundaries(self, kernel, atoms):
        bounds = segment_boundaries(kernel, atoms)
        ends = [end for atom in atoms for end in kernel.tail_bounds(atom, TAIL_EPS)]
        assert set(ends) <= set(bounds)
        lo, hi = mixture_panels(kernel, atoms, bounds)
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        assert lo[0] == bounds[0] and hi[-1] == bounds[-1]
        assert np.array_equal(lo[1:], hi[:-1])
        assert set(bounds) <= set(lo) | {hi[-1]}
        # The order-16 rule on the panels integrates the summed density.
        x, w = panel_rule((lo, hi), 16)
        mass = w @ kernel.density(x, atoms).sum(axis=0)
        assert mass == pytest.approx(len(atoms), abs=1e-9)
