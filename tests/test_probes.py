"""Tests for the inverse-bound probes."""

import json
import math

import numpy as np
import pytest

from mixlab.errors import (
    BudgetExceeded,
    InvalidParameter,
    InvalidPath,
)
from mixlab.kernels import (
    BernoulliKernel,
    GammaKernel,
    GaussianLocationKernel,
)
from mixlab.measures import MixingMeasure
from mixlab.probes import (
    ProbeReport,
    ProbeRow,
    curvature_probe_locscale,
    impact_probe_Dr,
    inverse_ratio_probe,
    lecam_two_point_bound,
    sqrtN_sharpness_probe,
    weight_only_direction,
)

BERN = BernoulliKernel()
GAMMA = GammaKernel()
GAUSS = GaussianLocationKernel(1.0)

GAMMA_G0 = MixingMeasure(np.array([[2.0, 3.0], [3.0, 3.0]]), [0.5, 0.5])
GAMMA_DIRECTION = [0.0, 1.5, 0.0, 0.0, -1.0, 1.0]

GAUSS_G0 = MixingMeasure(np.array([[-1.0], [1.0]]), [0.4, 0.6])
GAUSS_DIRECTION = [1.0, -0.5, 0.3, -0.3]


def make_row(**kwargs):
    base = dict(
        series="ratio",
        index=10.0,
        numerator=0.02,
        numerator_stderr=0.0,
        denominator=0.1,
        ratio=0.2,
        method="quadrature",
    )
    base.update(kwargs)
    return ProbeRow(**base)


class TestProbeRowAndReport:
    def test_row_fields(self):
        row = make_row()
        assert row.ratio_stderr == 0.0

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(InvalidParameter):
            make_row(denominator=0.0)
        with pytest.raises(InvalidParameter):
            make_row(denominator=-0.1)

    def test_exact_method_requires_zero_stderr(self):
        with pytest.raises(InvalidParameter):
            make_row(numerator_stderr=1e-3)
        row = make_row(method="monte-carlo", numerator_stderr=1e-3)
        assert row.ratio_stderr == pytest.approx(1e-2)

    def test_ratio_consistency_enforced(self):
        with pytest.raises(InvalidParameter):
            make_row(ratio=0.3)

    def test_negative_numerator_rejected(self):
        with pytest.raises(InvalidParameter):
            make_row(numerator=-0.02, ratio=-0.2)

    def test_report_requires_rows(self):
        with pytest.raises(InvalidParameter):
            ProbeReport("x", {}, (), {})

    def test_report_records_and_envelope(self):
        report = inverse_ratio_probe(BERN,
            MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5]),
            weight_only_direction(
                MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
            ),
            1,
        )
        records = report.row_records()
        assert len(records) == len(report.rows)
        assert records[0]["probe"] == "inverse_ratio"
        assert set(records[0]) == {
            "probe", "series", "index", "numerator", "numerator_stderr",
            "denominator", "ratio", "method",
        }
        text = json.dumps(report.verdict_envelope())
        doc = json.loads(text)
        assert doc["probe"] == "inverse_ratio"
        assert doc["verdicts"]["ratio"]["bounded_away"] is True

    def test_series_filter(self):
        report = impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 2.0)
        assert len(report.series("over_Dr1")) == 3
        assert len(report.series("over_Wr_r")) == 3
        assert report.series("nope") == ()


class TestWeightOnlyDirection:
    def test_layout(self):
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        flat = weight_only_direction(G)
        assert flat.tolist() == [0.0, 0.0, 1.0, -1.0]
        flat = weight_only_direction(G, i=1, j=0)
        assert flat.tolist() == [0.0, 0.0, -1.0, 1.0]

    def test_bad_indices(self):
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            weight_only_direction(G, i=0, j=0)
        with pytest.raises(InvalidParameter):
            weight_only_direction(G, i=0, j=2)


class TestInverseRatioProbe:
    def test_gamma_pathological_vanishes_at_one_observation(self):
        report = inverse_ratio_probe(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 1)
        rows = report.series("ratio")
        ratios = [row.ratio for row in rows]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] / ratios[0] < 0.2
        assert report.verdicts["ratio"]["vanishing"] is True
        assert report.verdicts["ratio"]["bounded_away"] is False
        assert all(row.method == "quadrature" for row in rows)
        assert all(row.numerator_stderr == 0.0 for row in rows)

    def test_gamma_pathological_plateaus_at_two_observations(self):
        report = inverse_ratio_probe(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 2)
        rows = report.series("ratio")
        ratios = [row.ratio for row in rows]
        assert report.verdicts["ratio"]["bounded_away"] is True
        assert report.verdicts["ratio"]["vanishing"] is False
        assert max(ratios) / min(ratios) < 1.1

    def test_gaussian_generic_direction_bounded_away(self):
        report = inverse_ratio_probe(GAUSS, GAUSS_G0, GAUSS_DIRECTION, 1)
        assert report.verdicts["ratio"]["bounded_away"] is True
        assert report.verdicts["ratio"]["vanishing"] is False

    def test_denominator_identity_and_onset(self):
        report = inverse_ratio_probe(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 1)
        for row in report.series("ratio"):
            assert row.denominator == pytest.approx(1.0 / row.index, abs=1e-12)
        assert report.params["identity_from_ell"] == 10.0

    def test_weight_only_exact_ratios(self):
        # moving only weights leaves the ratio constant in the shrink
        # parameter: half the divergence between the two atom products
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        flat = weight_only_direction(G)
        expected = {1: 0.25, 2: 0.275, 3: 0.34}
        for N, value in expected.items():
            report = inverse_ratio_probe(BERN, G, flat, N)
            for row in report.series("ratio"):
                assert row.ratio == pytest.approx(value, abs=1e-12)
                assert row.ratio <= 0.5 + 3.0 * row.ratio_stderr
            assert report.verdicts["ratio"]["bounded_away"] is True

    def test_numerator_monotone_in_sequence_length(self):
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        for flat in (weight_only_direction(G), [1.0, -0.4, 0.2, -0.2]):
            previous = None
            for N in (1, 2, 3, 4):
                report = inverse_ratio_probe(BERN, G, flat, N)
                nums = [row.numerator for row in report.series("ratio")]
                if previous is not None:
                    for lo, hi in zip(previous, nums):
                        assert hi >= lo - 1e-12
                previous = nums

    def test_atom_leaving_box_rejected(self):
        G = MixingMeasure(np.array([[0.05], [0.9]]), [0.5, 0.5])
        with pytest.raises(InvalidPath):
            inverse_ratio_probe(BERN, G, [-1.0, 0.0, 0.0, 0.0], 1)

    def test_weights_leaving_simplex_rejected(self):
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.02, 0.98])
        with pytest.raises(InvalidPath):
            inverse_ratio_probe(BERN, G, weight_only_direction(G, 1, 0), 1)

    def test_path_faults_name_the_position(self):
        G = MixingMeasure(np.array([[0.05], [0.9]]), [0.5, 0.5])
        with pytest.raises(InvalidPath, match="ell=10$"):
            inverse_ratio_probe(BERN, G, [-1.0, 0.0, 0.0, 0.0], 1)
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.02, 0.98])
        with pytest.raises(InvalidPath, match="at ell=10: weights"):
            inverse_ratio_probe(BERN, G, weight_only_direction(G, 1, 0), 1)

    def test_distance_underflow_ends_in_invalid_path(self):
        # at ell = 1e300 the path point rounds back onto the base measure
        with pytest.raises(InvalidPath, match=r"underflows to 0 at ell=1e\+300"):
            inverse_ratio_probe(
                GAUSS, GAUSS_G0, GAUSS_DIRECTION, 1, ell_grid=(1e300, 1e308)
            )

    @pytest.mark.parametrize("sigma", [1.0, 0.05])
    def test_one_atom_base_matches_closed_form(self, sigma):
        G0 = MixingMeasure(np.array([[0.3]]), [1.0])
        kernel = GaussianLocationKernel(sigma)
        report = inverse_ratio_probe(kernel, G0, [1.0, 0.0], 1)
        for row in report.series("ratio"):
            tv = math.erf(1.0 / row.index / (2.0 * math.sqrt(2.0) * sigma))
            assert row.denominator == pytest.approx(1.0 / row.index, rel=1e-12)
            assert row.ratio == pytest.approx(tv * row.index, rel=1e-9)

    def test_grid_validation(self):
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        flat = weight_only_direction(G)
        with pytest.raises(InvalidParameter):
            inverse_ratio_probe(BERN, G, flat, 1, ell_grid=(10.0,))
        with pytest.raises(InvalidParameter):
            inverse_ratio_probe(BERN, G, flat, 1, ell_grid=(100.0, 10.0))
        with pytest.raises(InvalidParameter):
            inverse_ratio_probe(BERN, G, flat, 1, ell_grid=(0.0, 10.0))

    def test_direction_validation(self):
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            inverse_ratio_probe(BERN, G, [0.0, 0.0, 0.0], 1)
        with pytest.raises(InvalidParameter):
            inverse_ratio_probe(BERN, G, [0.1, 0.1, 0.5, 0.2], 1)
        with pytest.raises(InvalidParameter):
            inverse_ratio_probe(BERN, G, [0.0, 0.0, 0.0, 0.0], 1)

    def test_monte_carlo_rows_report_stderr(self):
        report = inverse_ratio_probe(
            GAMMA, GAMMA_G0, GAMMA_DIRECTION, 3, budget=10**5, seed=11
        )
        rows = report.series("ratio")
        assert all(row.method == "monte-carlo" for row in rows)
        assert all(row.numerator_stderr > 0.0 for row in rows)
        # TV cannot shrink from one observation to three
        single = inverse_ratio_probe(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 1)
        for row, one in zip(rows, single.series("ratio")):
            assert row.numerator >= one.numerator - 4 * row.numerator_stderr

    def test_variance_guard_refuses_noisy_cells(self):
        G = MixingMeasure(np.array([[2.0, 3.0], [30.0, 3.0]]), [0.999, 0.001])
        with pytest.raises(BudgetExceeded, match="predicted stderr"):
            inverse_ratio_probe(
                GAMMA, G, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], 3, budget=10**4
            )

    def test_gaussian_cells_skip_the_pilot(self):
        # the sample mean reduces every N to the exact 1-D engine, so no
        # pilot runs and a budget too small for Monte Carlo is never used
        report = inverse_ratio_probe(
            GAUSS, GAUSS_G0, GAUSS_DIRECTION, 64, budget=100
        )
        for row in report.series("ratio"):
            assert row.method == "quadrature"
            assert row.numerator_stderr == 0.0


class TestImpactProbe:
    def test_gamma_pathological_vanishes(self):
        report = impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 2.0)
        assert report.verdicts["over_Dr1"]["vanishing"] is True
        assert report.verdicts["over_Wr_r"]["vanishing"] is True
        for series in ("over_Dr1", "over_Wr_r"):
            ratios = [row.ratio for row in report.series(series)]
            assert ratios[0] > ratios[1] > ratios[2]

    def test_order_one_matches_inverse_probe(self):
        impact = impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 1.0)
        inverse = inverse_ratio_probe(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 1)
        for row_i, row_b in zip(impact.series("over_Dr1"),
                                inverse.series("ratio")):
            assert row_i.ratio == pytest.approx(row_b.ratio, abs=1e-10)
            assert row_i.denominator == pytest.approx(
                row_b.denominator, abs=1e-12
            )

    def test_numerator_shared_across_orders(self):
        r2 = impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 2.0)
        r1 = impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 1.0)
        for a, b in zip(r2.series("over_Dr1"), r1.series("over_Dr1")):
            assert a.numerator == pytest.approx(b.numerator, abs=1e-15)

    def test_atoms_only_direction_rejected(self):
        with pytest.raises(InvalidParameter):
            impact_probe_Dr(
                GAMMA, GAMMA_G0, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.0
            )

    def test_transport_cost_underflow_ends_in_invalid_path(self):
        # every atom gap is below 1, so gap**r underflows to 0
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        with pytest.raises(InvalidPath, match="underflows to 0 at ell=10$"):
            impact_probe_Dr(BERN, G, [0.0, 0.0, 1.0, -1.0], 1e300)

    def test_order_below_one_rejected(self):
        with pytest.raises(InvalidParameter):
            impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, 0.5)

    @pytest.mark.parametrize("r", [np.nan, np.inf, "2", True])
    def test_order_must_be_a_finite_real(self, r):
        with pytest.raises(InvalidParameter, match="r must be a finite real >= 1"):
            impact_probe_Dr(GAMMA, GAMMA_G0, GAMMA_DIRECTION, r)


class TestCurvatureProbe:
    G0 = MixingMeasure(
        np.array([[0.0, 1.0], [0.0, 2.0]]), [1.0 / 3.0, 2.0 / 3.0]
    )

    def test_pair_vanishes_single_bounded_away(self):
        report = curvature_probe_locscale(self.G0)
        assert report.verdicts["pair"]["vanishing"] is True
        assert report.verdicts["single"]["bounded_away"] is True
        pair = [row.ratio for row in report.series("pair")]
        assert pair[0] > pair[1] > pair[2]
        assert pair[2] / pair[0] < 0.2

    def test_pair_denominator_is_reciprocal_shrink(self):
        report = curvature_probe_locscale(self.G0)
        for row in report.series("pair"):
            assert row.denominator == pytest.approx(1.0 / row.index, abs=1e-12)
        assert report.params["identity_from_ell"] == 10.0
        assert report.params["psi"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_single_denominator_closed_form(self):
        # atom shift c plus two weight shifts of psi*c under the identity
        # matching, with c = 1 / ((2 + 2 psi) ell)
        report = curvature_probe_locscale(self.G0)
        psi = 1.0 / 3.0
        for row in report.series("single"):
            c = 1.0 / ((2.0 + 2.0 * psi) * row.index)
            assert row.denominator == pytest.approx(
                c * (1.0 + 2.0 * psi), abs=1e-12
            )

    def test_extra_atoms_allowed(self):
        G = MixingMeasure(
            np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 1.0]]),
            [0.2, 0.4, 0.4],
        )
        report = curvature_probe_locscale(G)
        assert report.verdicts["pair"]["vanishing"] is True
        assert report.verdicts["single"]["bounded_away"] is True

    def test_precondition_violations(self):
        with pytest.raises(InvalidParameter):
            curvature_probe_locscale(
                MixingMeasure(np.array([[0.0, 1.0], [0.0, 1.0 + 1e-15]]),
                              [0.5, 0.5])
            )
        with pytest.raises(InvalidParameter):
            curvature_probe_locscale(
                MixingMeasure(np.array([[0.0, 1.0], [0.5, 2.0]]), [1 / 3, 2 / 3])
            )
        with pytest.raises(InvalidParameter):
            curvature_probe_locscale(
                MixingMeasure(np.array([[0.0, 1.0], [0.0, 2.0]]), [0.5, 0.5])
            )
        with pytest.raises(InvalidParameter):
            curvature_probe_locscale(
                MixingMeasure(np.array([[0.0, 1.0]]), [1.0])
            )
        with pytest.raises(InvalidParameter):
            curvature_probe_locscale(
                MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
            )

    def test_weight_underflow_rejected(self):
        G = MixingMeasure(
            np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 1.0]]),
            [0.004, 0.008, 0.988],
        )
        with pytest.raises(InvalidPath):
            curvature_probe_locscale(G, ell_grid=(0.2, 10.0))


class TestSqrtNSharpnessProbe:
    def test_gaussian_closed_form(self):
        report = sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0)
        for row in report.rows:
            n = float(row.series.split("=")[1])
            eps = row.index
            h = math.sqrt(1.0 - math.exp(-eps * eps / 8.0))
            expected = math.sqrt(n) * h / (n * abs(eps))
            assert row.ratio == pytest.approx(expected, abs=1e-12)
            assert row.method == "bound"
            assert row.numerator_stderr == 0.0

    def test_minima_halve_under_squared_inflation(self):
        report = sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0)
        minima = [entry["minimum"] for entry in report.verdicts["minima"]]
        assert minima[1] / minima[0] == pytest.approx(0.5, abs=1e-9)
        assert minima[2] / minima[1] == pytest.approx(0.5, abs=1e-9)
        assert report.verdicts["vanishing"] is True
        assert report.verdicts["bounded_away"] is False

    def test_control_exponent_is_flat(self):
        report = sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 1.0)
        minima = [entry["minimum"] for entry in report.verdicts["minima"]]
        assert max(minima) - min(minima) < 1e-12
        assert report.verdicts["bounded_away"] is True
        assert report.verdicts["vanishing"] is False

    def test_zero_epsilon_excluded_and_flagged(self):
        report = sqrtN_sharpness_probe(
            GAUSS, GAUSS_G0, 2.0, eps_grid=(0.0, 0.1, 0.2)
        )
        assert report.params["excluded_epsilons"] == [0.0]
        assert len(report.rows) == 3 * 2
        assert all(row.index != 0.0 for row in report.rows)

    def test_negative_epsilon_allowed(self):
        report = sqrtN_sharpness_probe(
            GAUSS, GAUSS_G0, 2.0, eps_grid=(-0.1, 0.1)
        )
        by_n = {}
        for row in report.rows:
            by_n.setdefault(row.series, []).append(row.ratio)
        for ratios in by_n.values():
            assert ratios[0] == pytest.approx(ratios[1], abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 0.5)
        with pytest.raises(InvalidParameter):
            sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0, N_grid=(4,))
        with pytest.raises(InvalidParameter):
            sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0, N_grid=(16, 4))
        with pytest.raises(InvalidParameter):
            sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0, N_grid=(4, 8.5))
        for n in (math.inf, math.nan, "x"):
            with pytest.raises(InvalidParameter):
                sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0, N_grid=(1, n))
        with pytest.raises(InvalidParameter):
            sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0, eps_grid=(0.0,))
        with pytest.raises(InvalidParameter):
            sqrtN_sharpness_probe(GAUSS, GAUSS_G0, 2.0, atom_index=5)

    def test_perturbation_outside_box_rejected(self):
        G = MixingMeasure(np.array([[0.3], [0.9]]), [0.5, 0.5])
        with pytest.raises(InvalidPath):
            sqrtN_sharpness_probe(
                BERN, G, 2.0, N_grid=(2, 4), eps_grid=(0.2,), atom_index=1
            )

    def test_path_fault_names_the_perturbation(self):
        G = MixingMeasure(np.array([[0.3], [0.9]]), [0.5, 0.5])
        with pytest.raises(InvalidPath, match="parameter box at eps=0.2$"):
            sqrtN_sharpness_probe(
                BERN, G, 2.0, N_grid=(2, 4), eps_grid=(0.05, 0.2), atom_index=1
            )


class TestLeCamTwoPointBound:
    def test_spot_value(self):
        assert lecam_two_point_bound(100, 4, 1.0, 1.0, 0.5) == pytest.approx(
            0.003125, abs=1e-15
        )

    def test_square_root_exponent_spot(self):
        assert lecam_two_point_bound(4, 1, 1.0, 2.0, 0.5) == pytest.approx(
            0.0625, abs=1e-15
        )

    def test_homogeneity_at_unit_smoothness(self):
        base = lecam_two_point_bound(100, 4, 1.0, 1.0, 0.5)
        assert lecam_two_point_bound(200, 4, 1.0, 1.0, 0.5) == pytest.approx(
            base / math.sqrt(2.0), abs=1e-12
        )
        assert lecam_two_point_bound(100, 8, 1.0, 1.0, 0.5) == pytest.approx(
            base / math.sqrt(2.0), abs=1e-12
        )

    def test_boundary_degeneration(self):
        assert lecam_two_point_bound(100, 4, 1.0, 1.0, 1e-9) < 1e-6
        assert lecam_two_point_bound(100, 4, 1.0, 1.0, 1.0 - 1e-9) < 1e-6

    def test_validation(self):
        for bad in (
            dict(m=0),
            dict(N=0),
            dict(gamma=0.0),
            dict(beta0=0.0),
            dict(a=0.0),
            dict(a=1.0),
            dict(a=1.5),
        ):
            kwargs = dict(m=100, N=4, gamma=1.0, beta0=1.0, a=0.5)
            kwargs.update(bad)
            with pytest.raises(InvalidParameter):
                lecam_two_point_bound(**kwargs)
