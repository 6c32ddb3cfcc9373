import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbelab import (
    ConstantKernel,
    CustomIC,
    CustomKernel,
    DiscreteFragmentsBreakage,
    DomainError,
    MassUniformBreakage,
    NoExactReferenceError,
    ProductKernel,
    UnknownCaseError,
    ahpm_terms,
    build_grid,
    case_ids,
    eoc,
    exact_concentration,
    exact_moment,
    ham_terms,
    integrate,
    kernel_eval,
    project_initial,
    registry_case,
    with_overrides,
)
from cbelab.cases import kernel_matrix
from error_bounds import geometric_error_bound, ham_contraction, weighted_norm


class TestKernels:
    def test_product_kernel_value(self):
        assert kernel_eval(ProductKernel(1.0), 2.0, 3.0) == 6.0

    def test_constant_kernel_value(self):
        assert kernel_eval(ConstantKernel(1.0), 5.0, 7.0) == 1.0

    def test_scaled_product_value(self):
        assert kernel_eval(ProductKernel(1.0 / 20.0), 2.0, 3.0) == pytest.approx(0.3)

    def test_symmetry_on_random_pairs(self, rng):
        kernels = [
            ConstantKernel(2.5),
            ProductKernel(1.0),
            ProductKernel(0.05),
            CustomKernel(lambda x, y: np.sqrt(x * y)),
        ]
        pairs = rng.uniform(1e-6, 100.0, size=(1000, 2))
        for kernel in kernels:
            for x, y in pairs:
                forward = kernel_eval(kernel, x, y)
                assert forward == kernel_eval(kernel, y, x)
                assert forward >= 0.0

    @pytest.mark.parametrize("bad", [(-1.0, 2.0), (0.0, 1.0), (1.0, 0.0)])
    def test_rejects_non_positive_sizes(self, bad):
        with pytest.raises(DomainError):
            kernel_eval(ProductKernel(1.0), *bad)

    def test_rejects_negative_rate(self):
        for kernel in (ConstantKernel, ProductKernel):
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="finite and non-negative"):
                    kernel(bad)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
        y=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
        rate=st.floats(0.0, 1e3),
    )
    def test_table_matches_pointwise_rates_bit_for_bit(self, x, y, rate):
        # one broadcast call and one call per value read the same formula; these
        # operations are correctly rounded, so the two agree in every bit
        x, y = np.array(x), np.array(y)
        kernels = [
            ConstantKernel(rate),
            ProductKernel(rate),
            CustomKernel(lambda p, q: rate * np.sqrt(p * q) + np.minimum(p, q) / (p + q)),
        ]
        for kernel in kernels:
            table = kernel_matrix(kernel, x, y)
            pointwise = [[kernel_eval(kernel, p, q) for q in y] for p in x]
            assert table.shape == (x.size, y.size)
            assert table.tobytes() == np.array(pointwise).tobytes()


class TestBreakage:
    def test_rejects_incomplete_ratios(self):
        with pytest.raises(DomainError, match="at least one fragmentation ratio"):
            DiscreteFragmentsBreakage(())
        with pytest.raises(DomainError):
            DiscreteFragmentsBreakage((Fraction(1, 2),))

    def test_rejects_ratio_outside_unit_interval(self):
        with pytest.raises(DomainError):
            DiscreteFragmentsBreakage((Fraction(3, 2), Fraction(-1, 2)))

    def test_mass_guard_is_exact_below_double_precision(self):
        # the ratios' floats sum to 1.0; the exact rationals miss it by 1e-30
        ratios = (Fraction(2, 5), Fraction(3, 5) - Fraction(1, 10**30))
        assert sum(float(a) for a in ratios) == 1.0
        with pytest.raises(DomainError, match="must sum to 1 exactly"):
            DiscreteFragmentsBreakage(ratios)


class TestExactReferences:
    def test_initial_time_reduces_to_initial_condition(self, ex1):
        x = np.linspace(0.1, 5.0, 40)
        assert exact_concentration(ex1, 0.0, x) == pytest.approx(np.exp(-x))

    def test_ex1_closed_form_value(self, ex1):
        assert exact_concentration(ex1, 1.0, 1.0) == pytest.approx(
            4.0 * math.exp(-2.0)
        )

    def test_ex2_has_no_concentration(self, ex2):
        with pytest.raises(NoExactReferenceError):
            exact_concentration(ex2, 0.5, 1.0)

    def test_ex2_zeroth_moment(self, ex2):
        assert exact_moment(ex2, 0, 1.0) == pytest.approx(1.2)

    def test_ex1_mass_is_one(self, ex1):
        for t in (0.0, 0.25, 1.0):
            assert exact_moment(ex1, 1, t) == 1.0

    def test_ex3_second_moment(self, ex3):
        assert exact_moment(ex3, 2, 0.5) == pytest.approx(2.0 * 0.5**0.48)

    def test_ex2_second_moment_unavailable(self, ex2):
        with pytest.raises(NoExactReferenceError):
            exact_moment(ex2, 2, 0.5)

    def test_ex3_moments_need_pre_blowup_times(self, ex3):
        with pytest.raises(DomainError):
            exact_moment(ex3, 0, 1.0)

    def test_moment_quadrature_consistency(self, ex1):
        # 20-point Gauss-Legendre per cell over (0, 20]; exponential tail < 1e-8
        nodes, weights = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, 20.0, 201)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        for t in (0.3, 1.0):
            for n in (0, 1, 2):
                total = 0.0
                for node, weight in zip(nodes, weights):
                    x = mid + half * node
                    total += weight * float(
                        np.sum(x**n * exact_concentration(ex1, t, x) * half)
                    )
                assert total == pytest.approx(exact_moment(ex1, n, t), rel=1e-6)


class TestRegistry:
    def test_case_ids(self):
        assert case_ids() == ("ex1", "ex2", "ex3")

    def test_ex1_structure(self, ex1):
        assert isinstance(ex1.kernel, ProductKernel) and ex1.kernel.scale == 1.0
        assert isinstance(ex1.breakage, MassUniformBreakage)
        assert ex1.rmax == 10.0 and ex1.tend == 1.0
        assert ex1.reference_alpha == pytest.approx(-0.826)

    def test_ex2_structure(self, ex2):
        assert isinstance(ex2.kernel, ProductKernel)
        assert ex2.kernel.scale == pytest.approx(1.0 / 20.0)
        assert ex2.reference_alpha == pytest.approx(-0.969)

    def test_ex3_structure(self, ex3):
        assert isinstance(ex3.kernel, ConstantKernel)
        assert ex3.breakage.ratios == (Fraction(2, 5), Fraction(3, 5))
        assert ex3.tend == 0.5
        assert ex3.reference_alpha == pytest.approx(-0.829)

    def test_unknown_case(self):
        with pytest.raises(UnknownCaseError) as exc:
            registry_case("ex4")
        assert isinstance(exc.value, KeyError)
        assert str(exc.value) == "unknown case 'ex4'; available: ['ex1', 'ex2', 'ex3']"

    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    def test_cases_hash(self, case_id):
        case = registry_case(case_id)
        copy = with_overrides(case, tend=case.tend)
        assert copy is not case and copy == case
        assert hash(copy) == hash(case)
        # the moments take part in equality, though not in the hash
        assert case != dataclasses.replace(case, exact=dataclasses.replace(case.exact, moments={}))

    def test_unhashable_custom_functions_run(self, ex1):
        # a dataclass callable compares by value and has no hash; its wrapper compares
        # by identity, so the solvers' caches take it
        @dataclasses.dataclass
        class Decay:
            rate: float

            def __call__(self, x):
                return np.exp(-self.rate * x)

        @dataclasses.dataclass
        class Product:
            scale: float

            def __call__(self, x, y):
                return self.scale * x * y

        case = dataclasses.replace(ex1, kernel=CustomKernel(Product(1.0)), init=CustomIC(Decay(1.0)))
        assert hash(case) == hash(dataclasses.replace(case))
        grid = build_grid(case.rmax, 40)
        integrate(case, grid, (0.0, case.tend))
        ahpm_terms(case, grid, 3)
        ham_terms(case, grid, 3, -0.8)

    def test_override_validation(self, ex3):
        assert with_overrides(ex3, tend=0.9).tend == 0.9
        with pytest.raises(DomainError):
            with_overrides(ex3, tend=1.2)
        with pytest.raises(DomainError):
            with_overrides(ex3, rmax=-5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("setting", ["rmax", "tend"])
    def test_overrides_reject_non_finite_values(self, ex1, setting, bad):
        with pytest.raises(DomainError, match=f"{setting} must be finite and positive"):
            with_overrides(ex1, **{setting: bad})


# each positivity guard is written so that NaN fails it too
NAN_CALLS = {
    "kernel_eval": lambda ex1: kernel_eval(ProductKernel(1.0), math.nan, 1.0),
    "exact_moment": lambda ex1: exact_moment(ex1, 0, math.nan),
    "exact_concentration-time": lambda ex1: exact_concentration(ex1, math.nan, np.array([1.0])),
    "exact_concentration-size": lambda ex1: exact_concentration(ex1, 0.5, np.array([math.nan])),
    "eoc": lambda ex1: eoc(math.nan, 1.0),
    "geometric_error_bound": lambda ex1: geometric_error_bound(0.5, 2, math.nan),
    "geometric_error_bound-order": lambda ex1: geometric_error_bound(0.5, math.nan, 1.0),
    "ham_contraction": lambda ex1: ham_contraction(math.nan, -0.5),
    "ham_contraction-alpha": lambda ex1: ham_contraction(0.5, math.nan),
    "weighted_norm": lambda ex1: weighted_norm(
        project_initial(ex1.init, build_grid(ex1.rmax, 8)), math.nan, 0.0
    ),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_fails_the_positivity_guards(call, ex1):
    with pytest.raises(DomainError):
        call(ex1)
