"""Registry metadata, coefficient tables and kernel values."""

import hashlib
import math

import numpy as np
import pytest

from abcdirect.functions import data, kernels
from abcdirect.functions.registry import (
    HEDAR_NAMES,
    JONES_NAMES,
    RegistryError,
    adjust_bounds,
    get_function,
    list_functions,
    validate_registry,
)
from abcdirect.problem import Bounds

# pins every Shekel/Hartman coefficient: an edit to any entry fails here
DATA_SHA256 = "a8fe8e8326898dbc154b854ae542aeb1f298b991b9574aa9ce4ded8b8a487aee"


class TestData:
    def test_coefficient_tables_checksum(self):
        parts = []
        for name in ("SHEKEL_A", "SHEKEL_C", "HARTMAN3_A", "HARTMAN3_C",
                     "HARTMAN3_P", "HARTMAN6_A", "HARTMAN6_C", "HARTMAN6_P"):
            parts.append(np.asarray(getattr(data, name),
                                    dtype=float).tobytes())
        assert hashlib.sha256(b"".join(parts)).hexdigest() == DATA_SHA256

    def test_table_shapes(self):
        assert data.SHEKEL_A.shape == (4, 10)
        assert data.SHEKEL_C.shape == (10,)
        assert data.HARTMAN3_A.shape == (4, 3)
        assert data.HARTMAN6_A.shape == (4, 6)


class TestRegistry:
    def test_listing_is_complete(self):
        assert list_functions() == JONES_NAMES + HEDAR_NAMES
        assert len(list_functions()) == 22

    def test_unknown_name(self):
        with pytest.raises(RegistryError):
            get_function("nope")

    def test_fixed_dimension_enforced(self):
        with pytest.raises(RegistryError):
            get_function("BR", 3)
        problem, meta = get_function("BR")
        assert meta.dim == 2

    def test_scalable_needs_dimension(self):
        with pytest.raises(RegistryError):
            get_function("ackley")
        with pytest.raises(RegistryError):
            get_function("powell", 3)   # minimum dimension is 4
        _, meta = get_function("ackley", 12)
        assert meta.dim == 12

    @pytest.mark.parametrize("name", JONES_NAMES)
    def test_jones_optima_are_consistent(self, name):
        problem, meta = get_function(name, adjust=False)
        assert problem(meta.x_star) == pytest.approx(meta.f_star, abs=1e-9)

    @pytest.mark.parametrize("name,dim", [
        (n, 6) for n in HEDAR_NAMES if n != "michalewicz"
    ] + [("michalewicz", 5)])
    def test_hedar_optima_are_consistent(self, name, dim):
        problem, meta = get_function(name, dim, adjust=False)
        assert problem(meta.x_star) == pytest.approx(
            meta.f_star, abs=1e-8 * max(1.0, abs(meta.f_star)))

    def test_shubert_counts(self):
        _, meta = get_function("SHU")
        assert (meta.local_count, meta.global_count) == (760, 18)

    def test_trid_closed_form(self):
        _, meta = get_function("trid", 10)
        assert meta.f_star == -10 * 14 * 9 / 6

    def test_known_optimum_flows_into_problem(self):
        problem, meta = get_function("sphere", 3)
        assert problem.known_optimum == meta.f_star == 0.0


class TestAdjustBounds:
    def test_symmetric_origin_box_is_stretched(self):
        b = adjust_bounds(Bounds(np.full(2, -5.0), np.full(2, 5.0)),
                          np.zeros(2))
        assert np.allclose(b.lower, -4.0)
        assert np.allclose(b.upper, 6.0)

    def test_asymmetric_box_untouched(self):
        b0 = Bounds(np.array([-5.0, 0.0]), np.array([10.0, 15.0]))
        assert adjust_bounds(b0, np.zeros(2)) is b0

    def test_nonorigin_optimum_untouched(self):
        b0 = Bounds(np.full(2, -10.0), np.full(2, 10.0))
        assert adjust_bounds(b0, np.ones(2)) is b0

    def test_applied_functions(self):
        # exactly the symmetric-box origin-optimum entries get stretched
        stretched = []
        for name in HEDAR_NAMES:
            dim = 5 if name == "michalewicz" else 6
            problem, meta = get_function(name, dim)
            if not np.array_equal(problem.bounds.lower, meta.bounds.lower):
                stretched.append(name)
        assert stretched == ["griewank", "rastrigin", "sphere", "sum-square"]


class TestKernels:
    def test_known_values(self):
        k = kernels.KERNELS
        assert k["sphere"](np.zeros(4)) == 0.0
        assert k["rosenbrock"](np.ones(5)) == 0.0
        assert k["rastrigin"](np.zeros(3)) == 0.0
        assert k["BR"](np.array([math.pi, 2.275])) == pytest.approx(
            0.39788735772973816, abs=1e-12)
        assert k["GP"](np.array([0.0, -1.0])) == pytest.approx(3.0, abs=1e-12)
        assert k["ackley"](np.zeros(6)) == pytest.approx(0.0, abs=1e-12)
        assert k["levy"](np.ones(7)) == pytest.approx(0.0, abs=1e-12)
        assert k["griewank"](np.zeros(8)) == 0.0


class TestValidateRegistry:
    def test_small_audit_passes(self):
        report = validate_registry(samples=2000, polish_count=2, seed=0)
        bad = [row for row in report if not row["ok"]]
        assert bad == []
        assert len(report) == 22
