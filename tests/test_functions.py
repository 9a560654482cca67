"""Registry metadata, coefficient tables and kernel values."""

import hashlib
import math
import struct

import numpy as np
import pytest

from abcdirect.functions import data, kernels, registry
from abcdirect.functions.registry import (
    HEDAR_NAMES,
    JONES_NAMES,
    RegistryError,
    adjust_bounds,
    get_function,
    list_functions,
    validate_registry,
)
from abcdirect.problem import Bounds, Problem, check_view

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


# sha256 of the "<d" bytes of each function's kernel values at 500 points per
# dimension (default_rng(0), redrawn per dimension) in its canonical box
# stretched 1.2x about the centre; dimensions are the fixed one, or the
# minimum and each of 6, 12, 18 above it. Recorded with element-wise numpy
# kernels, so a rewrite that changes any value's bits fails here.
KERNEL_SHA256 = {
    "S5": "7a4b13fb0833208dd4c98d59832c0b8c183b33a68c4d47937c4fb29dfa57f855",
    "S7": "41414d79c7604d7dfb9eb5f5233a0a82acd14de1f58b4d45f14e748f79467166",
    "S10": "02507b187d6a914604fad8025886313388fa9f4d457b408bfc8131d44effc8c0",
    "H3": "f7799d817314b35ca66dff1e7fe8ce3053213ae06ffffa0a1ee6b5772cace890",
    "H6": "81d198d61ccf8d09292cc79d0f4308ad66b67a7cc07f8920c6ff70e719c0a0f3",
    "BR": "16134995870b7d8906ce66ef79f72423f4de87edbf38fc6cfd8194e0b2292389",
    "GP": "bd0c182a44063088cd269a0ed9fab8b3213c91a4248ffbb64cdd69745037647b",
    "C6": "3666c9ed1344dd198574dcc867c2138b2cd60cfc295b6778a927f2076af9d298",
    "SHU": "7af86b66b896d1db4368486a0eabe1191b446fa090667e512111de47f3d17022",
    "ackley": "69d48c95e8c17a3d2b6630064a33702eafe24be675e5f311fab4ab87bae15f00",
    "dixon-price": "e38c6b0d744d3f608a8c54ac488b0c8ec30ed95d4122b00c3a304e48678ce8cd",
    "griewank": "7691665f5f5a69fc15b4a90e3de7e9c6307e36ee193dc8aaac123fe7b6c8051a",
    "levy": "6ff5435925ad4e60178c2364f3c0e311cf3a39af05332d8e21b5693a7f694697",
    "michalewicz": "0f5c09b9457c16921717e9e0f94313f2ecea128d8e3346273d2074e47c488732",
    "powell": "da96524740796bc4f35a063c5766bfd4165c81acfeb78cb5f265aa8d60b525fb",
    "rastrigin": "2f1841fbb57da36ee58e51fa59774a9bd72086dc57262dc210ab5ba9f85dbba5",
    "rosenbrock": "9d05bf370051c2f1732cfb4a2d3449f5cca7e3a744c7ee52e0e399795ca750ed",
    "schwefel": "798b3d26c2f6f2b99dc8b116f34490a95b197481f67ca3842b13150488ae5f21",
    "sphere": "4b00d0fedbd4682efb73df5042ef6318ba56701e87edeb5493ed951c616df182",
    "sum-square": "7d26c4aa01a47bb95bf3faee309dc75f8551343742597cfd5d37b9f05e3de514",
    "trid": "b6a5ebd0a3d38185d5433d10dfbc4dc8e997c6cfeeddf3ebb10663ee1e477c83",
    "zakharov": "3932b5211c656ac575654987886e2ea5907568a93b1b19f099a02171a8db8fba",
}


def _pin_dims(name):
    dims = registry._REGISTRY[name].dims
    if isinstance(dims, int):
        return [dims]
    return [dims[0]] + [d for d in (6, 12, 18) if d > dims[0]]


def kernel_digest(name):
    """The digest `KERNEL_SHA256` pins for the function `name`."""
    kernel = kernels.KERNELS[registry._REGISTRY[name].kernel_name]
    digest = hashlib.sha256()
    for n in _pin_dims(name):
        _, meta = get_function(name, n, adjust=False)
        mid = 0.5 * (meta.bounds.lower + meta.bounds.upper)
        half = 0.6 * meta.bounds.width
        pts = np.random.default_rng(0).uniform(mid - half, mid + half,
                                               size=(500, n))
        values = np.array([kernel(p) for p in pts], dtype="<f8")
        digest.update(values.tobytes())
    return digest.hexdigest()


class TestKernelValues:
    @pytest.mark.parametrize("name", list_functions())
    def test_values_are_pinned(self, name):
        assert kernel_digest(name) == KERNEL_SHA256[name]

    def test_objective_is_the_kernel(self):
        for name in list_functions():
            problem, _ = get_function(name, _pin_dims(name)[0])
            kernel = kernels.KERNELS[registry._REGISTRY[name].kernel_name]
            assert problem.objective is kernel
            assert type(kernel(problem.bounds.lower)) is float


# the Shekel and Hartman kernels as they were written before their sums were
# unrolled, over their tables of the time: the oracles the unrolled forms must
# match byte for byte
LOOP_SHEKEL_WELLS = list(zip(data.SHEKEL_A.T.tolist(), data.SHEKEL_C.tolist()))
LOOP_HARTMAN3_TERMS = list(zip(data.HARTMAN3_C.tolist(),
                               data.HARTMAN3_A.tolist(),
                               data.HARTMAN3_P.tolist()))
LOOP_HARTMAN6_TERMS = list(zip(data.HARTMAN6_C.tolist(),
                               data.HARTMAN6_A.tolist(),
                               data.HARTMAN6_P.tolist()))


def loop_shekel(x, m):
    x = x.tolist()
    total = 0.0
    for a, c in LOOP_SHEKEL_WELLS[:m]:
        dist = 0.0
        for xk, ak in zip(x, a):
            dist += (xk - ak) ** 2
        total -= 1.0 / (dist + c)
    return total


def loop_hartman(x, terms):
    x = x.tolist()
    total = 0.0
    for c, a, p in terms:
        expo = 0.0
        for xk, ak, pk in zip(x, a, p):
            expo += ak * (xk - pk) ** 2
        total -= c * math.exp(-expo)
    return total


LOOP_ORACLES = {
    "S5": lambda x: loop_shekel(x, 5),
    "S7": lambda x: loop_shekel(x, 7),
    "S10": lambda x: loop_shekel(x, 10),
    "H3": lambda x: loop_hartman(x, LOOP_HARTMAN3_TERMS),
    "H6": lambda x: loop_hartman(x, LOOP_HARTMAN6_TERMS),
}


class TestUnrolledTableKernels:
    @pytest.mark.parametrize("name", sorted(LOOP_ORACLES))
    def test_bytes_equal_the_loop_form(self, name):
        # 10^5 seeded points in the box stretched 1.2x about its centre,
        # and the table's own centres, where a squared distance is zero
        kernel = kernels.KERNELS[name]
        oracle = LOOP_ORACLES[name]
        _, meta = get_function(name, adjust=False)
        mid = 0.5 * (meta.bounds.lower + meta.bounds.upper)
        half = 0.6 * meta.bounds.width
        centres = (data.SHEKEL_A.T if name.startswith("S")
                   else data.HARTMAN3_P if name == "H3" else data.HARTMAN6_P)
        pts = np.concatenate([
            np.random.default_rng(19).uniform(mid - half, mid + half,
                                              size=(100_000, meta.dim)),
            centres])
        got = np.array([kernel(p) for p in pts], dtype="<f8")
        want = np.array([oracle(p) for p in pts], dtype="<f8")
        assert got.tobytes() == want.tobytes()


def _view_dims(name):
    """A Jones function's dimension; the smallest allowed dimension of a
    Hedar function, then those of 2, 5, 12, 18 and 50 it allows."""
    dims = registry._REGISTRY[name].dims
    if isinstance(dims, int):
        return [dims]
    return [dims[0]] + [n for n in (2, 5, 12, 18, 50) if n > dims[0]]


def view_mismatches(name, n, points=40):
    """`check_view` of the kernel of function `name` at dimension n, over
    its box, with x* as a further point where the function has one."""
    kernel = kernels.KERNELS[registry._REGISTRY[name].kernel_name]
    _, meta = get_function(name, n, adjust=False)
    return check_view(kernel, meta.bounds, points=points, seed=21,
                      extra=[] if meta.x_star is None else [meta.x_star])


def regrouped_shekel5_view(x):
    """S5's view with the terms after the moved coordinate's and c added
    as one group, summed before they join the sum."""
    x = x.tolist()

    def at(i):
        def probe(z):
            total = 0.0
            for *a, c in kernels._SHEKEL5:
                terms = [(xk - ak) ** 2 for xk, ak in zip(x, a)]
                terms[i] = (z - a[i]) ** 2
                s = terms[0]
                for t in terms[1:i + 1]:
                    s += t
                later = -0.0
                for t in (*terms[i + 1:], c):
                    later += t
                total -= 1.0 / (s + later)
            return total
        return probe
    return at


class TestCoordinateViews:
    @pytest.mark.parametrize("name", list_functions())
    def test_bytes_equal_the_kernel(self, name):
        for n in _view_dims(name):
            assert view_mismatches(name, n) == [], n

    @pytest.mark.parametrize("name", list_functions())
    def test_a_probe_bound_once_serves_many(self, name):
        # as a one-coordinate store uses its probe: bound once at a base,
        # then probed at many values of its coordinate in a row, each
        # value the kernel's at the probe's point, bit for bit; the base is
        # not written
        n = [d for d in _view_dims(name) if d <= 18][-1]
        kernel = kernels.KERNELS[registry._REGISTRY[name].kernel_name]
        _, meta = get_function(name, n, adjust=False)
        lower, upper = meta.bounds.lower, meta.bounds.upper
        rng = np.random.default_rng(8)
        x = rng.uniform(lower, upper)
        before = x.tobytes()
        view = Problem(kernel, meta.bounds).coordinate_view(x)
        for i in range(n):
            probe = view(i)
            for z in rng.uniform(lower[i], upper[i], size=100).tolist():
                point = x.copy()
                point[i] = z
                assert (struct.pack("<d", probe(z))
                        == struct.pack("<d", kernel(point))), (i, z)
        assert x.tobytes() == before

    @pytest.mark.parametrize("name", ["rastrigin", "levy", "zakharov"])
    def test_a_regrouped_tail_fails(self, name, monkeypatch):
        # the negative control: the same check fails a view that adds its
        # cached terms exactly rounded, in one group, not one by one
        def regrouped(fold, pos, count):
            terms, running = fold
            tail = terms[pos + count:]
            return running[pos - 1], [math.fsum(tail)] if tail else []
        monkeypatch.setattr(kernels, "_split", regrouped)
        assert view_mismatches(name, 18) != []

    def test_a_regrouped_shekel_row_fails(self, monkeypatch):
        # the negative control of the Jones views: S5's view with its later
        # terms and c pre-summed, not added one by one
        monkeypatch.setattr(kernels.shekel5, "view", regrouped_shekel5_view)
        bad = view_mismatches("S5", 4)
        assert bad != []
        # each names the base, the coordinate, the probe's value and both
        # values, which differ
        for x, i, z, got, want in bad:
            point = x.copy()
            point[i] = z
            assert want == kernels.shekel5(point) != got

    @pytest.mark.parametrize("name", ["rastrigin", "levy", "zakharov"])
    def test_a_regrouped_kernel_sum_fails_its_pin(self, name, monkeypatch):
        # the negative control of the pins: a kernel that adds its terms
        # exactly rounded, not left to right, no longer matches its digest
        monkeypatch.setattr(kernels, "_total", math.fsum)
        assert kernel_digest(name) != KERNEL_SHA256[name]

    def test_every_kernel_has_a_view(self):
        assert len(kernels.KERNELS) == 22
        assert all(callable(getattr(kernel, "view", None))
                   for kernel in kernels.KERNELS.values())
        for name in list_functions():
            problem, _ = get_function(name, _view_dims(name)[0])
            assert problem.objective in kernels.KERNELS.values()

    def test_only_the_kernel_itself_has_a_view(self):
        # a wrapped kernel has no view of its own: each probe calls the
        # wrapper once, on the probe's point, and takes its value byte for
        # byte; the base is not written
        seen = []

        def wrapped(x):
            seen.append(x.tolist())
            return kernels.sphere(x)
        problem = Problem(wrapped, Bounds(np.full(4, -5.0), np.full(4, 5.0)))
        x = np.array([0.5, -1.0, 2.0, 3.0])
        view = problem.coordinate_view(x)
        assert seen == []
        for i in range(x.size):
            probe = x.copy()
            probe[i] = z = 0.25 * i - 1.5
            got = view(i)(z)
            assert seen == [probe.tolist()]
            assert struct.pack("<d", got) == struct.pack("<d", wrapped(probe))
            seen.clear()
        assert x.tolist() == [0.5, -1.0, 2.0, 3.0]

    def test_a_view_is_not_built_where_the_kernel_overflows(self):
        # rosenbrock's `** 2` raises OverflowError past about 1e154, where
        # the kernel's value is inf: its view is not built there, and the
        # probes call the kernel
        x = np.array([1e154, 0.0, 0.0, 0.0])
        with pytest.raises(OverflowError):
            kernels.rosenbrock(x)
        with pytest.raises(OverflowError):
            kernels.rosenbrock.view(x)
        problem = Problem(kernels.rosenbrock,
                          Bounds(np.full(4, -2e154), np.full(4, 2e154)))
        view = problem.coordinate_view(x)
        probe = np.array([0.5, 0.0, 0.0, 0.0])
        assert (struct.pack("<d", view(0)(0.5))
                == struct.pack("<d", kernels.rosenbrock(probe)))
        with pytest.raises(OverflowError):
            view(1)(0.5)

    def test_a_wrapped_kernel_evaluates_through_the_kernel(self):
        # an ABCD run on a problem whose objective wraps the kernel calls
        # the kernel at every evaluation; it makes the same evaluations,
        # with the same values, as the run whose probes take their values
        # from views
        from abcdirect.abcd import AbcdConfig, abcd_solve
        from abcdirect.problem import EvalCounter, Problem

        problem = get_function("griewank", 6)[0]
        calls = []

        def wrapped(x):
            calls.append(1)
            return problem.objective(x)
        runs = [abcd_solve(p, AbcdConfig(seed=3), EvalCounter(cap=2000))
                for p in (problem, Problem(wrapped, problem.bounds,
                                           problem.known_optimum))]
        viewed, plain = runs
        assert len(calls) == plain.evals == viewed.evals == 2000
        assert viewed.trace == plain.trace
        assert ((viewed.f_min, viewed.x_min.tobytes())
                == (plain.f_min, plain.x_min.tobytes()))


class TestValidateRegistry:
    def test_small_audit_passes(self):
        report = validate_registry(samples=2000, polish_count=2, seed=0)
        bad = [row for row in report if not row["ok"]]
        assert bad == []
        assert len(report) == 22
