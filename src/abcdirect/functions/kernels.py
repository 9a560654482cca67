"""Benchmark-function evaluation kernels.

Each kernel takes a 1-D float64 array and returns a float. `KERNELS` maps
the registry's kernel names to them.

A kernel reads its point once with `x.tolist()` and computes on Python
floats: indexing an array element by element boxes an `np.float64` per
access, which made the kernels 1.6-4x slower for the same arithmetic. The
Shekel and Hartman tables are flat tuples of Python floats built once from
`data.py`, and their kernels unpack the point into one name per coordinate
and write each sum out, for the same reason: the inner loop over the
coordinates took 40-55% of their time per call. Every operation, and its
order, is the one the formula was written with (`** 2`, sums left to right),
so the values are bit-identical to the element-wise numpy form.

Batched numpy kernels (one array operation over many points) would change
those bits, which a pure speed-up must not do, so there are none:

* `np.exp` on an array differs from `math.exp` in the last bit on about
  4.6% of arguments (10^6 uniform draws on [-50, 0], numpy 2.4);
* `X.sum(axis=1)` adds in eight interleaved partial sums, not left to right,
  and differs from the sequential sum on 9-26% of rows of 12 uniform terms.

Each of the thirteen Hedar functions is written once, as its terms: a start
value, then the term at each position in the order its formula adds them,
and for ackley, griewank and zakharov a finishing expression over the sums
(griewank's product is folded as a sum is, with `mul`). A subtraction is
written as the addition of the negated term, which IEEE arithmetic defines
it to be, and a first term that is a square is added to a start of 0.0,
which leaves it as it is. The kernel adds a point's terms left to right
(`_total`). Each Hedar kernel carries the builder of its coordinate view
as its `view` attribute. `kernel.view(x)`, built once at a point x, gives
the kernel at x with coordinate i at z as a function of (i, z): it keeps
x's terms and the running sum after each (`_fold`), and a probe adds the
recomputed terms, then the cached later ones, to the running sum before
the first term that i changes (`_resum`). The operations and their order
are the kernel's, so the values are too, bit for bit.

The nine Jones kernels carry a `view` too. A Shekel or Hartman view keeps,
per coordinate, the terms of each well or exponent that the coordinate does
not touch, and a probe recomputes the one it does and adds them all in the
kernel's order; the Shubert view keeps both one-coordinate sums, and the
other two-coordinate views bind the coordinate a probe keeps.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate
from operator import mul

from .data import (
    HARTMAN3_A, HARTMAN3_C, HARTMAN3_P,
    HARTMAN6_A, HARTMAN6_C, HARTMAN6_P,
    SHEKEL_A, SHEKEL_C,
)

# Largest value of x*sin(sqrt(x)) on [-500, 500], attained at SCHWEFEL_XSTAR.
# Computed once to full double precision from the stationarity condition
# sin(s) + (s/2) cos(s) = 0 with s = sqrt(x).
SCHWEFEL_XSTAR = 420.96874635998205
SCHWEFEL_OFFSET = 418.9828872724337

# data.py tables as flat rows of Python floats: a Shekel well as
# (A[0, j], ..., A[3, j], C[j]), a Hartman term as (C[i], *A[i], *P[i]).
_SHEKEL_WELLS = [(*a, c) for a, c in zip(SHEKEL_A.T.tolist(),
                                         SHEKEL_C.tolist())]
_SHEKEL5, _SHEKEL7 = _SHEKEL_WELLS[:5], _SHEKEL_WELLS[:7]
_HARTMAN3_TERMS = [(c, *a, *p) for c, a, p in zip(
    HARTMAN3_C.tolist(), HARTMAN3_A.tolist(), HARTMAN3_P.tolist())]
_HARTMAN6_TERMS = [(c, *a, *p) for c, a, p in zip(
    HARTMAN6_C.tolist(), HARTMAN6_A.tolist(), HARTMAN6_P.tolist())]


# -- the Jones functions: kernels and views ----------------------------
#
# A Shekel or Hartman view keeps, per coordinate i, one row per well or
# exponent: x[i]'s data, the running sum of the terms before x[i]'s and the
# terms after it, all built once at the view's point. A probe at i computes
# x[i]'s term afresh and adds the row left to right, as the kernel does. At
# i = 0 no term comes before it, so the sum starts from it. Each coordinate
# has its own unrolled loop over its rows: with an inner loop over a slice
# of cached terms per row, a probe of S10 cost more than the kernel.

_BRANIN_B = 5.1 / (4.0 * math.pi ** 2)
_BRANIN_C = 5.0 / math.pi
_BRANIN_T = 1.0 / (8.0 * math.pi)


def _branin(x1, x2):
    return ((x2 - _BRANIN_B * x1 * x1 + _BRANIN_C * x1 - 6.0) ** 2
            + 10.0 * (1.0 - _BRANIN_T) * math.cos(x1) + 10.0)


def _goldstein_price(x1, x2):
    a = (1.0 + (x1 + x2 + 1.0) ** 2
         * (19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2
            + 6.0 * x1 * x2 + 3.0 * x2 * x2))
    b = (30.0 + (2.0 * x1 - 3.0 * x2) ** 2
         * (18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2
            - 36.0 * x1 * x2 + 27.0 * x2 * x2))
    return a * b


def _camel6(x1, x2):
    return ((4.0 - 2.1 * x1 * x1 + x1 ** 4 / 3.0) * x1 * x1
            + x1 * x2 + (-4.0 + 4.0 * x2 * x2) * x2 * x2)


def _two_d(name, formula):
    """The kernel `name`, formula(x1, x2), with its view builder as
    `view`: a probe binds the coordinate it does not move."""
    def kernel(x):
        x1, x2 = x.tolist()
        return formula(x1, x2)

    def build(x):
        x1, x2 = x.tolist()
        return lambda i, z: formula(z, x2) if i == 0 else formula(x1, z)
    kernel.__name__ = kernel.__qualname__ = name
    kernel.view = build
    return kernel


branin = _two_d("branin", _branin)
goldstein_price = _two_d("goldstein_price", _goldstein_price)
camel6 = _two_d("camel6", _camel6)


def _shubert_sum(xk):
    s = 0.0
    for j in range(1, 6):
        s += j * math.cos((j + 1) * xk + j)
    return s


def shubert(x):
    x1, x2 = x.tolist()
    return _shubert_sum(x1) * _shubert_sum(x2)


def _shubert_view(x):
    s1, s2 = map(_shubert_sum, x.tolist())
    return lambda i, z: (_shubert_sum(z) * s2 if i == 0
                         else s1 * _shubert_sum(z))


shubert.view = _shubert_view


def _shekel(x, wells):
    x0, x1, x2, x3 = x.tolist()
    total = 0.0
    for a0, a1, a2, a3, c in wells:
        total -= 1.0 / ((x0 - a0) ** 2 + (x1 - a1) ** 2 + (x2 - a2) ** 2
                        + (x3 - a3) ** 2 + c)
    return total


def _shekel_view(wells):
    """The view builder of the Shekel kernel over `wells`. A row is
    (a_i, the sum of the terms before x[i]'s (none at i = 0), the terms
    after it, c)."""
    def build(x):
        x0, x1, x2, x3 = x.tolist()
        rows0, rows1, rows2, rows3 = [], [], [], []
        for a0, a1, a2, a3, c in wells:
            t0 = (x0 - a0) ** 2
            t1 = (x1 - a1) ** 2
            t2 = (x2 - a2) ** 2
            t3 = (x3 - a3) ** 2
            rows0.append((a0, t1, t2, t3, c))
            rows1.append((a1, t0, t2, t3, c))
            s = t0 + t1
            rows2.append((a2, s, t3, c))
            rows3.append((a3, s + t2, c))

        def view(i, z):
            total = 0.0
            if i == 0:
                for a, t1, t2, t3, c in rows0:
                    total -= 1.0 / ((z - a) ** 2 + t1 + t2 + t3 + c)
            elif i == 1:
                for a, s, t2, t3, c in rows1:
                    total -= 1.0 / (s + (z - a) ** 2 + t2 + t3 + c)
            elif i == 2:
                for a, s, t3, c in rows2:
                    total -= 1.0 / (s + (z - a) ** 2 + t3 + c)
            else:
                for a, s, c in rows3:
                    total -= 1.0 / (s + (z - a) ** 2 + c)
            return total
        return view
    return build


def shekel5(x):
    return _shekel(x, _SHEKEL5)


def shekel7(x):
    return _shekel(x, _SHEKEL7)


def shekel10(x):
    return _shekel(x, _SHEKEL_WELLS)


shekel5.view = _shekel_view(_SHEKEL5)
shekel7.view = _shekel_view(_SHEKEL7)
shekel10.view = _shekel_view(_SHEKEL_WELLS)


def hartman3(x):
    x0, x1, x2 = x.tolist()
    total = 0.0
    for c, a0, a1, a2, p0, p1, p2 in _HARTMAN3_TERMS:
        total -= c * math.exp(-(a0 * (x0 - p0) ** 2 + a1 * (x1 - p1) ** 2
                                + a2 * (x2 - p2) ** 2))
    return total


def _hartman3_view(x):
    # a row is (c, a_i, p_i, the sum of the exponent's terms before x[i]'s
    # (none at i = 0), the terms after it)
    x0, x1, x2 = x.tolist()
    rows0, rows1, rows2 = [], [], []
    for c, a0, a1, a2, p0, p1, p2 in _HARTMAN3_TERMS:
        e0 = a0 * (x0 - p0) ** 2
        e1 = a1 * (x1 - p1) ** 2
        e2 = a2 * (x2 - p2) ** 2
        rows0.append((c, a0, p0, e1, e2))
        rows1.append((c, a1, p1, e0, e2))
        rows2.append((c, a2, p2, e0 + e1))

    def view(i, z):
        total = 0.0
        if i == 0:
            for c, a, p, e1, e2 in rows0:
                total -= c * math.exp(-(a * (z - p) ** 2 + e1 + e2))
        elif i == 1:
            for c, a, p, s, e2 in rows1:
                total -= c * math.exp(-(s + a * (z - p) ** 2 + e2))
        else:
            for c, a, p, s in rows2:
                total -= c * math.exp(-(s + a * (z - p) ** 2))
        return total
    return view


hartman3.view = _hartman3_view


def hartman6(x):
    x0, x1, x2, x3, x4, x5 = x.tolist()
    total = 0.0
    for c, a0, a1, a2, a3, a4, a5, p0, p1, p2, p3, p4, p5 in _HARTMAN6_TERMS:
        total -= c * math.exp(-(a0 * (x0 - p0) ** 2 + a1 * (x1 - p1) ** 2
                                + a2 * (x2 - p2) ** 2 + a3 * (x3 - p3) ** 2
                                + a4 * (x4 - p4) ** 2 + a5 * (x5 - p5) ** 2))
    return total


def _hartman6_view(x):
    # the rows of `_hartman3_view`
    x0, x1, x2, x3, x4, x5 = x.tolist()
    rows0, rows1, rows2, rows3, rows4, rows5 = [], [], [], [], [], []
    for c, a0, a1, a2, a3, a4, a5, p0, p1, p2, p3, p4, p5 in _HARTMAN6_TERMS:
        e0 = a0 * (x0 - p0) ** 2
        e1 = a1 * (x1 - p1) ** 2
        e2 = a2 * (x2 - p2) ** 2
        e3 = a3 * (x3 - p3) ** 2
        e4 = a4 * (x4 - p4) ** 2
        e5 = a5 * (x5 - p5) ** 2
        rows0.append((c, a0, p0, e1, e2, e3, e4, e5))
        s = e0
        rows1.append((c, a1, p1, s, e2, e3, e4, e5))
        s += e1
        rows2.append((c, a2, p2, s, e3, e4, e5))
        s += e2
        rows3.append((c, a3, p3, s, e4, e5))
        s += e3
        rows4.append((c, a4, p4, s, e5))
        rows5.append((c, a5, p5, s + e4))

    def view(i, z):
        total = 0.0
        if i == 0:
            for c, a, p, e1, e2, e3, e4, e5 in rows0:
                total -= c * math.exp(-(a * (z - p) ** 2
                                        + e1 + e2 + e3 + e4 + e5))
        elif i == 1:
            for c, a, p, s, e2, e3, e4, e5 in rows1:
                total -= c * math.exp(-(s + a * (z - p) ** 2
                                        + e2 + e3 + e4 + e5))
        elif i == 2:
            for c, a, p, s, e3, e4, e5 in rows2:
                total -= c * math.exp(-(s + a * (z - p) ** 2 + e3 + e4 + e5))
        elif i == 3:
            for c, a, p, s, e4, e5 in rows3:
                total -= c * math.exp(-(s + a * (z - p) ** 2 + e4 + e5))
        elif i == 4:
            for c, a, p, s, e5 in rows4:
                total -= c * math.exp(-(s + a * (z - p) ** 2 + e5))
        else:
            for c, a, p, s in rows5:
                total -= c * math.exp(-(s + a * (z - p) ** 2))
        return total
    return view


hartman6.view = _hartman6_view


# -- the Hedar functions: terms, kernels and views ----------------------


def _total(terms):
    """terms[0] + terms[1] + ..., added left to right. Never builtin `sum`,
    which adds with compensation from Python 3.12 on, nor `math.fsum`."""
    acc = -0.0  # the identity of +: -0.0 + t is t, for t = -0.0 too
    for t in terms:
        acc += t
    return acc


def _fold(terms):
    """A kernel's sum over `terms`, as (terms, running sums): running[k] is
    terms[0] + terms[1] + ... + terms[k], added left to right."""
    return terms, list(accumulate(terms))


def _resum(fold, pos, *new):
    """The fold's sum with the terms from position `pos` (above 0) on
    replaced by `new`, then the cached terms after them, in order."""
    terms, running = fold
    acc = running[pos - 1]
    for t in new:
        acc += t
    for t in terms[pos + len(new):]:
        acc += t
    return acc


def _terms(start, term, x):
    """`start`, then term(i, x[i]) for each coordinate in order."""
    return [start, *map(term, range(len(x)), x)]


def _one_sum(name, terms, probe):
    """The kernel `name`, which adds terms(x) left to right, with its view
    builder as `view`: probe(fold, x) over the fold of the same terms.
    Both hand `terms` and `probe` the point as a list of floats."""
    def kernel(x):
        return _total(terms(x.tolist()))

    def build(x):
        x = x.tolist()
        return probe(_fold(terms(x)), x)
    kernel.__name__ = kernel.__qualname__ = name
    kernel.view = build
    return kernel


def _separable(name, start, term):
    """`_one_sum` of start(n) + term(0, x[0]) + ... + term(n - 1, x[n - 1])."""
    return _one_sum(
        name, lambda x: _terms(start(len(x)), term, x),
        lambda fold, x: lambda i, z: _resum(fold, i + 1, term(i, z)))


def _two_sums(name, first, second, finish):
    """The kernel `name`, finish(n, s1, s2) of the sums from 0.0 of
    first(i, x[i]) and of second(i, x[i]), with its view builder as
    `view`."""
    def kernel(x):
        x = x.tolist()
        return finish(len(x), _total(_terms(0.0, first, x)),
                      _total(_terms(0.0, second, x)))

    def build(x):
        x = x.tolist()
        n = len(x)
        s1 = _fold(_terms(0.0, first, x))
        s2 = _fold(_terms(0.0, second, x))
        return lambda i, z: finish(n, _resum(s1, i + 1, first(i, z)),
                                   _resum(s2, i + 1, second(i, z)))
    kernel.__name__ = kernel.__qualname__ = name
    kernel.view = build
    return kernel


def _square(i, xi):
    return xi * xi


def _square_from_one(xi):
    return (xi - 1.0) ** 2


michalewicz = _separable(
    "michalewicz", lambda n: 0.0,
    lambda i, xi: -(math.sin(xi)
                    * math.sin((i + 1) * xi * xi / math.pi) ** 20))
rastrigin = _separable(
    "rastrigin", lambda n: 10.0 * n,
    lambda i, xi: xi * xi - 10.0 * math.cos(2.0 * math.pi * xi))
schwefel = _separable(
    "schwefel", lambda n: SCHWEFEL_OFFSET * n,
    lambda i, xi: -(xi * math.sin(math.sqrt(abs(xi)))))
sphere = _separable("sphere", lambda n: 0.0, _square)
sum_squares = _separable(
    "sum_squares", lambda n: 0.0, lambda i, xi: (i + 1) * xi * xi)

ackley = _two_sums(
    "ackley", _square, lambda i, xi: math.cos(2.0 * math.pi * xi),
    lambda n, s2, sc: (-20.0 * math.exp(-0.2 * math.sqrt(s2 / n))
                       - math.exp(sc / n) + 20.0 + math.e))
zakharov = _two_sums(
    "zakharov", _square, lambda i, xi: 0.5 * (i + 1) * xi,
    lambda n, s1, s2: s1 + s2 ** 2 + s2 ** 4)


def _griewank_factor(i, xi):
    return math.cos(xi / math.sqrt(i + 1.0))


def _griewank(s, p):
    return s / 4000.0 - p + 1.0


def griewank(x):
    x = x.tolist()
    return _griewank(_total(_terms(0.0, _square, x)),
                     reduce(mul, _terms(1.0, _griewank_factor, x)))


def _griewank_view(x):
    # the product is folded as the sum is, with mul
    x = x.tolist()
    squares = _fold(_terms(0.0, _square, x))
    factors = _terms(1.0, _griewank_factor, x)
    products = list(accumulate(factors, mul))

    def view(i, z):
        p = products[i] * _griewank_factor(i, z)
        for t in factors[i + 2:]:
            p *= t
        return _griewank(_resum(squares, i + 1, _square(i, z)), p)
    return view


griewank.view = _griewank_view


def _dixon_price_term(i, xi, xp):
    return (i + 1) * (2.0 * xi * xi - xp) ** 2


def _dixon_price_probe(fold, x):
    n = len(x)

    def view(i, z):
        own = (_square_from_one(z) if i == 0
               else _dixon_price_term(i, z, x[i - 1]))
        if i == n - 1:
            return _resum(fold, i + 1, own)
        return _resum(fold, i + 1, own,
                      _dixon_price_term(i + 1, x[i + 1], z))
    return view


dixon_price = _one_sum(
    # the term of x[i] at position i + 1 also reads x[i - 1]
    "dixon_price", lambda x: [
        0.0, _square_from_one(x[0]),
        *map(_dixon_price_term, range(1, len(x)), x[1:], x)],
    _dixon_price_probe)


# levy's terms: the head reads x[0], the middle term of x[i] each x[i] for
# i < n - 1 and the end term x[n - 1] (x[0] again at n = 1)
def _levy_head(xi):
    return math.sin(math.pi * (1.0 + (xi - 1.0) / 4.0)) ** 2


def _levy_middle(xi):
    w = 1.0 + (xi - 1.0) / 4.0
    return (w - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * w + 1.0) ** 2)


def _levy_end(xi):
    wn = 1.0 + (xi - 1.0) / 4.0
    return (wn - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * wn) ** 2)


def _levy_probe(fold, x):
    n = len(x)

    def view(i, z):
        last = _levy_middle(z) if i < n - 1 else _levy_end(z)
        if i == 0:
            return _resum(fold, 1, _levy_head(z), last)
        return _resum(fold, i + 2, last)
    return view


levy = _one_sum(
    "levy", lambda x: [0.0, _levy_head(x[0]), *map(_levy_middle, x[:-1]),
                       _levy_end(x[-1])],
    _levy_probe)


def _powell_term(a, b, c, d):
    return ((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2
            + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4)


def _powell_probe(fold, x):
    groups = len(x) // 4

    def view(i, z):
        j = i // 4
        if j == groups:  # the kernel reads no coordinate past its groups
            return fold[1][-1]
        group = x[4 * j:4 * j + 4]
        group[i - 4 * j] = z
        return _resum(fold, j + 1, _powell_term(*group))
    return view


powell = _one_sum(
    "powell", lambda x: [0.0, *[_powell_term(*x[4 * j:4 * j + 4])
                                for j in range(len(x) // 4)]],
    _powell_probe)


def _rosenbrock_term(xi, xn):
    return 100.0 * (xn - xi * xi) ** 2 + (xi - 1.0) ** 2


def _rosenbrock_probe(fold, x):
    n = len(x)

    def view(i, z):
        if i == 0:
            return _resum(fold, 1, _rosenbrock_term(z, x[1]))
        if i == n - 1:
            return _resum(fold, i, _rosenbrock_term(x[i - 1], z))
        return _resum(fold, i, _rosenbrock_term(x[i - 1], z),
                      _rosenbrock_term(z, x[i + 1]))
    return view


rosenbrock = _one_sum(
    # the term at position k + 1 reads x[k] and x[k + 1]
    "rosenbrock", lambda x: [0.0, *map(_rosenbrock_term, x, x[1:])],
    _rosenbrock_probe)


def _trid_cross(xp, xi):
    return -(xi * xp)


def _trid_probe(fold, x):
    n = len(x)
    terms, running = fold

    def view(i, z):
        acc = running[i] + _square_from_one(z)
        for t in terms[i + 2:n + i if i > 0 else n + 1]:
            acc += t
        if i > 0:
            acc += _trid_cross(x[i - 1], z)
        if i < n - 1:
            acc += _trid_cross(z, x[i + 1])
        for t in terms[n + i + 2:]:
            acc += t
        return acc
    return view


trid = _one_sum(
    # one sum: the square of x[i] at position i + 1, then the negated
    # product of x[k] and x[k + 1] at position n + 1 + k
    "trid", lambda x: [0.0, *map(_square_from_one, x),
                       *map(_trid_cross, x, x[1:])],
    _trid_probe)


KERNELS = {
    "ackley": ackley,
    "dixon-price": dixon_price,
    "griewank": griewank,
    "levy": levy,
    "michalewicz": michalewicz,
    "powell": powell,
    "rastrigin": rastrigin,
    "rosenbrock": rosenbrock,
    "schwefel": schwefel,
    "sphere": sphere,
    "sum-square": sum_squares,
    "trid": trid,
    "zakharov": zakharov,
    "BR": branin,
    "GP": goldstein_price,
    "C6": camel6,
    "SHU": shubert,
    "S5": shekel5,
    "S7": shekel7,
    "S10": shekel10,
    "H3": hartman3,
    "H6": hartman6,
}
