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

Each of the thirteen Hedar kernels also has a coordinate view
(`coordinate_view`, looked up in `VIEWS` by the kernel function's
identity). Built once from a point x, a view answers "the kernel at x
with coordinate i at z" in place of a full call. It caches x's terms and
the kernel's running accumulators, and a probe takes the accumulator just
before the first term that coordinate i touches, recomputes only the
touched terms and then adds the cached later terms in the kernel's own
order. The operations and their order are the kernel's, so the value is
the kernel's, bit for bit; a subtraction is cached as the addition of
the negated term, which IEEE arithmetic defines it to be. Any other
objective, a Jones kernel or a wrapped kernel included, has no view and
is called as it is.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate
from operator import add, mul

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


def ackley(x):
    x = x.tolist()
    n = len(x)
    s2 = 0.0
    sc = 0.0
    for xi in x:
        s2 += xi * xi
        sc += math.cos(2.0 * math.pi * xi)
    return (-20.0 * math.exp(-0.2 * math.sqrt(s2 / n))
            - math.exp(sc / n) + 20.0 + math.e)


def dixon_price(x):
    x = x.tolist()
    total = (x[0] - 1.0) ** 2
    for i in range(1, len(x)):
        total += (i + 1) * (2.0 * x[i] * x[i] - x[i - 1]) ** 2
    return total


def griewank(x):
    s = 0.0
    p = 1.0
    for i, xi in enumerate(x.tolist()):
        s += xi * xi
        p *= math.cos(xi / math.sqrt(i + 1.0))
    return s / 4000.0 - p + 1.0


def levy(x):
    x = x.tolist()
    n = len(x)
    w0 = 1.0 + (x[0] - 1.0) / 4.0
    total = math.sin(math.pi * w0) ** 2
    for i in range(n - 1):
        w = 1.0 + (x[i] - 1.0) / 4.0
        wn = 1.0 + (x[i + 1] - 1.0) / 4.0
        total += (w - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * w + 1.0) ** 2)
        if i == n - 2:
            total += (wn - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * wn) ** 2)
    if n == 1:
        total += (w0 - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w0) ** 2)
    return total


def michalewicz(x):
    total = 0.0
    for i, xi in enumerate(x.tolist()):
        si = math.sin((i + 1) * xi * xi / math.pi)
        total -= math.sin(xi) * si ** 20
    return total


def powell(x):
    x = x.tolist()
    total = 0.0
    for j in range(len(x) // 4):
        a, b, c, d = x[4 * j:4 * j + 4]
        total += ((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2
                  + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4)
    return total


def rastrigin(x):
    x = x.tolist()
    total = 10.0 * len(x)
    for xi in x:
        total += xi * xi - 10.0 * math.cos(2.0 * math.pi * xi)
    return total


def rosenbrock(x):
    x = x.tolist()
    total = 0.0
    for xi, xn in zip(x, x[1:]):
        total += 100.0 * (xn - xi * xi) ** 2 + (xi - 1.0) ** 2
    return total


def schwefel(x):
    x = x.tolist()
    total = SCHWEFEL_OFFSET * len(x)
    for xi in x:
        total -= xi * math.sin(math.sqrt(abs(xi)))
    return total


def sphere(x):
    total = 0.0
    for xi in x.tolist():
        total += xi * xi
    return total


def sum_squares(x):
    total = 0.0
    for i, xi in enumerate(x.tolist()):
        total += (i + 1) * xi * xi
    return total


def trid(x):
    x = x.tolist()
    total = 0.0
    for xi in x:
        total += (xi - 1.0) ** 2
    for xp, xi in zip(x, x[1:]):
        total -= xi * xp
    return total


def zakharov(x):
    s1 = 0.0
    s2 = 0.0
    for i, xi in enumerate(x.tolist()):
        s1 += xi * xi
        s2 += 0.5 * (i + 1) * xi
    return s1 + s2 ** 2 + s2 ** 4


def branin(x):
    x1, x2 = x.tolist()
    b = 5.1 / (4.0 * math.pi ** 2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return ((x2 - b * x1 * x1 + c * x1 - 6.0) ** 2
            + 10.0 * (1.0 - t) * math.cos(x1) + 10.0)


def goldstein_price(x):
    x1, x2 = x.tolist()
    a = (1.0 + (x1 + x2 + 1.0) ** 2
         * (19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2
            + 6.0 * x1 * x2 + 3.0 * x2 * x2))
    b = (30.0 + (2.0 * x1 - 3.0 * x2) ** 2
         * (18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2
            - 36.0 * x1 * x2 + 27.0 * x2 * x2))
    return a * b


def camel6(x):
    x1, x2 = x.tolist()
    return ((4.0 - 2.1 * x1 * x1 + x1 ** 4 / 3.0) * x1 * x1
            + x1 * x2 + (-4.0 + 4.0 * x2 * x2) * x2 * x2)


def shubert(x):
    x1, x2 = x.tolist()
    s1 = 0.0
    s2 = 0.0
    for j in range(1, 6):
        s1 += j * math.cos((j + 1) * x1 + j)
        s2 += j * math.cos((j + 1) * x2 + j)
    return s1 * s2


def _shekel(x, wells):
    x0, x1, x2, x3 = x.tolist()
    total = 0.0
    for a0, a1, a2, a3, c in wells:
        total -= 1.0 / ((x0 - a0) ** 2 + (x1 - a1) ** 2 + (x2 - a2) ** 2
                        + (x3 - a3) ** 2 + c)
    return total


def shekel5(x):
    return _shekel(x, _SHEKEL5)


def shekel7(x):
    return _shekel(x, _SHEKEL7)


def shekel10(x):
    return _shekel(x, _SHEKEL_WELLS)


def hartman3(x):
    x0, x1, x2 = x.tolist()
    total = 0.0
    for c, a0, a1, a2, p0, p1, p2 in _HARTMAN3_TERMS:
        total -= c * math.exp(-(a0 * (x0 - p0) ** 2 + a1 * (x1 - p1) ** 2
                                + a2 * (x2 - p2) ** 2))
    return total


def hartman6(x):
    x0, x1, x2, x3, x4, x5 = x.tolist()
    total = 0.0
    for c, a0, a1, a2, a3, a4, a5, p0, p1, p2, p3, p4, p5 in _HARTMAN6_TERMS:
        total -= c * math.exp(-(a0 * (x0 - p0) ** 2 + a1 * (x1 - p1) ** 2
                                + a2 * (x2 - p2) ** 2 + a3 * (x3 - p3) ** 2
                                + a4 * (x4 - p4) ** 2 + a5 * (x5 - p5) ** 2))
    return total


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




# -- coordinate views ------------------------------------------------------
#
# A kernel's sum is a fold: a start value, then each term added in the
# order the kernel computes it. A view keeps its point's terms in that
# order, behind the start value, with the running sum after each, and a
# probe adds from the running sum before the first term it changes. A
# kernel that assigns its first term (`total = t`) is folded from 0.0: that
# term is a square, never -0.0, and 0.0 + t is t.


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


def _separable_view(start, term):
    """The view builder of a kernel `total = start(n)`, then
    `total += term(i, x[i])` for each coordinate in order."""
    def build(x):
        x = x.tolist()
        fold = _fold([start(len(x)), *map(term, range(len(x)), x)])
        return lambda i, z: _resum(fold, i + 1, term(i, z))
    return build


def _ackley_view(x):
    x = x.tolist()
    n = len(x)
    squares = _fold([0.0, *[xi * xi for xi in x]])
    cosines = _fold([0.0, *[math.cos(2.0 * math.pi * xi) for xi in x]])

    def view(i, z):
        s2 = _resum(squares, i + 1, z * z)
        sc = _resum(cosines, i + 1, math.cos(2.0 * math.pi * z))
        return (-20.0 * math.exp(-0.2 * math.sqrt(s2 / n))
                - math.exp(sc / n) + 20.0 + math.e)
    return view


def _dixon_price_term(i, xi, xp):
    return (i + 1) * (2.0 * xi * xi - xp) ** 2


def _dixon_price_view(x):
    # the term of x[i] at position i + 1 also reads x[i - 1]
    x = x.tolist()
    n = len(x)
    fold = _fold([0.0, (x[0] - 1.0) ** 2,
                  *[_dixon_price_term(i, x[i], x[i - 1])
                    for i in range(1, n)]])

    def view(i, z):
        own = ((z - 1.0) ** 2 if i == 0
               else _dixon_price_term(i, z, x[i - 1]))
        if i == n - 1:
            return _resum(fold, i + 1, own)
        return _resum(fold, i + 1, own,
                      _dixon_price_term(i + 1, x[i + 1], z))
    return view


def _griewank_view(x):
    x = x.tolist()
    squares = _fold([0.0, *[xi * xi for xi in x]])
    # the product, folded as the sums are
    factors = [1.0, *[math.cos(xi / math.sqrt(i + 1.0))
                      for i, xi in enumerate(x)]]
    products = list(accumulate(factors, mul))

    def view(i, z):
        s = _resum(squares, i + 1, z * z)
        p = products[i] * math.cos(z / math.sqrt(i + 1.0))
        for t in factors[i + 2:]:
            p *= t
        return s / 4000.0 - p + 1.0
    return view


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


def _levy_view(x):
    x = x.tolist()
    n = len(x)
    fold = _fold([0.0, _levy_head(x[0]), *map(_levy_middle, x[:-1]),
                  _levy_end(x[-1])])

    def view(i, z):
        last = _levy_middle(z) if i < n - 1 else _levy_end(z)
        if i == 0:
            return _resum(fold, 1, _levy_head(z), last)
        return _resum(fold, i + 2, last)
    return view


def _powell_term(a, b, c, d):
    return ((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2
            + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4)


def _powell_view(x):
    x = x.tolist()
    groups = len(x) // 4
    fold = _fold([0.0, *[_powell_term(*x[4 * j:4 * j + 4])
                         for j in range(groups)]])

    def view(i, z):
        j = i // 4
        if j == groups:  # the kernel reads no coordinate past its groups
            return fold[1][-1]
        group = x[4 * j:4 * j + 4]
        group[i - 4 * j] = z
        return _resum(fold, j + 1, _powell_term(*group))
    return view


def _rosenbrock_term(xi, xn):
    return 100.0 * (xn - xi * xi) ** 2 + (xi - 1.0) ** 2


def _rosenbrock_view(x):
    # the term at position k + 1 reads x[k] and x[k + 1]
    x = x.tolist()
    n = len(x)
    fold = _fold([0.0, *map(_rosenbrock_term, x, x[1:])])

    def view(i, z):
        if i == 0:
            return _resum(fold, 1, _rosenbrock_term(z, x[1]))
        if i == n - 1:
            return _resum(fold, i, _rosenbrock_term(x[i - 1], z))
        return _resum(fold, i, _rosenbrock_term(x[i - 1], z),
                      _rosenbrock_term(z, x[i + 1]))
    return view


def _trid_view(x):
    # one sum: the square of x[i] at position i + 1, then the negated
    # product of x[k] and x[k + 1] at position n + 1 + k
    x = x.tolist()
    n = len(x)
    terms, running = _fold([0.0, *[(xi - 1.0) ** 2 for xi in x],
                            *[-(xi * xp) for xp, xi in zip(x, x[1:])]])

    def view(i, z):
        acc = running[i] + (z - 1.0) ** 2
        for t in terms[i + 2:n + i if i > 0 else n + 1]:
            acc += t
        if i > 0:
            acc += -(z * x[i - 1])
        if i < n - 1:
            acc += -(x[i + 1] * z)
        for t in terms[n + i + 2:]:
            acc += t
        return acc
    return view


def _zakharov_view(x):
    x = x.tolist()
    squares = _fold([0.0, *[xi * xi for xi in x]])
    weighted = _fold([0.0, *[0.5 * (i + 1) * xi for i, xi in enumerate(x)]])

    def view(i, z):
        s1 = _resum(squares, i + 1, z * z)
        s2 = _resum(weighted, i + 1, 0.5 * (i + 1) * z)
        return s1 + s2 ** 2 + s2 ** 4
    return view


#: kernel function -> view builder, for the thirteen Hedar kernels
VIEWS = {
    ackley: _ackley_view,
    dixon_price: _dixon_price_view,
    griewank: _griewank_view,
    levy: _levy_view,
    michalewicz: _separable_view(
        lambda n: 0.0,
        lambda i, xi: -(math.sin(xi)
                        * math.sin((i + 1) * xi * xi / math.pi) ** 20)),
    powell: _powell_view,
    rastrigin: _separable_view(
        lambda n: 10.0 * n,
        lambda i, xi: xi * xi - 10.0 * math.cos(2.0 * math.pi * xi)),
    rosenbrock: _rosenbrock_view,
    schwefel: _separable_view(
        lambda n: SCHWEFEL_OFFSET * n,
        lambda i, xi: -(xi * math.sin(math.sqrt(abs(xi))))),
    sphere: _separable_view(lambda n: 0.0, lambda i, xi: xi * xi),
    sum_squares: _separable_view(lambda n: 0.0,
                                 lambda i, xi: (i + 1) * xi * xi),
    trid: _trid_view,
    zakharov: _zakharov_view,
}


def coordinate_view(objective, x):
    """The view of `objective` at x, a float64 array: a function of
    (i, z) that returns objective(x with x[i] = z), bit for bit. None for
    an objective that is not itself one of the `VIEWS` kernels, and for an
    x at which building the view overflows."""
    try:
        build = VIEWS.get(objective)
    except TypeError:  # an unhashable objective is no kernel
        return None
    if build is None:
        return None
    try:
        return build(x)
    except OverflowError:
        return None
