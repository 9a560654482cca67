"""Benchmark-function evaluation kernels.

Each kernel takes a 1-D float64 array and returns a float. `KERNELS` maps
the registry's kernel names to them.

A kernel reads its point once with `x.tolist()` and computes on Python
floats: indexing an array element by element boxes an `np.float64` per
access, which made the kernels 1.6-4x slower for the same arithmetic. The
Shekel and Hartman tables are nested lists built once from `data.py` for the
same reason. Every operation, and its order, is the one the formula was
written with, so the values are bit-identical to the element-wise numpy form.

Batched numpy kernels (one array operation over many points) would change
those bits, which a pure speed-up must not do, so there are none:

* `np.exp` on an array differs from `math.exp` in the last bit on about
  4.6% of arguments (10^6 uniform draws on [-50, 0], numpy 2.4);
* `X.sum(axis=1)` adds in eight interleaved partial sums, not left to right,
  and differs from the sequential sum on 9-26% of rows of 12 uniform terms.
"""

from __future__ import annotations

import math

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

# data.py tables as Python floats: Shekel centres by column (well j is
# SHEKEL_A[:, j]), Hartman rows as (C[i], A[i], P[i]).
_SHEKEL_WELLS = list(zip(SHEKEL_A.T.tolist(), SHEKEL_C.tolist()))
_HARTMAN3_TERMS = list(zip(HARTMAN3_C.tolist(), HARTMAN3_A.tolist(),
                           HARTMAN3_P.tolist()))
_HARTMAN6_TERMS = list(zip(HARTMAN6_C.tolist(), HARTMAN6_A.tolist(),
                           HARTMAN6_P.tolist()))


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


def _shekel(x, m):
    x = x.tolist()
    total = 0.0
    for a, c in _SHEKEL_WELLS[:m]:
        dist = 0.0
        for xk, ak in zip(x, a):
            dist += (xk - ak) ** 2
        total -= 1.0 / (dist + c)
    return total


def shekel5(x):
    return _shekel(x, 5)


def shekel7(x):
    return _shekel(x, 7)


def shekel10(x):
    return _shekel(x, 10)


def _hartman(x, terms):
    x = x.tolist()
    total = 0.0
    for c, a, p in terms:
        expo = 0.0
        for xk, ak, pk in zip(x, a, p):
            expo += ak * (xk - pk) ** 2
        total -= c * math.exp(-expo)
    return total


def hartman3(x):
    return _hartman(x, _HARTMAN3_TERMS)


def hartman6(x):
    return _hartman(x, _HARTMAN6_TERMS)


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
