"""Benchmark-function evaluation kernels.

Each kernel takes a 1-D float64 array and returns a float. `KERNELS` maps
the registry's kernel names to them.
"""

from __future__ import annotations

import math

import numpy as np

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


def ackley(x):
    n = x.size
    s2 = 0.0
    sc = 0.0
    for i in range(n):
        s2 += x[i] * x[i]
        sc += math.cos(2.0 * math.pi * x[i])
    return (-20.0 * math.exp(-0.2 * math.sqrt(s2 / n))
            - math.exp(sc / n) + 20.0 + math.e)


def dixon_price(x):
    total = (x[0] - 1.0) ** 2
    for i in range(1, x.size):
        total += (i + 1) * (2.0 * x[i] * x[i] - x[i - 1]) ** 2
    return total


def griewank(x):
    s = 0.0
    p = 1.0
    for i in range(x.size):
        s += x[i] * x[i]
        p *= math.cos(x[i] / math.sqrt(i + 1.0))
    return s / 4000.0 - p + 1.0


def levy(x):
    n = x.size
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
    for i in range(x.size):
        si = math.sin((i + 1) * x[i] * x[i] / math.pi)
        total -= math.sin(x[i]) * si ** 20
    return total


def powell(x):
    total = 0.0
    for j in range(x.size // 4):
        a = x[4 * j]
        b = x[4 * j + 1]
        c = x[4 * j + 2]
        d = x[4 * j + 3]
        total += ((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2
                  + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4)
    return total


def rastrigin(x):
    total = 10.0 * x.size
    for i in range(x.size):
        total += x[i] * x[i] - 10.0 * math.cos(2.0 * math.pi * x[i])
    return total


def rosenbrock(x):
    total = 0.0
    for i in range(x.size - 1):
        total += (100.0 * (x[i + 1] - x[i] * x[i]) ** 2
                  + (x[i] - 1.0) ** 2)
    return total


def schwefel(x):
    total = SCHWEFEL_OFFSET * x.size
    for i in range(x.size):
        total -= x[i] * math.sin(math.sqrt(abs(x[i])))
    return total


def sphere(x):
    total = 0.0
    for i in range(x.size):
        total += x[i] * x[i]
    return total


def sum_squares(x):
    total = 0.0
    for i in range(x.size):
        total += (i + 1) * x[i] * x[i]
    return total


def trid(x):
    total = 0.0
    for i in range(x.size):
        total += (x[i] - 1.0) ** 2
    for i in range(1, x.size):
        total -= x[i] * x[i - 1]
    return total


def zakharov(x):
    s1 = 0.0
    s2 = 0.0
    for i in range(x.size):
        s1 += x[i] * x[i]
        s2 += 0.5 * (i + 1) * x[i]
    return s1 + s2 ** 2 + s2 ** 4


def branin(x):
    b = 5.1 / (4.0 * math.pi ** 2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return ((x[1] - b * x[0] * x[0] + c * x[0] - 6.0) ** 2
            + 10.0 * (1.0 - t) * math.cos(x[0]) + 10.0)


def goldstein_price(x):
    x1 = x[0]
    x2 = x[1]
    a = (1.0 + (x1 + x2 + 1.0) ** 2
         * (19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2
            + 6.0 * x1 * x2 + 3.0 * x2 * x2))
    b = (30.0 + (2.0 * x1 - 3.0 * x2) ** 2
         * (18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2
            - 36.0 * x1 * x2 + 27.0 * x2 * x2))
    return a * b


def camel6(x):
    x1 = x[0]
    x2 = x[1]
    return ((4.0 - 2.1 * x1 * x1 + x1 ** 4 / 3.0) * x1 * x1
            + x1 * x2 + (-4.0 + 4.0 * x2 * x2) * x2 * x2)


def shubert(x):
    s1 = 0.0
    s2 = 0.0
    for j in range(1, 6):
        s1 += j * math.cos((j + 1) * x[0] + j)
        s2 += j * math.cos((j + 1) * x[1] + j)
    return s1 * s2


def _shekel(x, m):
    total = 0.0
    for j in range(m):
        dist = 0.0
        for k in range(4):
            dist += (x[k] - SHEKEL_A[k, j]) ** 2
        total -= 1.0 / (dist + SHEKEL_C[j])
    return total


def shekel5(x):
    return _shekel(x, 5)


def shekel7(x):
    return _shekel(x, 7)


def shekel10(x):
    return _shekel(x, 10)


def hartman3(x):
    total = 0.0
    for i in range(4):
        expo = 0.0
        for k in range(3):
            expo += HARTMAN3_A[i, k] * (x[k] - HARTMAN3_P[i, k]) ** 2
        total -= HARTMAN3_C[i] * math.exp(-expo)
    return total


def hartman6(x):
    total = 0.0
    for i in range(4):
        expo = 0.0
        for k in range(6):
            expo += HARTMAN6_A[i, k] * (x[k] - HARTMAN6_P[i, k]) ** 2
        total -= HARTMAN6_C[i] * math.exp(-expo)
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
