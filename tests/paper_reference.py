"""Statements of the source paper that the tests check the package against
(the package itself has no caller for them)."""

import math

import numpy as np

from nilmoduli import algebra as al


def lemma_j_h6():
    """The Lemma's integrable J on h6: Je1 = e4, Je2 = e3, Je5 = e6."""
    j = np.zeros((6, 6))
    for src, dst in ((0, 3), (1, 2), (4, 5)):
        j[dst, src] = 1.0
        j[src, dst] = -1.0
    return al.AlmostComplexStructure(matrix=j, algebra="h6")


def h5_eq42_residual(form, a):
    """Residual of eq. (42), a^2 - a*gamma/sqrt(D) + 1 = 0 (h5, J1, F > 0)."""
    alpha = (math.sqrt(form.r) + math.sqrt(form.s)) / (1.0 + math.sqrt(form.r * form.s))
    gamma = form.E / alpha + form.G * alpha
    sd = math.sqrt(form.E * form.G - form.F ** 2)
    return a * a - a * gamma / sd + 1.0
