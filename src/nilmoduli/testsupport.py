"""Deterministic samplers for canonical forms and metrics.

Used by the CLI verify suites and by the test suite.  Samplers stay away
from case boundaries (r = 1, a = b, F = 0, ...) unless a boundary is
requested explicitly, so branch-sensitive checks are stable.
"""

from __future__ import annotations

import numpy as np

from .algebra import builtin_label, get_algebra
from .moduli import H2Form, H4Form, H5Form, H6Form, H9Form

SPD2_FLOOR = 0.3  # random_spd2 adds this multiple of I, bounding its eigenvalues below
# random_canonical_form's boundary options per built-in: the one table of them
BOUNDARIES = {"h5": ("r1", "sr", "sr1", "F0"), "h6": ("ab",), "h4": ("r1", "b0"),
              "h2": ("a0", "ab", "F0", "EG"), "h9hat": ("zeros",)}


def random_spd2(rng):
    a = rng.normal(0.0, 1.0, (2, 2))
    return a @ a.T + SPD2_FLOOR * np.eye(2)


def random_canonical_form(name, rng, boundary=None):
    """A random form in the canonical slice of the built-in that ``name``
    names (``algebra.builtin_label``), on the case boundary ``boundary``, one
    of its BOUNDARIES, or off every boundary when None.  An option the
    built-in lacks raises ValueError before any draw.
    """
    name = builtin_label(get_algebra(name))  # "h9" resolves to h9hat
    if boundary not in (None, *BOUNDARIES[name]):  # KeyError for no built-in
        raise ValueError(f"{name} has no boundary option {boundary!r}; "
                         f"choose from {BOUNDARIES[name]}")
    if name == "h6":
        a, b = np.sort(rng.uniform(0.2, 3.0, 2))
        if boundary == "ab":
            b = a
        if b - a < 1e-3 and boundary != "ab":
            b = a + 0.1
        return H6Form(float(a), float(b))
    if name == "h4":
        r = 1.0 if boundary == "r1" else float(rng.uniform(0.05, 0.95))
        d2 = random_spd2(rng)
        b = 0.0 if boundary == "b0" else float(abs(d2[0, 1]))
        return H4Form(r, float(d2[0, 0]), b, float(d2[1, 1]))
    if name == "h5":
        s, r = np.sort(rng.uniform(0.05, 0.95, 2))
        if r - s < 1e-3:
            s = max(r - 0.1, 0.02)
        d2 = random_spd2(rng)
        e_val, f_val, g_val = d2[0, 0], abs(d2[0, 1]), d2[1, 1]
        if boundary == "r1":
            r = 1.0
            f_val, (e_val, g_val) = 0.0, np.sort([e_val, g_val])
        if boundary == "sr":
            s = r
        if boundary == "sr1":
            r = s = 1.0
            f_val, (e_val, g_val) = 0.0, np.sort([e_val, g_val])
        if boundary == "F0":
            f_val = 0.0
        return H5Form(float(r), float(s), float(e_val), float(f_val), float(g_val))
    if name == "h2":
        a, b = np.sort(rng.uniform(0.05, 0.9, 2))
        if b - a < 1e-3:
            a = max(b - 0.1, 0.01)
        d2 = random_spd2(rng)
        e_val, g_val = np.sort([d2[0, 0], d2[1, 1]])
        g_val = max(g_val, e_val + 0.05)
        f_val = float(d2[0, 1])  # sign free when a > 0
        if boundary == "a0":
            a = 0.0
            f_val = abs(f_val)
        if boundary == "ab":
            a = b
        if boundary == "F0":
            f_val = 0.0
        if boundary == "EG":
            g_val = e_val
        fmax = 0.95 * np.sqrt(e_val * g_val)
        f_val = float(np.clip(f_val, -fmax, fmax))
        return H2Form(float(a), float(b), float(e_val), f_val, float(g_val))
    if name == "h9hat":
        big = rng.uniform(0.3, 2.0, 3)
        def_ = rng.uniform(0.05, 1.5, 3)
        if boundary == "zeros":
            def_ = def_ * (rng.random(3) < 0.5)
        return H9Form(*map(float, big), *map(float, def_))
