"""Reference matrix exponential for the tests (the package has no caller)."""

import numpy as np


def expm_pade6(a):
    """Matrix exponential by scaling-and-squaring with a fixed Pade(6,6) core."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0)
    x = a / (2.0 ** squarings)
    # Pade(6,6) coefficients of exp
    b = [1.0, 0.5, 3.0 / 26.0, 5.0 / 312.0, 5.0 / 3432.0, 1.0 / 11440.0, 1.0 / 308880.0]
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    even = b[0] * np.eye(n) + b[2] * x2 + b[4] * x4 + b[6] * x6
    odd = x @ (b[1] * np.eye(n) + b[3] * x2 + b[5] * x4)
    p = even + odd
    q = even - odd
    r = np.linalg.solve(q, p)
    for _ in range(squarings):
        r = r @ r
    return r
