"""Independent references the output checks compare against.

Nothing here calls into the package: the canonical-form matrices follow the
table in the README and the bracket tensors are built from the Salamon
strings, so a defect shared by the code and its own self-checks still shows.
"""

from __future__ import annotations

import numpy as np

DIM = 6

SALAMON = {
    "h2": "(0,0,0,0,12,34)",
    "h4": "(0,0,0,0,12,14+23)",
    "h5": "(0,0,0,0,13+42,14+23)",
    "h6": "(0,0,0,0,12,13)",
    "h9": "(0,0,0,0,12,14+25)",
}

# parameter order of each canonical form, as the forms report them
FORM_PARAMS = {
    "h2": ("a", "b", "E", "F", "G"),
    "h4": ("r", "a", "b", "c"),
    "h5": ("r", "s", "E", "F", "G"),
    "h6": ("a", "b"),
    "h9hat": ("A", "B", "C", "D", "E", "F"),
}


def bracket_tensor(label):
    """b[k, i, j] = e^k-component of [e_i, e_j] with de^k(e_i, e_j) = -e^k([e_i, e_j])."""
    b = np.zeros((DIM, DIM, DIM))
    if label == "h9hat":
        # [ê1, ê2] = +ê5, [ê1, ê5] = [ê2, ê3] = -ê6
        for k, i, j, v in ((4, 0, 1, 1.0), (5, 0, 4, -1.0), (5, 1, 2, -1.0)):
            b[k, i, j] += v
            b[k, j, i] -= v
        return b
    for k, term in enumerate(SALAMON[label].strip("()").split(",")):
        if term == "0":
            continue
        for token in term.split("+"):
            i, j = int(token[0]) - 1, int(token[1]) - 1
            # de^k contains e^{ij}, so e^k([e_i, e_j]) = -1
            b[k, i, j] -= 1.0
            b[k, j, i] += 1.0
    return b


def canonical_matrix(label, p):
    """Metric matrix of a canonical form given as a parameter dict."""
    g = np.eye(DIM)
    if label == "h5":
        g[1, 1], g[3, 3] = p["r"], p["s"]
        g[4:, 4:] = [[p["E"], p["F"]], [p["F"], p["G"]]]
    elif label == "h6":
        g[4, 4], g[5, 5] = p["a"], p["b"]
    elif label == "h4":
        g[3, 3] = p["r"]
        g[4:, 4:] = [[p["a"], p["b"]], [p["b"], p["c"]]]
    elif label == "h2":
        g[0, 2] = g[2, 0] = p["a"]
        g[1, 3] = g[3, 1] = p["b"]
        g[4:, 4:] = [[p["E"], p["F"]], [p["F"], p["G"]]]
    elif label == "h9hat":
        A, B, C, D, E, F = (p[k] for k in FORM_PARAMS["h9hat"])
        g[2, 2] = A * A + D * D
        g[2, 3] = g[3, 2] = D * E
        g[2, 4] = g[4, 2] = B * D
        g[3, 3] = E * E + 1.0
        g[3, 4] = g[4, 3] = B * E
        g[4, 4] = B * B + F * F
        g[4, 5] = g[5, 4] = C * F
        g[5, 5] = C * C
    else:
        raise KeyError(label)
    return g


def in_canonical_slice(label, p, tol=1e-12):
    """The README's inequalities for a canonical form (with a rounding margin)."""
    if label == "h5":
        ok = 0 < p["s"] <= p["r"] * (1 + tol) and p["r"] <= 1 + tol and p["F"] >= -tol
        if ok and abs(p["r"] - 1.0) <= tol:
            ok = abs(p["F"]) <= tol * max(1.0, p["E"], p["G"]) and p["E"] <= p["G"] * (1 + tol)
        return ok
    if label == "h6":
        return 0 < p["a"] <= p["b"] * (1 + tol)
    if label == "h4":
        return 0 < p["r"] <= 1 + tol and p["b"] >= -tol
    if label == "h2":
        ok = -tol <= p["a"] <= p["b"] * (1 + tol) and p["b"] < 1 and p["E"] <= p["G"] * (1 + tol)
        return ok and (p["a"] > tol or p["F"] >= -tol)
    if label == "h9hat":
        return all(p[k] > 0 for k in "ABC") and all(p[k] >= -tol for k in "DEF")
    raise KeyError(label)


def bracket_defect(b, m):
    """max |M [e_i, e_j] - [M e_i, M e_j]| over basis pairs."""
    lhs = np.einsum("km,mij->kij", m, b)
    rhs = np.einsum("kpq,pi,qj->kij", b, m, m)
    return float(np.max(np.abs(lhs - rhs)))


def max_abs(a):
    return float(np.max(np.abs(a)))
