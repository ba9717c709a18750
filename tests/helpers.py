"""Small helpers shared by the tests; the package itself never uses them."""
import csv

import numpy as np


def count_interior_extrema(y, tol: float = 1e-9) -> int:
    """Number of interior extrema (slope sign changes) of a sampled curve.

    Consecutive differences smaller than tol in magnitude are treated as
    flat and skipped, so quadrature-level noise on a plateau does not
    register as oscillation.
    """
    d = np.diff(np.asarray(y, dtype=float))
    signs = np.sign(d[np.abs(d) > tol])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def integrate(basis, values_at_quad) -> float:
    """Quadrature of an integrand sampled on basis.quad_points over [0, R]."""
    return float(np.dot(basis.quad_weights, values_at_quad))


def principal_numbers(orbitals) -> np.ndarray:
    """Principal quantum numbers n = l + 1, l + 2, ... of one l's orbitals."""
    return np.arange(orbitals.l + 1, orbitals.l + 1 + orbitals.n_orbitals)


def read_csv(path) -> list[dict]:
    """Inverse of formats.write_csv: header-keyed rows, numbers parsed back."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for record in reader:
            row = {}
            for name, text in zip(header, record):
                if text == "":
                    row[name] = None
                elif text in ("true", "false"):
                    row[name] = text == "true"
                else:
                    try:
                        row[name] = int(text)
                    except ValueError:
                        try:
                            row[name] = float(text)
                        except ValueError:
                            row[name] = text
            rows.append(row)
    return rows
