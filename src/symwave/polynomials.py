"""Small multivariate polynomials with exact gradients and Hessians.

Used for the shear-stage potentials of random symplectomorphisms and the
graph phases of ``evolve``.  Terms are (coefficient, exponent-tuple) pairs;
evaluation is vectorized over leading axes so a stage can process millions
of sample points in one call.
"""

from itertools import combinations_with_replacement

import numpy as np

__all__ = ["Polynomial", "random_polynomial"]


class Polynomial:
    """sum_k c_k * prod_j x_j^{e_kj} in ``n`` variables."""

    def __init__(self, n, terms):
        self.n = int(n)
        self.terms = []
        for coeff, expo in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo}")
            if coeff != 0.0:
                self.terms.append((float(coeff), expo))
        # (output index, coefficient, integer multiplier, exponents) of each
        # nonzero term of the value, the gradient and the Hessian; entry
        # (i, j) of the Hessian differentiates by x_j first, then by x_i
        rows = [((), c, 1, e) for c, e in self.terms]
        self._derivatives = [rows]
        for _ in range(2):
            rows = [
                ((j,) + idx, c, mult * pw[j], tuple(p - (k == j) for k, p in enumerate(pw)))
                for idx, c, mult, pw in rows
                for j in range(self.n)
                if mult * pw[j]
            ]
            self._derivatives.append(rows)

    def _evaluate(self, x, order):
        # sum of c * mult * prod_k x_k^p_k over the order-th derivative terms;
        # x_k^p is x_k^(p-1) * x_k, made once per call; each term is multiplied
        # left to right into one buffer, and the gradient keeps the layout of x
        x = np.asarray(x, dtype=float)
        powers = [[None, x[..., k]] for k in range(self.n)]
        out = np.zeros_like(x, shape=x.shape[:-1] + (self.n,) * order)
        term = np.empty(x.shape[:-1])
        for idx, c, mult, pw in self._derivatives[order]:
            for k, p in enumerate(pw):
                while len(powers[k]) <= p:
                    powers[k].append(powers[k][-1] * powers[k][1])
            factors = [powers[k][p] for k, p in enumerate(pw) if p]
            np.multiply(c * mult, factors[0] if factors else 1.0, out=term)
            for factor in factors[1:]:
                term *= factor
            out[(Ellipsis,) + idx] += term
        return out

    def value(self, x):
        return self._evaluate(x, 0)

    def grad(self, x):
        return self._evaluate(x, 1)

    def hess(self, x):
        return self._evaluate(x, 2)


def random_polynomial(n, rng, degree=4, min_degree=2, coeff_range=0.5):
    """Random polynomial with all monomials of total degree in
    [min_degree, degree], coefficients uniform in +-coeff_range."""
    terms = []
    for d in range(min_degree, degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for j in combo:
                e[j] += 1
            terms.append((rng.uniform(-coeff_range, coeff_range), tuple(e)))
    return Polynomial(n, terms)
