"""Finite-difference derivatives of the closure, the tests' independent oracle.

The package computes the entropy gradient and Hessian in closed form; these
central differences in conserved variables check them without sharing any
of that algebra.
"""

import numpy as np

from et6.closure import entropy_parts, main_field
from et6.gas import primitive_from_conserved


def entropy_of(u_vec, spec):
    """Entropy density h at the conserved vector (F, F_x, F_y, F_z, F_ll, G_ll)."""
    return entropy_parts(primitive_from_conserved(u_vec, spec), spec).h


def main_field_of(u_vec, spec):
    """Main field (lam, lam_i, lam_ll, mu_ll) at a conserved vector."""
    return main_field(primitive_from_conserved(u_vec, spec), spec).as_array()


def fd_derivative(fn, u_vec, rel_step=1e-6):
    """d fn / du by central differences with one Richardson halving.

    The last axis of the result follows u: a gradient for scalar fn, a
    Jacobian for vector fn.
    """
    columns = []
    for j in range(len(u_vec)):
        est = []
        for hfac in (1.0, 0.5):
            h = rel_step * max(abs(u_vec[j]), 1.0) * hfac
            up = u_vec.copy()
            um = u_vec.copy()
            up[j] += h
            um[j] -= h
            est.append((np.asarray(fn(up)) - np.asarray(fn(um))) / (2 * h))
        columns.append((4.0 * est[1] - est[0]) / 3.0)
    return np.stack(columns, axis=-1)


def fd_gradient(u_vec, spec, rel_step=1e-6):
    """Entropy gradient dh/du by finite differences."""
    return fd_derivative(lambda u: entropy_of(u, spec), u_vec, rel_step)
