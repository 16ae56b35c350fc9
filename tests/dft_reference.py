"""The tests' independent Kohn-Nirenberg reference: explicit DFT matrices, no FFT and none
of the library's products."""

import numpy as np


def dft_matrix_product(grid, lattice, u):
    """``Op(a) u`` of grid fields ``u`` (a batch on the leading axes) and the lattice of
    ``a`` (rows x, columns xi in FFT layout, or anything that broadcasts to it):
    ``(1/2L) sum_j a(x_i, xi_j) exp(i x_i xi_j) dx sum_l u_l exp(-i xi_j x_l)``.

    The argument of ``E[n, j] = exp(i x_n xi_j)`` is reduced over the integers,
    ``x_n xi_j = pi (2 n j - j N) / N`` with ``j`` signed, into ``[-pi, pi)``: the products
    of the rounded ``x`` and ``xi`` reach ``N pi / 2``, where rounding moves the phase by up
    to 3e-13 at N = 1024."""
    N = grid.N
    j = np.fft.fftfreq(N, 1.0 / N).astype(int)
    r = (np.multiply.outer(2 * np.arange(N), j) - j * N + N) % (2 * N) - N
    E = np.exp((1j * np.pi / N) * r)
    return (grid.dx * (u @ E.conj())) @ (lattice * E).T / (2.0 * grid.L)
