"""Reference computations that the tests hold the library against."""

import numpy as np


def chain_rule_orbit(c: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``(points, derivs)``: ``g^n(0)`` and ``(g^n)'(0)`` at index ``n + N``
    for ``n = -N..N``, where ``g(z) = (z + c) / (1 + c z)``.

    Each side is stepped from 0 by the chain rule ``(g^{n+1})'(0) =
    g'(g^n(0)) (g^n)'(0)`` with ``g'(z) = (1 - c^2) / (1 + c z)^2``, and
    ``g^{-1}`` is ``g`` with ``c -> -c``: the oracle of
    ``fuchsian.fuchsian_sums``, which never walks the orbit, and it never
    uses the closed form ``g^n(0) = tanh(n artanh c)``.
    """
    points = np.zeros(2 * N + 1)
    derivs = np.ones(2 * N + 1)
    for sign in (1, -1):
        s, z, dz = sign * c, 0.0, 1.0
        for n in range(1, N + 1):
            q = 1.0 + s * z
            z, dz = (z + s) / q, (1.0 - s * s) / (q * q) * dz
            points[N + sign * n], derivs[N + sign * n] = z, dz
    return points, derivs
