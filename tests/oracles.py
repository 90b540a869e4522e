"""Reference computations that the tests hold the library against."""

import math

import numpy as np
from scipy.special import gammaln

from bergreen import bergman


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


def bessel_gram(lo: float, c: float, ns: np.ndarray, terms: int = 40) -> np.ndarray:
    """The Gram of ``HarmonicRe(c)`` on ``lo < |z| < 1`` (the unit disc at
    ``lo = 0``), each entry summed term by term in floating point:

        2 pi (-c)^k sum_{j < terms} c^(2j) / (j! (j+k)!) L(2 (M + 1 + j)),

    ``M = max(m, n)``, ``k = |m - n|``, ``L(p) = (1 - lo^p) / p`` with
    ``lo^p`` formed (``log(1/lo)`` at ``p = 0``).  The terms have one sign,
    so each entry is accurate to a few roundings while it is in the float
    range.  The oracle of ``bergman._bessel_gram``, which forms neither
    ``lo^p`` nor the Gram; nothing here checks that ``terms`` suffices.
    """
    big = np.maximum.outer(ns, ns)
    k = np.abs(np.subtract.outer(ns, ns))
    gram = np.zeros(k.shape)
    for j in range(terms):
        p = 2.0 * (big + 1 + j)
        moment = np.full(p.shape, -math.log(lo) if lo > 0.0 else math.inf)
        np.divide(1.0 - lo**p, p, out=moment, where=p != 0.0)
        log_coeff = (k + 2 * j) * math.log(abs(c)) - gammaln(j + 1) - gammaln(j + k + 1)
        gram += np.exp(log_coeff) * moment
    return 2.0 * math.pi * np.where(k % 2 == 1, -math.copysign(1.0, c), 1.0) * gram


def jacobi_scaled(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(corr, d)`` with ``d = sqrt|diag gram|`` and ``corr = gram / d
    d^T``, its entries below ``bergman._DROP`` in modulus set to 0: the
    oracle of ``bergman._bessel_gram``, which builds ``corr`` and ``log d``
    in log space without forming ``gram``.  Every operation here is one
    rounding on the entries of ``gram`` itself."""
    d = np.sqrt(np.abs(np.diag(gram)).real)
    corr = gram / np.outer(d, d)
    corr[np.abs(corr) < bergman._DROP] = 0.0
    return corr, d


def laurent_remainder(r: float, z: complex, w: complex, modes: int) -> float:
    """``H(z, w)`` on ``r < |z| < 1`` from the first ``modes`` Laurent modes:
    the oracle of the annulus prime-function route in ``domains``.

    ``H = d0 log|z| + sum_k Re[alpha_k z^k + beta_k z^{-k}]``, where the
    coefficients solve the two-circle Dirichlet matching problem:

        beta_k  = r^{2k} (conj(w)^{-k} - w^k) / (k (1 - r^{2k})),
        alpha_k = conj(w)^k / k - conj(beta_k),
        d0      = log|w| / log(1/r).

    Every power is of a base of modulus below 1.  The series converges with
    ratio ``max(|z||w|, r^2/(|z||w|), r^2|z|/|w|, r^2|w|/|z|)``, and nothing
    here sizes ``modes`` to it.
    """
    out = math.log(abs(w)) / math.log(1.0 / r) * math.log(abs(z))
    k = np.arange(1, modes + 1, dtype=float)
    r2k = np.exp(k * (2.0 * math.log(r)))
    denom = k * (1.0 - r2k)
    wb = w.conjugate()
    B2 = r * r / wb  # |.| = r^2/|w| < 1
    B3 = r * r * w  # |.| < r^2
    # beta_k z^{-k} = ((B2/z)^k - (B3/z)^k) / denom
    t_bz = (np.power(B2 / z, k) - np.power(B3 / z, k)) / denom
    # conj(beta_k) z^k = ((conj(B2) z)^k - (conj(B3) z)^k) / denom
    t_cbz = (np.power(B2.conjugate() * z, k) - np.power(B3.conjugate() * z, k)) / denom
    # alpha_k z^k = (conj(w) z)^k / k - conj(beta_k) z^k
    t_az = np.power(wb * z, k) / k - t_cbz
    return out + float(np.sum(t_az.real + t_bz.real))


def laurent_robin(r: float, z: complex, modes: int) -> float:
    """``H(z, z)`` on the annulus from the first ``modes`` Laurent modes.

    The pure-disc part sums to ``-log(1 - |z|^2)`` in closed form, and mode
    ``k`` of the rest is ``((r^2/|z|^2)^k - 2 r^{2k} + (r^2|z|^2)^k) / (k (1
    - r^{2k}))``, which converges with ratio ``max(r^2/|z|^2, r^2|z|^2)``.
    """
    s = abs(z)
    k = np.arange(1, modes + 1, dtype=float)
    r2k = np.exp(k * (2.0 * math.log(r)))
    corr = (np.power(r * r / (s * s), k) - 2.0 * r2k + np.power(r * r * s * s, k)) / (k * (1.0 - r2k))
    lz = math.log(s)
    return lz * lz / math.log(1.0 / r) - math.log((1.0 - s) * (1.0 + s)) + float(np.sum(corr))


def theta_rows(basis, n: int) -> np.ndarray:
    """``theta_j`` of ``basis`` for every ``j`` on the product grid ``a/n +
    (b/n) tau`` (``0 <= a, b < n``): shape ``(d, n*n)``, columns ``a``-major.

    A series term factors as ``U[a, nu] W[b, nu]`` with ``U = exp(2 pi i d
    nu a/n)`` and ``W = exp(pi i tau d nu^2 + 2 pi i d nu tau b/n)``, each
    exponential taken at every entry, so row ``j`` is the product ``U_j
    W_j^T``.  The Gaussian factor stays in ``W``, where ``|W|`` is the
    modulus of a series term, at most ``exp(pi d Im tau)``.
    """
    tau, d = basis.spec.tau, basis.d
    N = basis._n_range
    dnu = d * np.arange(-N, N + 1) + np.arange(d)[:, None]  # (d, 2N+1)
    nu = dnu / d
    idx = np.arange(n)
    U = np.exp(2j * math.pi / n * (np.multiply.outer(dnu, idx) % n))  # (d, 2N+1, n)
    expo = 1j * math.pi * tau * d * nu**2
    W = np.exp(expo[:, :, None] + 2j * math.pi * d * np.multiply.outer(nu, idx / n * tau))
    return (np.swapaxes(U, 1, 2) @ W).reshape(d, n * n)


def theta_gram(basis, n: int) -> np.ndarray:
    """Gram matrix of the weighted theta sections of ``basis`` against the
    unit volume form, by the trapezoid rule on the ``n x n`` product grid
    of :func:`theta_rows`: the oracle of ``torus.torus_gram``.

    The integrand is smooth and doubly periodic, so the rule converges
    spectrally in ``n``; nothing here sizes ``n`` or checks convergence.
    """
    rows = theta_rows(basis, n)
    idx = np.arange(n)
    S, T = np.meshgrid(idx / n, idx / n, indexing="ij")
    w = basis.weight((S + T * basis.spec.tau).ravel())
    G = (rows * w) @ rows.conj().T / (n * n)
    return 0.5 * (G + G.conj().T)
