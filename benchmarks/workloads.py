"""Seeded workload generators for the bergreen CLI benchmark.

Each generator maps a seed to a list of :class:`Call`: one ``bergreen``
argv (without ``--outdir``) and the number of records it must produce.
The same seed gives the same calls; the program sees only the argv.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from bergreen.domains import Annulus, Jordan, sample_interior


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    records: int


def _c(z: complex) -> str:
    """Complex value as a CLI token; six decimals keep argv short and exact."""
    return repr(complex(round(z.real, 6), round(z.imag, 6)))


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


def _band(r_inner: float) -> tuple[float, float]:
    """The middle radial band of ``cli._sweep_points`` on an annulus, where
    ``bergman.auto_basis`` stays at (-128, 128) and the cost is steady."""
    return r_inner + 0.125 * (1.0 - r_inner), r_inner + 0.5 * (1.0 - r_inner)


def torus(seed: int) -> list[Call]:
    """One modulus tau = x + iy, x in [-0.5, 0.5], y in [0.9, 1.3], at d = 4 and 6."""
    rng = random.Random(f"torus/{seed}")
    tau = _c(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.3)))
    return [Call(("torus-check", f"--taus={tau}", f"--ds={d}"), 1) for d in (4, 6)]


def planar(seed: int) -> list[Call]:
    """Every stage of ``bergreen all`` but the torus one, one call per stage,
    with seeded points in the sweep's middle band."""
    rng = random.Random(f"planar/{seed}")

    def points(domain: str, count: int) -> str:
        if domain == "disc":
            lo, hi = 0.0, 0.6
        else:
            lo, hi = _band(float(domain.partition(":")[2]))
        return ",".join(_c(_polar(rng, lo, hi)) for _ in range(count))

    calls = [
        Call(("suita-check", "--domain=disc", f"--zs={points('disc', 3)}"), 3),
        Call(("suita-check", "--domain=annulus:0.2", f"--zs={points('annulus:0.2', 8)}"), 8),
    ]
    for weight in ("harmoniclog:0.3", "harmonicre:0.2"):
        zs = points("annulus:0.2", 4)
        calls.append(
            Call(("extended-suita-check", "--domain=annulus:0.2", f"--weight={weight}", f"--zs={zs}"), 4)
        )
    calls += [
        Call(("optimal-constant",), 6),
        Call(("ode-check",), 5),
        Call(("cutoff-check",), 2),
        Call(("residual-measure",), 6),
        Call(("fuchsian-check",), 1),
    ]
    for domain in ("annulus:0.2", "annulus:0.04"):
        # 8 sandwich points plus the boundary trend record
        calls.append(Call(("squeeze-check", f"--domain={domain}", f"--ps={points(domain, 8)}", "--trend"), 9))
    return calls


def nystrom(seed: int) -> list[Call]:
    """Capacity and Green calls on seeded ellipses (Nystrom path, Jordan
    domains) and Nystrom Green calls on annulus:0.2, one record each."""
    rng = random.Random(f"nystrom/{seed}")
    calls = []
    for k in range(3):
        a, b = round(rng.uniform(1.0, 1.5), 4), round(rng.uniform(0.5, 0.9), 4)
        spec = f"ellipse:{a!r}:{b!r}"
        pts = sample_interior(Jordan.ellipse(a, b), 8, seed=rng.randrange(2**31), margin=0.1)
        calls += [Call(("capacity", f"--domain={spec}", f"--z={_c(z)}"), 1) for z in pts[:4]]
        calls += [
            Call(("green", f"--domain={spec}", f"--xi={_c(xi)}", f"--z={_c(z)}"), 1)
            for xi, z in (pts[4:6], pts[6:8])
        ]
    pts = sample_interior(Annulus(0.2), 8, seed=rng.randrange(2**31), margin=0.1)
    calls += [
        Call(("green", "--domain=annulus:0.2", "--method=nystrom", f"--xi={_c(xi)}", f"--z={_c(z)}"), 1)
        for xi, z in zip(pts[0::2], pts[1::2])
    ]
    return calls


WORKLOADS = {"torus": torus, "planar": planar, "nystrom": nystrom}
