"""The benchmark's workloads and how their inputs follow from a seed.

Inputs are derived in two steps.  `derive` turns the seed into one
recipe per complex and is not timed: for Rips it fixes the simplex
count (see `rips_rho`), for Linial-Meshulam it keeps only filtrations
with torsion in some prefix.  `build` then makes the inputs from the recipes
with the program's own generators, builds the complexes and writes the
filtration files; that is the set-up a user pays and what `setup_s`
times.  All program calls go through module attributes so that the
traced run can wrap them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mfph.complexes
import mfph.crt
import mfph.generators
from checks import shows_torsion

MAX_DIM = 3
SHAPE = "cube-uniform"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "rips" or "ym"
    r: int  # the first r primes
    complexes: int  # complexes per run, all derived from the seed
    n: int  # points (rips) or vertices (ym)
    setup_reps: int  # set-up repetitions; setup_s is their median
    size: int = 0  # simplices per Rips complex: about its median size at rho = 0.28


# Sizes are set so that one round of all routes takes a few seconds on a
# 2-core machine and the complexes of one run average out the spread
# between seeds; README.md gives the measured figures.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rips-shared", "rips", r=10, complexes=3, n=250, setup_reps=5, size=19000),
        Workload("ym-torsion", "ym", r=25, complexes=6, n=20, setup_reps=15),
        Workload("many-fields", "rips", r=100, complexes=4, n=190, setup_reps=7, size=7000),
    )
}


@dataclass(frozen=True)
class Recipe:
    label: str
    seed: int
    rho: float = 0.0  # rips only


def rips_rho(points: np.ndarray, size: int) -> float:
    """Smallest edge length at which the Rips complex (up to dimension
    MAX_DIM = 3) of the points has at least `size` simplices.

    Edges are added shortest first; an edge uv closes one triangle per
    common neighbour w and one tetrahedron per edge among the common
    neighbours, counted with adjacency bitsets.  Fixing the size, rather
    than rho itself, takes the spread of the single-field column
    operations between seeds (standard deviation over mean, 16 seeds of
    250 points) from 16 % at rho = 0.28 down to 8 %.
    """
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu, ju = np.triu_indices(n, 1)
    adj = [0] * n
    count = n
    for k in np.argsort(dist[iu, ju], kind="stable"):
        u, v = int(iu[k]), int(ju[k])
        common = adj[u] & adj[v]
        tetra_ends = 0  # each tetrahedron uvwx is seen from w and from x
        rest = common
        while rest:
            low = rest & -rest
            tetra_ends += (adj[low.bit_length() - 1] & common).bit_count()
            rest ^= low
        count += 1 + common.bit_count() + tetra_ends // 2
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if count >= size:
            return float(dist[u, v])
    raise ValueError(f"{n} points span fewer than {size} simplices")


def derive(w: Workload, seed: int) -> list[Recipe]:
    """One recipe per complex; the same seed gives the same recipes."""
    if w.kind == "rips":
        subseeds = np.random.SeedSequence(seed).generate_state(w.complexes)
        recipes = []
        for i, sub in enumerate(int(x) for x in subseeds):
            points = mfph.generators.sample_shape(SHAPE, w.n, sub)
            recipes.append(Recipe(f"{w.name}-{i}", sub, rips_rho(points, w.size)))
        return recipes
    # Y(n, C(n,3)) with torsion in H_1 of some prefix, found by comparing
    # prefix ranks mod 2 with those mod the reference (largest) prime; at
    # n = 20 about one filtration in eight qualifies
    reference = mfph.crt.first_primes(w.r)[-1]
    rng = random.Random(seed)
    recipes = []
    tried = 0
    while len(recipes) < w.complexes:
        tried += 1
        if tried > 400:
            raise RuntimeError(f"no Y({w.n}, m) filtration with torsion in 400 tries")
        sub = rng.randrange(2**31)
        cx = mfph.generators.linial_meshulam(w.n, math.comb(w.n, 3), sub)
        if shows_torsion(cx.simplices, (2,), reference):
            recipes.append(Recipe(f"{w.name}-{len(recipes)}", sub))
    return recipes


def build(w: Workload, recipes: list[Recipe], workdir: Path):
    """Generate, build and save every complex: [(complex, file path)]."""
    out = []
    for rc in recipes:
        if w.kind == "rips":
            points = mfph.generators.sample_shape(SHAPE, w.n, rc.seed)
            cx = mfph.generators.rips_filtration(points, rc.rho, MAX_DIM)
            header = [f"rips shape={SHAPE} n={w.n} seed={rc.seed} rho={rc.rho!r} max-dim={MAX_DIM}"]
        else:
            cx = mfph.generators.linial_meshulam(w.n, math.comb(w.n, 3), rc.seed)
            header = [f"linial-meshulam n={w.n} m={math.comb(w.n, 3)} seed={rc.seed}"]
        path = workdir / f"{rc.label}.flt"
        mfph.complexes.save_filtration(cx, path, header=header)
        out.append((cx, path))
    return out
