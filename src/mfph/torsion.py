"""Integral Betti numbers and torsion counts from multi-field diagrams.

The universal coefficient theorem gives, for each prime field Z/qZ,

    beta_d(Z/qZ) = beta_d(Z) + t(d, q) + t(d-1, q)

where t(d, q) counts the Z/q^kZ summands of the integral d-homology.
A field whose prime divides no torsion coefficient has the least Betti
number in every dimension, so beta_d(Z) is read off the field of the
largest prime whose column is least at every d.  This turns the identity
into a recurrence for the t(d, q), from t(0, q) = 0 since 0-homology is
free.  Exponents k are not recoverable and are rendered as q^*.

torsion_window reads torsion across random 2-complexes Y(n, m), as in
Kahle, Lutz, Newman and Parsons (Experimental Mathematics 2020).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from math import comb, inf, isfinite, lcm

import numpy as np

from .crt import PrimeBasis, mask_primes
from .generators import linial_meshulam
from .multifield import MultiFieldDiagram, reduce_multifield

__all__ = [
    "BettiTable",
    "IntegralProfile",
    "WINDOW_CSV_HEADER",
    "WindowResult",
    "annotate_diagram",
    "betti_table",
    "five_number",
    "group_string",
    "infer_torsion",
    "torsion_csv_rows",
    "torsion_report",
    "torsion_window",
    "window_csv_rows",
    "window_text",
]


@dataclass(frozen=True)
class BettiTable:
    """beta[d][s-1] = dimension-d Betti number over field s, at index t."""

    basis: PrimeBasis
    t: int
    beta: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntegralProfile:
    """Inferred integral Betti numbers and per-prime torsion counts.

    torsion[d][s-1] counts Z/q_s^*Z summands in dimension d.  When any
    count would be negative, or dimension 0 disagrees across fields,
    every basis prime divides some torsion coefficient: consistent is
    False and offenders lists the (dimension, prime) witnesses.
    """

    basis: PrimeBasis
    t: int
    reference: int
    beta_z: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    consistent: bool
    offenders: tuple[tuple[int, int], ...]


def betti_table(
    mf: MultiFieldDiagram, t: int | None = None, d_max: int | None = None
) -> BettiTable:
    """Tabulate Betti numbers over every basis field at filtration index t.

    t defaults to the end of the filtration; d_max to the largest
    dimension present in the complex.  The classes alive at t are
    counted per (dimension, mask) over the diagram's arrays; each count
    then goes to every field whose prime divides the mask.
    """
    m = len(mf.index_dims)
    if t is None:
        t = m
    if not 0 <= t <= m:
        raise ValueError(f"index t must be in [0, {m}]")
    if d_max is None:
        d_max = int(mf.index_dims.max(initial=0))
    if d_max < 0:
        raise ValueError(f"d_max must be >= 0, got {d_max}")
    births, deaths, ids, masks = mf.births, mf.deaths, mf.ids, mf.masks
    dims = mf.index_dims[births - 1]
    alive = (births <= t) & ((deaths > t) | (deaths == 0)) & (dims <= d_max)
    rows = d_max + 1
    counts = np.bincount(dims[alive] * len(masks) + ids[alive], minlength=rows * len(masks))
    divides = np.array([[mask % q == 0 for q in mf.basis.primes] for mask in masks], dtype=np.int64)
    beta = counts.reshape(rows, len(masks)) @ divides.reshape(len(masks), mf.basis.r)
    return BettiTable(basis=mf.basis, t=t, beta=tuple(map(tuple, beta.tolist())))


def infer_torsion(table: BettiTable) -> IntegralProfile:
    """Run the UCT recurrence against a torsion-free reference field.

    The reference is the field of the largest prime whose column is least
    at every d, or else of the largest prime.  Each step takes one dimension
    over all fields; a negative count carries into the next as it is.
    """
    if not table.beta:
        raise ValueError("empty Betti table")
    primes = table.basis.primes
    beta = np.array(table.beta, dtype=np.int64)
    least = np.flatnonzero((beta == beta.min(axis=1, keepdims=True)).all(axis=0)).tolist()
    reference = max(least or range(len(primes)), key=primes.__getitem__) + 1
    excess = beta - beta[:, [reference - 1]]  # beta_d(Z/q) - beta_d(Z)
    torsion = np.zeros_like(beta)  # t(0, q) = 0: 0-homology is free
    for d in range(1, len(beta)):
        torsion[d] = excess[d] - torsion[d - 1]
    bad = torsion < 0
    bad[0] = excess[0] != 0  # H_0 is free: every beta_0 is beta_0(Z)
    offenders = tuple((d, primes[s]) for d, s in np.argwhere(bad).tolist())
    return IntegralProfile(
        basis=table.basis,
        t=table.t,
        reference=reference,
        beta_z=tuple(beta[:, reference - 1].tolist()),
        torsion=tuple(map(tuple, torsion.tolist())),
        consistent=not offenders,
        offenders=offenders,
    )


def group_string(profile: IntegralProfile, d: int) -> str:
    """Render H_d as e.g. `Z^2 + Z/2^*Z`, with unknown exponents as `*`."""
    parts = []
    b = profile.beta_z[d]
    if b == 1:
        parts.append("Z")
    elif b > 1:
        parts.append(f"Z^{b}")
    for q, count in zip(profile.basis.primes, profile.torsion[d]):
        parts.extend([f"Z/{q}^*Z"] * max(0, count))
    return " + ".join(parts) if parts else "0"


def torsion_report(profile: IntegralProfile) -> str:
    """Human-readable report: one `H_d = ...` line per dimension."""
    lines = [
        f"integral homology at index t={profile.t}"
        f" (reference prime {profile.basis.primes[profile.reference - 1]})"
    ]
    for d in range(len(profile.beta_z)):
        lines.append(f"H_{d} = {group_string(profile, d)}")
    if not profile.consistent:
        bad = ", ".join(f"(d={d}, q={q})" for d, q in profile.offenders)
        lines.append(
            "WARNING: inconsistent with a torsion-free reference field;"
            f" offending entries: {bad}"
        )
    return "\n".join(lines)


def torsion_csv_rows(profile: IntegralProfile) -> list[str]:
    """CSV body for the report; header `t,d,beta_Z,q,t_d_q`."""
    rows = ["t,d,beta_Z,q,t_d_q"]
    for d, (b, counts) in enumerate(zip(profile.beta_z, profile.torsion)):
        rows.extend(f"{profile.t},{d},{b},{q},{count}" for q, count in zip(profile.basis.primes, counts))
    return rows


def annotate_diagram(mf: MultiFieldDiagram) -> list[tuple[int, float, float, tuple[int, ...]]]:
    """Superimposed diagram points keyed by value, labeled with primes.

    Returns (dim, birth_value, death_value, primes) tuples where primes
    is the sorted union over all pairings at that location; essentials
    carry death_value = inf.  Points sort by (dim, birth, death).  The
    entries are grouped by location in numpy; a location whose entries
    carry more than one mask takes their lcm, which for squarefree masks
    is the union of their primes.
    """
    births, deaths, ids, masks = mf.births, mf.deaths, mf.ids, mf.masks
    values = np.append(mf.index_values, inf)  # index j at j-1, no death (0) at -1
    dims = mf.index_dims[births - 1]
    bvals, dvals = values[births - 1], values[deaths - 1]
    # stable: of entries at one location the first in the diagram leads,
    # so a location at -0.0 and 0.0 keeps the value it met first
    at = np.lexsort((dvals, bvals, dims))
    dims, bvals, dvals, ids = dims[at], bvals[at], dvals[at], ids[at]
    new = np.ones(len(at), dtype=bool)
    new[1:] = (dims[1:] != dims[:-1]) | (bvals[1:] != bvals[:-1]) | (dvals[1:] != dvals[:-1])
    lead = np.flatnonzero(new)
    located = [masks[i] for i in ids[lead].tolist()]
    # an entry whose mask differs from the one before it at its location
    joins = np.flatnonzero(~new & (ids != np.roll(ids, 1)))
    for g, i in zip((np.cumsum(new)[joins] - 1).tolist(), ids[joins].tolist()):
        located[g] = lcm(located[g], masks[i])
    # naming a mask tries every basis prime, while thousands of locations
    # in a Rips complex typically share one full mask
    names = {mask: tuple(sorted(mask_primes(mf.basis, mask))) for mask in set(located)}
    return list(
        zip(dims[lead].tolist(), bvals[lead].tolist(), dvals[lead].tolist(), map(names.__getitem__, located))
    )


@dataclass(frozen=True)
class WindowResult:
    """Normalized torsion windows over Linial-Meshulam trials.

    For each trial, torsion is alive at triangle count m when some
    birth index carries pairings with different deaths across fields;
    the union of those divergence intervals is the trial's window,
    reported by its edges normalized as n * m / C(n,3) - c_star.
    Trials without divergence contribute to empty_trials only.
    """

    n: int
    m_max: int
    r: int
    trials: int
    c_star: float
    seed: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    empty_trials: int


def five_number(xs) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with inclusive quartiles."""
    xs = sorted(xs)
    if not xs:
        raise ValueError("no data")
    if len(xs) == 1:
        x = xs[0]
        return (x, x, x, x, x)
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (xs[0], q1, med, q3, xs[-1])


def torsion_window(
    n: int,
    m_max: int | None,
    r: int,
    trials: int,
    c_star: float,
    seed: int = 0,
) -> WindowResult:
    """Locate torsion windows in random 2-complexes Y(n, m <= m_max).

    Each trial draws one Linial-Meshulam filtration and reduces it over
    the first r prime fields.  A birth whose pairings die at different
    times across fields (an essential counting as death past m_max)
    witnesses torsion precisely for m from its earliest death value to
    one step before its latest; the window is the union's hull.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isfinite(c_star):
        raise ValueError(f"c_star must be finite, got {c_star}")
    if m_max is None:
        m_max = comb(n, 3)
    if not 1 <= m_max <= comb(n, 3):
        raise ValueError(f"m_max must be in [1, C(n,3)] = [1, {comb(n, 3)}]")
    rng = random.Random(seed)
    basis = PrimeBasis.first(r)
    scale = n / comb(n, 3)
    lower: list[float] = []
    upper: list[float] = []
    empty = 0
    for _ in range(trials):
        cx = linial_meshulam(n, m_max, rng.randrange(2**63))
        mf, _stats = reduce_multifield(cx, basis)
        # a birth index with more than one entry dies at different values
        # in different fields, an essential at m_max + 1
        torsion = np.bincount(mf.births)[mf.births] > 1
        if not torsion.any():
            empty += 1
            continue
        died = np.where(mf.deaths > 0, mf.index_values[mf.deaths - 1], m_max + 1.0)[torsion]
        lower.append(scale * float(died.min()) - c_star)
        upper.append(scale * min(float(died.max()) - 1.0, float(m_max)) - c_star)
    return WindowResult(
        n=n,
        m_max=m_max,
        r=r,
        trials=trials,
        c_star=c_star,
        seed=seed,
        lower=tuple(lower),
        upper=tuple(upper),
        empty_trials=empty,
    )


WINDOW_CSV_HEADER = "n,m_max,r,trials,c_star,edge,min,q1,median,q3,max"


def window_csv_rows(results) -> list[str]:
    """Five-number summary per window edge, one lower and one upper row per n."""
    rows = [WINDOW_CSV_HEADER]
    for res in results:
        for name, data in (("lower", res.lower), ("upper", res.upper)):
            if not data:
                continue
            stats = ",".join(f"{x:.6f}" for x in five_number(data))
            rows.append(
                f"{res.n},{res.m_max},{res.r},{res.trials},{res.c_star},"
                f"{name},{stats}"
            )
    return rows


def window_text(res: WindowResult) -> str:
    lines = [
        f"Y(n={res.n}, m<={res.m_max}) over first {res.r} primes,"
        f" {res.trials} trials, seed {res.seed}",
        f"normalized edge = n*m/C(n,3) - c_star with c_star = {res.c_star}",
        f"trials with torsion: {res.trials - res.empty_trials},"
        f" without: {res.empty_trials}",
    ]
    for name, data in (("lower", res.lower), ("upper", res.upper)):
        if data:
            mn, q1, med, q3, mx = five_number(data)
            lines.append(
                f"{name} edge: min {mn:.4f}, q1 {q1:.4f}, median {med:.4f},"
                f" q3 {q3:.4f}, max {mx:.4f}"
            )
    return "\n".join(lines)
