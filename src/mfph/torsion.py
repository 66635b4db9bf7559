"""Integral Betti numbers and torsion counts from multi-field diagrams.

The universal coefficient theorem gives, for each prime field Z/qZ,

    beta_d(Z/qZ) = beta_d(Z) + t(d, q) + t(d-1, q)

where t(d, q) counts the Z/q^kZ summands of the integral d-homology.
Reading beta_d(Z) off a reference field whose prime exceeds every
torsion prime turns this into a recurrence for the t(d, q), starting
from t(0, q) = 0 since 0-homology is free.  Exponents k are not
recoverable from field Betti numbers and are rendered as q^*.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .crt import PrimeBasis, mask_primes
from .multifield import MultiFieldDiagram

__all__ = [
    "BettiTable",
    "IntegralProfile",
    "annotate_diagram",
    "betti_table",
    "group_string",
    "infer_torsion",
    "torsion_csv_rows",
    "torsion_report",
]


@dataclass(frozen=True)
class BettiTable:
    """beta[d][s-1] = dimension-d Betti number over field s, at index t."""

    basis: PrimeBasis
    t: int
    d_max: int
    beta: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntegralProfile:
    """Inferred integral Betti numbers and per-prime torsion counts.

    torsion[d][s-1] counts Z/q_s^*Z summands in dimension d.  When any
    count would be negative, or dimension 0 disagrees across fields,
    the reference-prime assumption failed: consistent is False and
    offenders lists the (dimension, prime) witnesses.
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
    dimension present in the complex.  One sweep over the triples and
    essentials counts the classes alive at t per (dimension, mask); each
    count then goes to every field whose prime divides the mask.
    """
    m = len(mf.index_dims)
    if t is None:
        t = m
    if not 0 <= t <= m:
        raise ValueError(f"index t must be in [0, {m}]")
    if d_max is None:
        d_max = max(mf.index_dims, default=0)
    dims = mf.index_dims
    live: dict[tuple[int, int], int] = {}
    for birth, death, mask in mf.triples:
        if birth <= t < death:
            key = (dims[birth - 1], mask)
            live[key] = live.get(key, 0) + 1
    for birth, mask in mf.essentials:
        if birth <= t:
            key = (dims[birth - 1], mask)
            live[key] = live.get(key, 0) + 1
    rows = [[0] * mf.basis.r for _ in range(d_max + 1)]
    for (d, mask), count in live.items():
        if d <= d_max:
            row = rows[d]
            for s, q in enumerate(mf.basis.primes):
                if mask % q == 0:
                    row[s] += count
    return BettiTable(
        basis=mf.basis, t=t, d_max=d_max, beta=tuple(tuple(row) for row in rows)
    )


def infer_torsion(table: BettiTable, reference: int | None = None) -> IntegralProfile:
    """Run the UCT recurrence against a torsion-free reference field.

    reference is a 1-based field index, defaulting to the field of the
    largest prime in the basis.
    """
    r = table.basis.r
    if reference is None:
        reference = max(range(1, r + 1), key=lambda s: table.basis.primes[s - 1])
    if not 1 <= reference <= r:
        raise ValueError(f"reference field must be in [1, {r}]")
    if not table.beta:
        raise ValueError("empty Betti table")
    beta_z = tuple(row[reference - 1] for row in table.beta)
    offenders: list[tuple[int, int]] = []
    torsion: list[tuple[int, ...]] = []
    prev = [0] * r
    for d in range(table.d_max + 1):
        row = []
        for s in range(1, r + 1):
            if d == 0:
                t_ds = 0
                if table.beta[0][s - 1] != beta_z[0]:
                    offenders.append((0, table.basis.primes[s - 1]))
            else:
                t_ds = table.beta[d][s - 1] - beta_z[d] - prev[s - 1]
                if t_ds < 0:
                    offenders.append((d, table.basis.primes[s - 1]))
            row.append(t_ds)
        torsion.append(tuple(row))
        prev = row
    return IntegralProfile(
        basis=table.basis,
        t=table.t,
        reference=reference,
        beta_z=beta_z,
        torsion=tuple(torsion),
        consistent=not offenders,
        offenders=tuple(offenders),
    )


def group_string(profile: IntegralProfile, d: int) -> str:
    """Render H_d as e.g. `Z^2 + Z/2^*Z`, with unknown exponents as `*`."""
    parts = []
    b = profile.beta_z[d]
    if b == 1:
        parts.append("Z")
    elif b > 1:
        parts.append(f"Z^{b}")
    for s in range(1, profile.basis.r + 1):
        q = profile.basis.primes[s - 1]
        parts.extend([f"Z/{q}^*Z"] * max(0, profile.torsion[d][s - 1]))
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
    for d in range(len(profile.beta_z)):
        for s in range(1, profile.basis.r + 1):
            rows.append(
                f"{profile.t},{d},{profile.beta_z[d]},"
                f"{profile.basis.primes[s - 1]},{profile.torsion[d][s - 1]}"
            )
    return rows


def annotate_diagram(mf: MultiFieldDiagram) -> list[tuple[int, float, float, tuple[int, ...]]]:
    """Superimposed diagram points keyed by value, labeled with primes.

    Returns (dim, birth_value, death_value, primes) tuples where primes
    is the sorted union over all pairings at that location; essentials
    carry death_value = inf.  Points sort by (dim, birth, death).
    """
    # masks are squarefree, so the lcm of two is the union of their primes
    located: dict[tuple[int, float, float], int] = {}
    for birth, death, mask in mf.triples:
        key = (
            mf.index_dims[birth - 1],
            mf.index_values[birth - 1],
            mf.index_values[death - 1],
        )
        located[key] = lcm(located.get(key, 1), mask)
    inf = float("inf")
    for birth, mask in mf.essentials:
        key = (mf.index_dims[birth - 1], mf.index_values[birth - 1], inf)
        located[key] = lcm(located.get(key, 1), mask)
    # naming a mask tries every basis prime, while thousands of locations
    # in a Rips complex typically share one full mask
    names: dict[int, tuple[int, ...]] = {}
    for mask in located.values():
        if mask not in names:
            names[mask] = tuple(sorted(mask_primes(mf.basis, mask)))
    return [(dim, bv, dv, names[mask]) for (dim, bv, dv), mask in sorted(located.items())]
