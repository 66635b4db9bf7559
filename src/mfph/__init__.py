"""Persistent homology over many prime fields at once.

One matrix reduction over Z/(q_1 ... q_r)Z recovers the persistence
diagrams over every Z/q_sZ simultaneously; comparing them through the
universal coefficient theorem exposes integral Betti numbers and the
primes of torsion summands.  The submodules hold the full API; the
names below are the ones the README's library example uses.
"""

from .crt import PrimeBasis
from .generators import minimal_projective_plane
from .multifield import reduce_multifield
from .torsion import betti_table, group_string, infer_torsion

__version__ = "0.1.0"
