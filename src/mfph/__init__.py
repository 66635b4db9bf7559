"""Persistent homology over many prime fields at once.

One matrix reduction over Z/(q_1 ... q_r)Z recovers the persistence
diagrams over every Z/q_sZ simultaneously; comparing them through the
universal coefficient theorem exposes integral Betti numbers and the
primes of torsion summands.
"""

from .bench import (
    BenchReport,
    WindowResult,
    lambda_bound,
    run_bench,
    torsion_window,
)
from .complexes import (
    FilteredComplex,
    boundary_column,
    column_axpy,
    column_scale,
    load_filtration,
    low_extended,
    partial_negate,
    partial_swap,
    save_filtration,
)
from .crt import (
    InconsistencyError,
    PrimeBasis,
    bezout,
    crt_combine,
    crt_project,
    first_primes,
    is_prime,
    mask_primes,
    partial_identity,
    partial_inverse,
    word_length,
)
from .generators import (
    distance_matrix,
    linial_meshulam,
    load_distance_matrix,
    load_points,
    minimal_projective_plane,
    random_flag,
    rips_filtration,
    sample_shape,
    save_points,
)
from .multifield import (
    MultiFieldDiagram,
    ReduceStats,
    project_diagram,
    reconstruct_cycle,
    reduce_multifield,
    save_multifield_diagram,
)
from .single_field import (
    FieldDiagram,
    betti_at,
    reduce_single_field,
    save_field_diagram,
)
from .torsion import (
    BettiTable,
    IntegralProfile,
    annotate_diagram,
    betti_table,
    group_string,
    infer_torsion,
    torsion_report,
)

__version__ = "0.1.0"
