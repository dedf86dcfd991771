"""Exact classification of 3-braids from 3-body motions on Lissajous curves."""

from .algebra import (
    A_MAT,
    AbWord,
    Perm3,
    Psl2Mat,
    a_conjugate,
    ab_to_frieze,
    cyclically_equal,
    frieze_to_matrix,
    frieze_w,
    reduce_frieze,
    s3_image,
    second_half,
    trace_class,
)
from .classify import (
    ClusterSeq,
    LevelSlope,
    class_equal,
    clusters_of,
    enumerate_labels,
    enumerate_p0,
    level_slope_of,
    radii_of,
    type_of,
)
from .lissajous import (
    EpsSeq,
    NormalizedType,
    build_H,
    build_W,
    epsilon_seq,
    is_collision_free,
    is_primitive,
    normalize,
    reduce_to_p0,
    reduce_to_p0_detail,
)
from .report import Report, build_report
from .surd import (
    CfExpansion,
    QuadSurd,
    cf_expand,
    cf_evaluate,
    dilatation,
    far_endpoint,
    fixed_points,
    matches_cluster_period,
)
from .syzygy import is_reduced, omega, syzygy_sequence
from .words import (
    christoffel,
    cluster_lengths,
    difference_seq,
    palindromic_christoffel,
    palindromic_conjugate,
    phi_n,
    varphi_n,
)

__version__ = "0.1.0"
