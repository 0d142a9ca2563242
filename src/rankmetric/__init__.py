"""Rank-metric coding toolkit.

Gabidulin codes built on weak self-orthogonal bases, a joint-syndrome
decoder for errors whose row and column spaces coincide, exact counting of
structured error ensembles, a seeded Monte Carlo failure-rate harness, and
work-factor/key-size calculators for a Gabidulin-based cryptosystem variant.
"""

from .channel import CountResult, SpaceSymError, count_rank, \
    count_space_symmetric, count_symmetric, gaussian_binomial, \
    sample_full_rank, sample_space_symmetric, sample_symmetric_invertible, \
    sample_uniform_invertible
from .code import GabidulinCode
from .decoder import DecodeOutcome, InterleavedOutcome, \
    build_syndrome_matrix, decode, interleaved_decode, \
    key_equation_remainder
from .field import FieldCtx, make_field
from .keysize import CryptoRow, build_table, crypto_row, key_size_kb, \
    max_errors, reference_table, wf_dec, wf_error, wf_struc
from .linalg import InconsistentSystemError, fq_kernel, fq_matmul, fq_rank, \
    fq_transpose, fqn_kernel, fqn_rank, fqn_solve, moore_matrix, phi, \
    phi_inv, transpose_vector, vector_rank
from .linpoly import lin_compose_mod, lin_eval, lin_normalize, lin_qdeg, \
    min_subspace_poly
from .simulate import SimConfig, SimReport, failure_bound, \
    intersection_probability, run_scenario, wilson95
from .wso import WsoBasis, find_wso_basis, is_weak_self_orthogonal

__all__ = [
    "CountResult", "CryptoRow", "DecodeOutcome", "FieldCtx", "GabidulinCode",
    "InconsistentSystemError", "InterleavedOutcome", "SimConfig", "SimReport",
    "SpaceSymError", "WsoBasis", "build_syndrome_matrix", "build_table",
    "count_rank", "count_space_symmetric", "count_symmetric", "crypto_row",
    "decode", "failure_bound", "find_wso_basis", "fq_kernel", "fq_matmul",
    "fq_rank", "fq_transpose", "fqn_kernel", "fqn_rank",
    "fqn_solve", "gaussian_binomial", "interleaved_decode",
    "intersection_probability", "is_weak_self_orthogonal",
    "key_equation_remainder", "key_size_kb", "lin_compose_mod", "lin_eval",
    "lin_normalize", "lin_qdeg", "make_field", "max_errors",
    "min_subspace_poly", "moore_matrix", "reference_table", "phi", "phi_inv",
    "run_scenario",
    "sample_full_rank", "sample_space_symmetric",
    "sample_symmetric_invertible", "sample_uniform_invertible",
    "transpose_vector", "vector_rank", "wf_dec", "wf_error", "wf_struc",
    "wilson95",
]

__version__ = "0.1.0"
