"""Rank-metric coding toolkit.

Gabidulin codes built on weak self-orthogonal bases, a joint-syndrome
decoder for errors whose row and column spaces coincide, exact counting of
structured error ensembles, a seeded Monte Carlo failure-rate harness, and
work-factor/key-size calculators for a Gabidulin-based cryptosystem variant.
"""

from .channel import SpaceSymError, count_rank, count_space_symmetric, \
    count_symmetric, gaussian_binomial, sample_full_rank, \
    sample_space_symmetric
from .code import GabidulinCode
from .decoder import DecodeOutcome, InterleavedOutcome, decode, \
    interleaved_decode
from .field import FieldCtx, make_field
from .keysize import CryptoRow, build_table, crypto_row, key_size_kb, \
    max_errors, reference_table, wf_dec, wf_error, wf_struc
from .linalg import fq_matmul, moore_matrix, phi_inv, vector_rank
from .simulate import SimConfig, SimReport, failure_bound, \
    intersection_probability, run_scenario, wilson95
from .wso import find_wso_basis, is_weak_self_orthogonal

__all__ = [
    "CryptoRow", "DecodeOutcome", "FieldCtx", "GabidulinCode",
    "InterleavedOutcome", "SimConfig", "SimReport", "SpaceSymError",
    "build_table", "count_rank", "count_space_symmetric", "count_symmetric",
    "crypto_row", "decode", "failure_bound", "find_wso_basis", "fq_matmul",
    "gaussian_binomial", "interleaved_decode", "intersection_probability",
    "is_weak_self_orthogonal", "key_size_kb", "make_field", "max_errors",
    "moore_matrix", "phi_inv", "reference_table", "run_scenario",
    "sample_full_rank", "sample_space_symmetric", "vector_rank", "wf_dec",
    "wf_error", "wf_struc", "wilson95",
]

__version__ = "0.1.0"
