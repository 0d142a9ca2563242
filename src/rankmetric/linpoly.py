"""Linearized polynomials over F_{q^n}; no code is left here.

The decoder works on its span polynomial's coefficients directly, and
evaluation, composition and minimal subspace polynomials are test
references (tests/oracles.py).  The module stays until the benchmark
repair because the benchmark's tracer imports every layer it lists.
"""
