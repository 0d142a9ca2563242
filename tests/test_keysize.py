import pytest

from rankmetric import (build_table, crypto_row, key_size_kb, max_errors,
                        reference_table, wf_dec, wf_error, wf_struc)

# reference table: sl, type, n, k, lambda, t', wf_dec, wf_struc, wf_e, KB
EXPECTED_ROWS = [
    (256, "conv", 96, 48, 4, 6, 259.75, 298.75, 1117.77, 27.65),
    (256, "sym", 80, 40, 5, 7, 258.97, 322.97, 539.53, 16.00),
    (256, "sp-sym", 83, 41, 4, 7, 265.13, 259.13, 581.00, 17.87),
    (192, "conv", 88, 44, 4, 5, 195.38, 274.38, 856.75, 21.30),
    (192, "sym", 62, 31, 4, 7, 203.86, 194.86, 413.53, 7.45),
    (192, "sp-sym", 71, 35, 4, 6, 193.45, 222.45, 426.00, 11.18),
    (128, "conv", 59, 29, 3, 5, 133.65, 131.65, 566.75, 6.41),
    (128, "sym", 49, 24, 4, 6, 136.84, 154.84, 279.53, 3.68),
    (128, "sp-sym", 58, 29, 3, 6, 162.57, 129.57, 348.00, 6.10),
]


def test_max_errors_examples():
    assert max_errors("conv", 96, 48) == 24
    assert max_errors("sym", 80, 40) == 39
    assert max_errors("sp-sym", 83, 41) == 28
    with pytest.raises(ValueError):
        max_errors("foo", 8, 2)
    with pytest.raises(ValueError):
        max_errors("conv", 8, 8)


def test_wf_dec_examples():
    assert abs(wf_dec(96, 48, 6) - 259.75) < 0.01
    assert abs(wf_dec(80, 40, 7) - 258.97) < 0.01
    assert abs(wf_dec(59, 29, 5) - 133.65) < 0.01
    with pytest.raises(ValueError):
        wf_dec(96, 48, 0)


def test_wf_struc_examples():
    assert abs(wf_struc(96, 4) - 298.75) < 0.01
    assert abs(wf_struc(62, 4) - 194.86) < 0.01
    import math
    assert abs(wf_struc(50, 1) - 3 * math.log2(50)) < 1e-12


def test_wf_error_examples():
    assert abs(wf_error("conv", 96, 6) - 1117.77) < 0.01
    assert abs(wf_error("sym", 80, 7) - 539.53) < 0.01
    assert abs(wf_error("sp-sym", 83, 7) - 581.00) < 0.01


def test_key_size_examples():
    assert abs(key_size_kb(96, 48) - 27.65) < 0.01
    assert abs(key_size_kb(80, 40) - 16.00) < 1e-9
    assert abs(key_size_kb(59, 29) - 6.41) < 0.01


def test_key_size_symmetry():
    for n, k in ((96, 48), (59, 29), (83, 41)):
        assert key_size_kb(n, k) == key_size_kb(n, n - k)


def test_reference_table_reproduces_all_cells():
    rows = reference_table()
    assert len(rows) == 9
    for row, exp in zip(rows, EXPECTED_ROWS):
        sl, kind, n, k, lam, tp, wd, ws, we, kb = exp
        assert (row.sl, row.kind, row.n, row.k, row.lam) == (sl, kind, n, k, lam)
        assert row.tprime == tp
        assert abs(row.wf_dec - wd) <= 0.01
        assert abs(row.wf_struc - ws) <= 0.01
        assert abs(row.wf_e - we) <= 0.01
        assert abs(row.keysize_kb - kb) <= 0.01
        assert row.ok  # min work factor reaches the target level


def test_build_table_empty():
    assert build_table([]) == []


def test_row_flagging():
    # deliberately underpowered parameters get flagged
    row = crypto_row(256, "conv", 32, 16, 2)
    assert not row.ok


def test_inputs_read_as_counts_and_field_orders():
    for call, what in ((lambda: max_errors("conv", 8.0, 2), "n 8.0"),
                       (lambda: max_errors("conv", 8, 2.0), "k 2.0"),
                       (lambda: wf_dec(8, 2, 1.5), "tprime 1.5"),
                       (lambda: wf_struc(8, 2.0), "lambda 2.0"),
                       (lambda: key_size_kb(10.0, 5), "n 10.0"),
                       (lambda: crypto_row(128.0, "conv", 32, 16, 2),
                        "sl 128.0")):
        with pytest.raises(ValueError, match=f"{what} is not an integer"):
            call()
    for call in (lambda: key_size_kb(10, 5, 6), lambda: wf_dec(8, 2, 2, 6),
                 lambda: wf_struc(8, 2, 6), lambda: wf_dec(8, 2, 2, 1),
                 lambda: crypto_row(128, "conv", 32, 16, 2, 6)):
        with pytest.raises(ValueError, match="is not a prime power"):
            call()


def test_work_factors_reject_inputs_they_cannot_serve():
    # wf_dec(8, 9, 3) gave 27.0, wf_dec(8, -2, 3) 5.0 and wf_struc(4, 10)
    # -39.0 bits; n = 0 raised a bare math domain error
    for call, what in ((lambda: wf_dec(8, 9, 3), "k=9, n=8"),
                       (lambda: wf_dec(8, -2, 3), "k=-2, n=8"),
                       (lambda: wf_dec(0, 2, 1), "k=2, n=0"),
                       (lambda: wf_dec(8, 2, 9), "tprime=9, n=8"),
                       (lambda: wf_struc(4, 10), "lambda=10, n=4"),
                       (lambda: wf_struc(0, 2), "lambda=2, n=0")):
        with pytest.raises(ValueError, match=what):
            call()
    # the edges still serve
    assert wf_dec(8, 7, 8) == 3 * 3 + 7 * 7
    assert wf_struc(4, 4) == 3 * 2 + 3


def test_crypto_row_rejects_security_levels_below_one():
    # crypto_row(-5, "conv", 20, 10, 2) returned a row with ok=True
    for sl in (0, -5):
        with pytest.raises(ValueError, match=f"sl must be >= 1, got sl={sl}"):
            crypto_row(sl, "conv", 20, 10, 2)
    assert crypto_row(1, "conv", 20, 10, 2).ok


def test_tprime_consistency():
    for row in reference_table():
        assert row.tprime == max_errors(row.kind, row.n, row.k) // row.lam


def test_wf_error_monotone():
    for kind in ("conv", "sym", "sp-sym"):
        grid = [wf_error(kind, 40, tp) for tp in range(1, 8)]
        assert grid == sorted(grid)
        by_n = [wf_error(kind, n, 5) for n in range(20, 60, 10)]
        assert by_n == sorted(by_n)
