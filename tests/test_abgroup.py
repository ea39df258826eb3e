import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import det_cofactor, gcd_of_k_minors, smith_normal_form_reference
from uniloc.abgroup import (GroupStructure, IntMatrix, cokernel_structure, det,
                            smith_normal_form)
from uniloc.errors import InputError


def snf_checked(rows):
    M = IntMatrix.from_rows(rows)
    D, U, W = smith_normal_form(M)
    assert (U @ M) @ W == D
    assert abs(det_cofactor(U.to_rows())) == 1
    assert abs(det_cofactor(W.to_rows())) == 1
    diag = D.diagonal()
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert D.at(i, j) == 0
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x]
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # zeros only after the nonzero part
    assert diag[:len(nz)] == nz
    return D, U, W


class TestIntMatrix:
    def test_from_rows_and_at(self):
        M = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert M.at(0, 1) == 2
        assert M.to_rows() == [[1, 2], [3, 4]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_entry_count_must_match(self):
        with pytest.raises(InputError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_non_integer_entries_rejected(self):
        with pytest.raises(InputError):
            IntMatrix(1, 2, (1, 2.5))

    def test_matmul_shape_mismatch(self):
        A = IntMatrix.from_rows([[1, 2]])
        with pytest.raises(InputError):
            A @ A

    def test_identity(self):
        I2 = IntMatrix.identity(2)
        M = IntMatrix.from_rows([[5, 7], [1, -3]])
        assert I2 @ M == M
        assert M @ I2 == M


def test_det_matches_cofactor_expansion():
    rng = random.Random(411)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix.from_rows(rows)) == det_cofactor(rows)


def test_det_rejects_non_square():
    with pytest.raises(InputError):
        det(IntMatrix.from_rows([[1, 2]]))


def test_snf_divisibility_example():
    D, _, _ = snf_checked([[2, 4], [6, 8]])
    assert D.to_rows() == [[2, 0], [0, 4]]


def test_snf_zero_matrix():
    D, _, _ = snf_checked([[0, 0], [0, 0]])
    assert D.diagonal() == [0, 0]


def test_snf_empty_shapes():
    for M in (IntMatrix(0, 3, ()), IntMatrix(3, 0, ()), IntMatrix(0, 0, ())):
        D, U, W = smith_normal_form(M)
        assert D.rows == M.rows and D.cols == M.cols
    assert cokernel_structure(IntMatrix(0, 3, ())) == GroupStructure(3, ())


def test_snf_keeps_smith_form_input():
    # a matrix already in Smith normal form needs no row or column operation
    for rows in ([[1, 0, 0], [0, 2, 0], [0, 0, 6]], [[0, 0, 0], [0, 0, 0]],
                 [[2, 0, 0], [0, 0, 0]], [[1, 0], [0, 4], [0, 0]], [[3]]):
        D, U, W = snf_checked(rows)
        assert D.to_rows() == rows
        assert U == IntMatrix.identity(len(rows))
        assert W == IntMatrix.identity(len(rows[0]))


def degenerate(rng, rows):
    # zero a row or a column, or overwrite a row with a row or a sum of two
    n, m = len(rows), len(rows[0])
    for _ in range(rng.randint(0, 2)):
        i, k, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        edit = rng.randrange(4)
        if edit == 0:
            rows[i] = [0] * m
        elif edit == 1:
            j = rng.randrange(m)
            for row in rows:
                row[j] = 0
        elif edit == 2:
            rows[i] = list(rows[k])
        else:
            rows[i] = [x + y for x, y in zip(rows[k], rows[l])]
    return rows


def test_snf_determinantal_divisors():
    # d_1 * ... * d_k equals the gcd of all k x k minors, on rectangular and
    # rank-deficient shapes up to 6 x 6, where some columns hold no pivot
    rng = random.Random(1009)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = degenerate(rng, [[rng.randint(-12, 12) for _ in range(m)] for _ in range(n)])
        D, _, _ = snf_checked(rows)
        diag = D.diagonal()
        prod = 1
        for k in range(1, min(n, m) + 1):
            prod *= diag[k - 1]
            assert prod == gcd_of_k_minors(rows, k)


@pytest.mark.parametrize("n", [30, 40, 50])
def test_snf_transforms_stay_the_size_of_the_answer(n):
    # no entry of U or W has more bits than the Hadamard bound of M times
    # |det M|; the diagonal loop alone, run on M, gives U 2170 bits at n = 30
    rng = random.Random(n)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    M = IntMatrix.from_rows(rows)
    D, U, W = smith_normal_form(M)
    assert (U @ M) @ W == D
    hadamard = math.isqrt(math.prod(sum(x * x for x in row) for row in rows)) + 1
    bound = hadamard.bit_length() + abs(det(M)).bit_length()
    for T in (U, W):
        assert max(abs(x).bit_length() for x in T.entries) <= bound


def same_as_reference(n, m, rows):
    D, U, W = smith_normal_form(IntMatrix(n, m, tuple(x for r in rows for x in r)))
    assert (D.to_rows(), U.to_rows(), W.to_rows()) == smith_normal_form_reference(rows, m)


class TestSnfReferenceSchedule:
    """Each operation over its nonzero span of [M | U] gives the D, U and W
    of the same schedule run over whole rows of separate M and U."""

    def test_small_degenerate_shapes(self):
        rng = random.Random(4111)
        for _ in range(400):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = degenerate(rng, [[rng.randint(-12, 12) for _ in range(m)] for _ in range(n)])
            same_as_reference(n, m, rows)

    @pytest.mark.parametrize("n", [10, 20, 30, 40])
    def test_seeded_square(self, n):
        rng = random.Random(n)
        same_as_reference(n, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_empty_shapes(self, m):
        same_as_reference(0, m, [])
        same_as_reference(m, 0, [[] for _ in range(m)])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-40, 40), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda rs: len({len(r) for r in rs}) == 1))
def test_snf_transform_identity_property(rows):
    snf_checked(rows)


def test_cokernel_structures():
    assert cokernel_structure(IntMatrix.from_rows([[1, 1]])) == GroupStructure(1, ())
    assert cokernel_structure(IntMatrix.from_rows([[2]])) == GroupStructure(0, (2,))
    assert cokernel_structure(IntMatrix.from_rows([[3, 0], [0, 0]])) == \
        GroupStructure(1, (3,))
    assert cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3]])) == \
        GroupStructure(0, (6,))
    assert repr(GroupStructure(1, (3,))) == "Z + Z/3"
    assert repr(GroupStructure(0, ())) == "0"


def test_group_structure_validation():
    with pytest.raises(InputError):
        GroupStructure(-1, ())
    with pytest.raises(InputError):
        GroupStructure(0, (1,))
    with pytest.raises(InputError):
        GroupStructure(0, (4, 6))  # 4 does not divide 6
