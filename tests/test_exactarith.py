import random
from fractions import Fraction

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tropcay.exactarith import (
    DimensionError,
    basis_coordinates_int,
    clear_denominators,
    coords_in_row_basis,
    det_int,
    format_rational,
    lattice_row_basis,
    parse_rational,
    solve_rational,
)
from oracles import kernel_vector_int, rank_int


def test_parse_and_format_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    for s in ["0", "12/5", "-9/2", "4"]:
        assert format_rational(parse_rational(s)) == s


def test_rational_field_roundtrips():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_determinant_identity():
    assert det_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_int([]) == 1


def test_determinant_zero_matrix():
    assert det_int([[0, 0], [0, 0]]) == 0


def test_determinant_diagonal():
    assert det_int([[2, 0, 0], [0, 2, 0], [0, 0, 2]]) == 8


def test_determinant_rejects_non_square():
    with pytest.raises(DimensionError):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_determinant_alternating_on_random_matrices():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = [row[:] for row in rows]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_int(rows) == -det_int(swapped)


def test_solve_rational_and_singular():
    x = solve_rational([[2, 1], [1, 3]], [5, 10])
    assert x == [Fraction(1), Fraction(3)]
    assert solve_rational([[1, 2], [2, 4]], [1, 1]) is None


def test_rank():
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0, 0], [0, 0]]) == 0


def test_kernel_vector():
    # columns (1,1), (2,2), kernel spanned by (2,-1)
    v = kernel_vector_int([(1, 1), (2, 2)])
    assert v == (2, -1)
    assert kernel_vector_int([(1, 0), (0, 1)]) is None


def test_lattice_row_basis_and_coords():
    basis = lattice_row_basis([[2, 0], [0, 2], [1, 1]])
    # lattice is {(a, b): a + b even}, index 2 in Z^2
    assert len(basis) == 2
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == 2
    assert coords_in_row_basis(basis, [3, 1]) is not None
    assert coords_in_row_basis(basis, [1, 0]) is None


def test_lattice_basis_of_diagonal_segment():
    basis = lattice_row_basis([[1, 1]])
    assert basis == [[1, 1]]
    assert coords_in_row_basis(basis, [4, 4]) == [4]


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
    assert clear_denominators([3, 0, -5]) == ([3, 0, -5], 1)


# -- the fraction-free kernel against the Fraction oracles ------------------

_SMALL = st.integers(-4, 4)
_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_MIXED = st.one_of(_SMALL, _RATIONAL)


@st.composite
def matrices(draw, square=False, rational=None, max_rows=7):
    """Up to 7x8 matrices with zero rows/columns, copied and combined rows,
    and (optionally) Fraction entries."""
    m = draw(st.integers(1, max_rows))
    n = m if square else draw(st.integers(1, 8))
    if rational is None:
        rational = draw(st.booleans())
    entry = _MIXED if rational else _SMALL
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        return rows  # unstructured: usually of full rank
    for i in range(m):
        kind = draw(st.sampled_from(["random", "zero", "copy", "combination"]))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "copy" and i:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
        elif kind == "combination" and i:
            j = draw(st.integers(0, i - 1))
            k = draw(st.integers(0, i - 1))
            s, t = draw(_SMALL), draw(_SMALL)
            rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    for c in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    return rows


@st.composite
def square_systems(draw):
    """(A, b), A square, with b either arbitrary or A x for some x (consistent)."""
    rows = draw(matrices(square=True))
    if draw(st.booleans()):
        x = draw(st.lists(_MIXED, min_size=len(rows[0]), max_size=len(rows[0])))
        b = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]
    else:
        b = draw(st.lists(_MIXED, min_size=len(rows), max_size=len(rows)))
    return rows, b


_PROPERTY = settings(max_examples=300, deadline=None)


@_PROPERTY
@given(square_systems())
def test_solve_rational_matches_oracle_on_square_input(system):
    rows, b = system
    singular = len(oracles.nullspace_basis(rows)) > 0
    expected = None if singular else oracles.solve_general(rows, b)
    assert solve_rational(rows, b) == expected


@_PROPERTY
@given(matrices())
def test_kernel_vector_is_primitive_and_in_the_kernel(rows):
    cols = [tuple(col) for col in zip(*rows)]
    dim = len(oracles.nullspace_basis(rows))
    if dim >= 2:
        with pytest.raises(ValueError):
            kernel_vector_int(cols)
        return
    v = kernel_vector_int(cols)
    if dim == 0:
        assert v is None
        return
    assert all(isinstance(x, int) for x in v)
    assert gcd(*v) == 1
    assert next(x for x in v if x) > 0
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@_PROPERTY
@given(matrices(rational=False))
def test_basis_coordinates_match_oracle_solves(rows):
    # k rows: the first k columns are the basis, each column is solved in it
    k = len(rows)
    if len(rows[0]) < k:
        rows = [row + [0] * (k - len(row)) for row in rows]
    cols = [tuple(col) for col in zip(*rows)]
    basis = [row[:k] for row in rows]
    solved = basis_coordinates_int(cols)
    if oracles.nullspace_basis(basis):
        assert solved is None
        return
    d, a = solved
    assert abs(d) == abs(det_int(basis))
    for j, col in enumerate(cols):
        assert [Fraction(a[i][j], d) for i in range(k)] == oracles.solve_general(basis, col)


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


@_PROPERTY
@given(matrices(square=True, rational=False, max_rows=4))
def test_det_int_matches_cofactor_expansion(rows):
    assert det_int(rows) == _cofactor_det(rows)
