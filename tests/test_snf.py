import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from depthzero.snf import (
    SublatticeError,
    diagonal,
    kernel_basis,
    lattice_basis,
    mat_mul,
    quotient_structure,
    smith_normal_form,
    solve_exact,
)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(m=matrices)
def test_snf_invariant_factors_match_sympy(m):
    theirs = sympy_smith_normal_form(Matrix(m), domain=ZZ)
    ours = diagonal(smith_normal_form(m)[0])
    assert [abs(d) for d in ours] == [abs(int(theirs[i, i])) for i in range(len(ours))]


@settings(max_examples=120, deadline=None)
@given(m=matrices)
def test_snf_transformation_identities(m):
    rows, cols = len(m), len(m[0])
    d, u, v, uinv = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert mat_mul(u, uinv) == _identity(rows)
    assert mat_mul(uinv, u) == _identity(rows)
    assert Matrix(v).det() in (1, -1)  # V is unimodular
    diag = diagonal(d)
    for i in range(len(diag)):
        assert diag[i] >= 0
        if i + 1 < len(diag) and diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # off-diagonal entries vanish
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0


@settings(max_examples=80, deadline=None)
@given(m=matrices)
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m):
        assert all(
            sum(m[i][j] * vec[j] for j in range(len(vec))) == 0 for i in range(len(m))
        )


@settings(max_examples=80, deadline=None)
@given(m=matrices, x=st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_recovers_images(m, x):
    cols = len(m[0])
    x = x[:cols]
    b = [sum(m[i][j] * x[j] for j in range(cols)) for i in range(len(m))]
    sol = solve_exact(m, b)
    assert sol is not None
    assert [sum(m[i][j] * sol[j] for j in range(cols)) for i in range(len(m))] == b


def test_solve_detects_no_solution():
    assert solve_exact([[2, 0], [0, 2]], [1, 0]) is None


def test_lattice_basis_spans():
    basis = lattice_basis([[2, 0], [0, 3], [2, 3]])
    # index of the lattice = |det| of any basis
    assert len(basis) == 2
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == 6


def test_quotient_z2_mod_2z2():
    factors = quotient_structure([[1, 0], [0, 1]], [[2, 0], [0, 2]])
    assert sorted(o for o, _ in factors) == [2, 2]


def test_quotient_with_torsion_mix():
    # Z^2 / <(2,0),(0,6)> = Z/2 x Z/6
    factors = quotient_structure([[1, 0], [0, 1]], [[2, 0], [0, 6]])
    assert sorted(o for o, _ in factors) == [2, 6]


def test_quotient_free_part_reported_as_zero():
    factors = quotient_structure([[1, 0], [0, 1]], [[2, 0]])
    assert sorted(o for o, _ in factors) == [0, 2]


def test_quotient_of_sublattice():
    # lattice 2Z x 4Z modulo 4Z x 4Z has order 2
    factors = quotient_structure([[2, 0], [0, 4]], [[4, 0], [0, 4]])
    assert [o for o, _ in factors] == [2]


def test_quotient_rejects_a_small_lattice_outside_the_big_one(run_optimized):
    """Both guards raise SublatticeError, also with asserts stripped."""
    with pytest.raises(SublatticeError, match="small lattice is not contained"):
        quotient_structure([[2, 0]], [[0, 1]])
    with pytest.raises(SublatticeError, match="small lattice escapes big one"):
        quotient_structure([[0, 0]], [[0, 1]])
    got = run_optimized("""
import json
from depthzero.snf import SublatticeError, quotient_structure
messages = []
for big in ([[2, 0]], [[0, 0]]):
    try:
        quotient_structure(big, [[0, 1]])
        messages.append(None)
    except SublatticeError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
""")
    assert got == ["small lattice is not contained in the big lattice",
                   "small lattice escapes big one"]
