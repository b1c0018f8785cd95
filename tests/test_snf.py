import os
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from depthzero import characters, snf, tori
from depthzero.snf import (
    ShapeMismatchError,
    SmithNormalFormError,
    SublatticeError,
    diagonal,
    kernel_basis,
    lattice_basis,
    mat_mul,
    quotient_structure,
    smith_normal_form,
    solve_exact,
)
from depthzero.uniqueness import odd_prime_powers


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matrices(max_rows, max_cols, bound):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


matrices = _matrices(4, 4, 20)
# the shape of tori.tate_cohomology's kernels, at entries near those that a
# sheared root datum once reached
wide_matrices = st.one_of(matrices, _matrices(4, 6, 10**30))


@settings(max_examples=80, deadline=None)
@given(m=wide_matrices)
def test_snf_invariant_factors_match_sympy(m):
    theirs = sympy_smith_normal_form(Matrix(m), domain=ZZ)
    ours = diagonal(smith_normal_form(m)[0])
    assert [abs(d) for d in ours] == [abs(int(theirs[i, i])) for i in range(len(ours))]


@settings(max_examples=120, deadline=None)
@given(m=wide_matrices)
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


def test_mat_mul_refuses_mismatched_shapes(run_optimized):
    """A left factor with more columns than the right factor has rows
    raises, also with asserts stripped, where the product would otherwise
    read only the first columns."""
    with pytest.raises(ShapeMismatchError, match="cannot multiply 1x2 by 1x1"):
        mat_mul([[1, 2]], [[3]])
    got = run_optimized("""
import json
from depthzero.snf import ShapeMismatchError, mat_mul
try:
    print(json.dumps(mat_mul([[1, 2]], [[3]])))
except ShapeMismatchError as exc:
    print(json.dumps(str(exc)))
""")
    assert got == "cannot multiply 1x2 by 1x1"


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


SNF_SOURCE = (Path(__file__).resolve().parent.parent / "src" / "depthzero" / "snf.py").read_text()
# loop mutants that never finish without the bound: the row quotient turned
# into a product, which grows the pivot, and the divisibility test flipped,
# which restarts a stage on the same pivot for ever
LOOP_MUTANTS = {
    "quotient-times": ("q = m[i][t] // m[t][t]", "q = m[i][t] * m[t][t]"),
    "divisible-flipped": ("if m[i][j] % m[t][t] != 0:", "if m[i][j] % m[t][t] == 0:"),
}


def _snf_in_forked_child(source, mat, seconds=10):
    """``smith_normal_form(mat)`` from ``source`` in a forked child under an
    alarm: "returned", the name of the exception it raised, or the child's
    exit status if the alarm stopped it."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        try:
            os.close(read_end)
            signal.alarm(seconds)
            namespace = {"__name__": "snf_mutant"}
            try:
                exec(compile(source, "snf_mutant.py", "exec"), namespace)
                namespace["smith_normal_form"](mat)
                outcome = "returned"
            except Exception as exc:
                outcome = type(exc).__name__
            os.write(write_end, outcome.encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        outcome = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return outcome or f"exit {status}"


@pytest.mark.parametrize("mutant", LOOP_MUTANTS, ids=LOOP_MUTANTS)
def test_snf_loop_mutant_raises_instead_of_hanging(mutant):
    old, new = LOOP_MUTANTS[mutant]
    assert SNF_SOURCE.count(old) == 1
    mat = [[4, 6], [6, 4]]
    assert _snf_in_forked_child(SNF_SOURCE, mat) == "returned"
    assert _snf_in_forked_child(SNF_SOURCE.replace(old, new), mat) == SmithNormalFormError.__name__


def _entries(out):
    """Every integer in a nest of lists and tuples."""
    return [out] if isinstance(out, int) else [x for part in out for x in _entries(part)]


@pytest.mark.parametrize("kind", [1, 2])
def test_snf_entries_stay_under_the_square_of_the_dlog_order(monkeypatch, kind):
    """On the campaign's inputs, ``tate_cohomology`` and
    ``enumerate_inertia_data`` at every odd prime power q <= 23, no entry
    that ``snf`` returns reaches D^2, D = q^L - 1 the dlog order.  Before a
    stage cleared its column before its row, a sheared root datum carried
    entries near 10^28 at D = 6,560."""
    largest = [0]

    def traced(fn):
        def wrapper(*args):
            out = fn(*args)
            largest[0] = max([largest[0]] + [abs(x) for x in _entries(out)])
            return out
        return wrapper

    for name in ("smith_normal_form", "kernel_basis", "lattice_basis", "quotient_structure"):
        monkeypatch.setattr(snf, name, traced(getattr(snf, name)))
    for q in odd_prime_powers(23):
        largest[0] = 0
        tori.tate_cohomology.__wrapped__(kind, q)
        characters.enumerate_inertia_data(kind, q)
        assert 0 < largest[0] < (q ** tori.torus_level(kind) - 1) ** 2, q
