"""Integer matrix normal forms and finitely generated abelian group helpers.

Everything here is exact arithmetic on Python ints.  The Smith normal
form routine tracks the unimodular transformations (and the inverse of
the row one), which is what lets us pull explicit representatives out
of kernel and quotient computations rather than just orders.
"""

from __future__ import annotations


class SublatticeError(ValueError):
    """The small lattice of a quotient is not contained in the big one."""


def _ident(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def smith_normal_form(mat):
    """Return (D, U, V, Uinv) with U . mat . V = D diagonal.

    U, V are unimodular; the diagonal entries of D are non-negative and
    satisfy the divisibility chain d1 | d2 | ... .
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u, uinv = _ident(rows), _ident(rows)
    v = _ident(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def swap_cols(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        for k in range(cols):
            m[dst][k] += c * m[src][k]
        for k in range(rows):
            u[dst][k] += c * u[src][k]
        for r in range(rows):
            uinv[r][src] -= c * uinv[r][dst]

    def add_col(src, dst, c):
        # col_dst += c * col_src
        for r in range(rows):
            m[r][dst] += c * m[r][src]
        for r in range(cols):
            v[r][dst] += c * v[r][src]

    def negate_row(i):
        for k in range(cols):
            m[i][k] = -m[i][k]
        for k in range(rows):
            u[i][k] = -u[i][k]
        for r in range(rows):
            uinv[r][i] = -uinv[r][i]

    t = 0
    while t < min(rows, cols):
        # locate a pivot: smallest nonzero absolute value in the tail block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(m[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        entry = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    entry = (i, j)
                    break
            if entry:
                break
        if entry is not None:
            add_row(entry[0], t, 1)
            continue
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    d = [row[:] for row in m]
    return d, u, v, uinv


def diagonal(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def kernel_basis(mat) -> list[list[int]]:
    """Integer basis of {x : mat . x = 0} as a list of column vectors."""
    cols = len(mat[0])
    d, _u, v, _uinv = smith_normal_form(mat)
    diag = diagonal(d)
    basis = []
    for j in range(cols):
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            basis.append([v[i][j] for i in range(cols)])
    return basis


def solve_exact(mat, b: list[int]):
    """One integer solution x of mat . x = b, or None if none exists."""
    rows = len(mat)
    cols = len(mat[0])
    d, u, v, _uinv = smith_normal_form(mat)
    ub = mat_vec(u, b)
    diag = diagonal(d)
    y = [0] * cols
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            if i < cols:
                y[i] = ub[i] // di
    return mat_vec(v, y)


def _columns_to_matrix(cols: list[list[int]]) -> list[list[int]]:
    dim = len(cols[0])
    return [[c[i] for c in cols] for i in range(dim)]


def lattice_basis(gens: list[list[int]]) -> list[list[int]]:
    """Basis (as columns) of the lattice spanned by the given columns."""
    gens = [g for g in gens if any(g)]
    if not gens:
        return []
    mat = _columns_to_matrix(gens)
    d, _u, _v, uinv = smith_normal_form(mat)
    diag = diagonal(d)
    dim = len(gens[0])
    basis = []
    for i, di in enumerate(diag):
        if di != 0:
            basis.append([di * uinv[r][i] for r in range(dim)])
    return basis


def quotient_structure(big_gens: list[list[int]], small_gens: list[list[int]]):
    """Structure of (lattice spanned by big_gens) / (lattice spanned by small_gens).

    The small lattice must be contained in the big one, else
    SublatticeError is raised.  Returns a list of (order, representative)
    pairs, one per nontrivial cyclic factor; order 0 marks an infinite
    factor.  Representatives are column vectors in the ambient coordinates.
    """
    basis = lattice_basis(big_gens)
    if not basis:
        if any(any(g) for g in small_gens):
            raise SublatticeError("small lattice escapes big one")
        return []
    bmat = _columns_to_matrix(basis)
    coords = []
    for g in small_gens:
        if not any(g):
            continue
        c = solve_exact(bmat, g)
        if c is None:
            raise SublatticeError("small lattice is not contained in the big lattice")
        coords.append(c)
    rank = len(basis)
    if not coords:
        return [(0, basis[i]) for i in range(rank)]
    cmat = _columns_to_matrix(coords)
    d, _u, _v, uinv = smith_normal_form(cmat)
    diag = diagonal(d)
    # adapted basis of the big lattice: columns of bmat . uinv
    adapted = mat_mul(bmat, uinv)
    factors = []
    for i in range(rank):
        order = diag[i] if i < len(diag) else 0
        if order == 1:
            continue
        factors.append((order, [adapted[r][i] for r in range(len(adapted))]))
    return factors
