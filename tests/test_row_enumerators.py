"""The row enumerators of the campaign against the object enumerators they
replace.

The campaign walks the strongly regular elements, their coinvariant lifts
and the rho-shift signs as int64 rows.  The dataclass enumerators
(``iter_strongly_regular``, ``lift_of_rational`` with ``coinv_mul`` for a
twist, ``enumerate_coinvariants``) and the scalar signs stay as the
reference: each row array must equal, row for row and in order, the
``coordinate_array`` of the objects, at q up to 47 (the largest q of the
tower benchmark), for both kinds and every parity twist.
"""

from fractions import Fraction

import numpy as np
import pytest

from depthzero.charformula import (
    _two_rho_eta_exponent,
    make_context,
    positive_system_contexts,
    rho_shift_closed_sign,
    rho_shift_closed_sign_array,
    rho_shift_solve,
)
from depthzero.tori import (
    T1Coinv,
    T1Rational,
    T2Coinv,
    T2Rational,
    coinv_mul,
    coinv_of_row,
    coinvariant_coordinates,
    coinvariant_index,
    coinvariant_norm,
    coinvariant_shape,
    coordinate_array,
    enumerate_coinvariants,
    iter_strongly_regular,
    lift_coordinates,
    lift_of_rational,
    parity_classes,
    parity_rows,
    rational_of_row,
    strongly_regular_coordinates,
    t1_coinv,
    t2_coinv,
)

QS = (3, 5, 7, 9, 27, 47)
POINTS = [(kind, q) for q in QS for kind in (1, 2)]


def _classes(kind):
    return (T1Rational, T1Coinv) if kind == 1 else (T2Rational, T2Coinv)


@pytest.mark.parametrize("kind,q", POINTS)
def test_strongly_regular_rows_match_the_iterator(kind, q):
    gammas = list(iter_strongly_regular(kind, q))
    rows = strongly_regular_coordinates(kind, q)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, coordinate_array(_classes(kind)[0], gammas))
    # the witness helper rebuilds the same objects
    assert [rational_of_row(kind, q, row) for row in rows[:: max(1, len(rows) // 50)]] == (
        gammas[:: max(1, len(rows) // 50)])


@pytest.mark.parametrize("kind,q", POINTS)
def test_lift_rows_match_the_lifts_on_every_twist(kind, q):
    rational_cls, coinv_cls = _classes(kind)
    gammas = list(iter_strongly_regular(kind, q))
    rows = coordinate_array(rational_cls, gammas)
    base = [lift_of_rational(kind, q, g) for g in gammas]
    assert np.array_equal(lift_coordinates(kind, q, rows), coordinate_array(coinv_cls, base))
    for tw in parity_classes(kind, q):
        parity = (tw.v1, tw.v2) if kind == 1 else tw.v
        want = coordinate_array(coinv_cls, [coinv_mul(lift, tw) for lift in base])
        assert np.array_equal(lift_coordinates(kind, q, rows, parity), want), tw
        # lift_of_rational takes the same parity argument
        assert want.tolist() == coordinate_array(
            coinv_cls, [lift_of_rational(kind, q, g, parity) for g in gammas]).tolist()


@pytest.mark.parametrize("kind,q", POINTS)
def test_coinvariant_rows_index_and_witnesses(kind, q):
    classes = list(enumerate_coinvariants(kind, q))
    coords = coinvariant_coordinates(kind, q)
    assert np.array_equal(coords, coordinate_array(_classes(kind)[1], classes))
    assert np.array_equal(coinvariant_index(kind, q, coords), np.arange(len(classes)))
    assert [coinv_of_row(kind, q, row) for row in coords[::97]] == classes[::97]


@pytest.mark.parametrize("kind,q", [(kind, q) for kind, q in POINTS if q <= 9])
def test_parity_rows_are_the_norm_kernel(kind, q):
    classes = list(enumerate_coinvariants(kind, q))
    one = coinvariant_norm(classes[0])  # the first class is the identity
    kernel = [c for c in classes if coinvariant_norm(c) == one]
    assert np.array_equal(parity_rows(kind, q), coordinate_array(_classes(kind)[1], kernel))
    assert parity_classes(kind, q) == kernel


def _coords(c):
    return (c.u1, c.u2, c.v1, c.v2) if isinstance(c, T1Coinv) else (c.u, c.v)


def _scalar_rho_shift(ctx, positive_roots=None) -> dict:
    """The rho-shift as a {class: sign} dict, solved one label at a time
    over ``enumerate_coinvariants``, with values as fractions of a turn:
    the label x takes the class c to sum x_i c_i / size_i."""
    kind, q = ctx.kind, ctx.q
    shape = coinvariant_shape(kind, q)
    rank = len(shape) // 2
    unit_vectors = [tuple(int(i == j) for i in range(2 * rank)) for j in range(2 * rank)]
    gens = [(t1_coinv if kind == 1 else t2_coinv)(q, *e) for e in unit_vectors]
    targets = [Fraction(_two_rho_eta_exponent(ctx, g, positive_roots), 4) % 1 for g in gens]
    classes = list(enumerate_coinvariants(kind, q))
    solutions = []
    for x in classes:
        values = [Fraction(xi, size) % 1 for xi, size in zip(_coords(x), shape)]
        if any(2 * v % 1 != t for v, t in zip(values, targets)):
            continue  # does not square to the target
        if any(values[:rank]) or (kind == 1 and values[rank]):
            continue  # not trivial on the unit classes, or on the kind-1 cover kernel
        if values[-1]:  # genuine
            solutions.append(x)
    assert len(solutions) == 1
    label = _coords(solutions[0])
    signs = {}
    for c in classes:
        turn = sum(Fraction(xi * ci, size) for xi, ci, size in zip(label, _coords(c), shape)) % 1
        assert turn in (0, Fraction(1, 2))
        signs[c] = 1 if turn == 0 else -1
    return signs


@pytest.mark.parametrize("kind,q", POINTS)
def test_rho_shift_signs_match_the_scalar_table(kind, q):
    """The solver's sign array against the scalar dict, on the default
    positive system and, at q <= 9, on every transformed one; the closed
    form on rows against the scalar closed form."""
    ctx = make_context(kind, q)
    classes = list(enumerate_coinvariants(kind, q))
    systems = [None] + ([roots for _, roots in positive_system_contexts(kind)] if q <= 9 else [])
    for roots in systems:
        table = _scalar_rho_shift(ctx, roots)
        assert rho_shift_solve(ctx, roots).tolist() == [table[c] for c in classes], roots
    closed = rho_shift_closed_sign_array(ctx, coinvariant_coordinates(kind, q))
    assert closed.tolist() == [rho_shift_closed_sign(ctx, c) for c in classes]
