"""Map equality and composition on the coefficient tensor, checked against
the reference decision: applying the operators to every matrix unit."""

import pytest

from elemop.classify import generate
from elemop.errors import ShapeError
from elemop.exact import (
    I_UNIT,
    Matrix,
    derive_seed,
    random_invertible,
    random_matrix,
)
from elemop.operators import (
    ElementaryOperator,
    adjoint_flip,
    apply,
    compose_is_zero,
    maps_equal,
    minimal_length,
    similarity_transform,
)
from conftest import single_pair, specimen_form_ii, specimen_form_iii, unit

CASES = [(n, d, seed) for n in (1, 2, 3) for d in (2, 3, 5) for seed in (1, 2)]


def _matrix_units(d):
    return [Matrix.unit(d, i, j) for i in range(d) for j in range(d)]


def _units_equal(phi, psi) -> bool:
    return all(apply(phi, u) == apply(psi, u) for u in _matrix_units(phi.dim))


def _units_compose_zero(psi, phi) -> bool:
    return all(apply(psi, apply(phi, u)).is_zero for u in _matrix_units(phi.dim))


def _gaussian(d, seed) -> Matrix:
    """Gaussian-rational matrix with mixed denominators."""
    return random_matrix(d, seed, 4) + I_UNIT * random_matrix(d, derive_seed(seed, 1), 3)


def _random_operator(n, d, seed, entry=_gaussian) -> ElementaryOperator:
    return ElementaryOperator.from_pairs(
        d,
        [(entry(d, derive_seed(seed, 2 * i)), entry(d, derive_seed(seed, 2 * i + 1)))
         for i in range(n)],
    )


def _real(d, seed) -> Matrix:
    return random_matrix(d, seed, 4)


def _agree(phi, psi, expected: bool):
    assert _units_equal(phi, psi) == expected
    assert maps_equal(phi, psi) == expected
    assert maps_equal(psi, phi) == expected


@pytest.mark.parametrize("n,d,seed", CASES)
def test_equal_under_similarity_transform(n, d, seed):
    phi = _random_operator(n, d, seed)
    length, reduced = minimal_length(phi)
    p = random_invertible(length, derive_seed(seed, 77), 3)
    rep = similarity_transform(reduced, p)
    _agree(rep, phi, True)
    _agree(reduced, phi, True)


@pytest.mark.parametrize("n,d,seed", CASES)
@pytest.mark.parametrize("entry", [_gaussian, _real])
def test_differs_in_one_entry(n, d, seed, entry):
    # on a real operator an imaginary bump changes only imaginary entries
    phi = _random_operator(n, d, seed, entry)
    i = seed % n
    a, b = phi.pairs[i]
    for bump in (unit(d, d - 1, 0), I_UNIT * unit(d, 0, d - 1)):
        for pair in ((a + bump, b), (a, b + bump)):
            pairs = list(phi.pairs)
            pairs[i] = pair
            _agree(ElementaryOperator.from_pairs(d, pairs), phi, False)


@pytest.mark.parametrize("n,d,seed", CASES)
def test_different_pair_counts(n, d, seed):
    phi = _random_operator(n, d, seed)
    a, b = phi.pairs[0]
    c = _gaussian(d, derive_seed(seed, 99))
    split = ElementaryOperator.from_pairs(d, [(a, b - c), (a, c)] + list(phi.pairs[1:]))
    _agree(split, phi, True)
    extra = ElementaryOperator.from_pairs(d, list(phi.pairs) + [(c, c)])
    _agree(extra, phi, False)
    _agree(ElementaryOperator.zero(d), phi, False)


@pytest.mark.parametrize("n,d,seed", CASES)
def test_cancelling_pairs(n, d, seed):
    phi = _random_operator(n, d, seed)
    a, b = phi.pairs[-1]
    padded = ElementaryOperator.from_pairs(d, list(phi.pairs) + [(a, b), (-1 * a, b)])
    _agree(padded, phi, True)
    cancelled = ElementaryOperator.from_pairs(d, [(a, b), (-1 * a, b)])
    _agree(cancelled, ElementaryOperator.zero(d), True)
    _agree(cancelled, phi, False)


def test_dimension_mismatch_is_a_shape_error():
    with pytest.raises(ShapeError):
        maps_equal(ElementaryOperator.zero(2), ElementaryOperator.zero(3))
    with pytest.raises(ShapeError):
        compose_is_zero(ElementaryOperator.zero(2), ElementaryOperator.zero(3))


def _compositions():
    yield "zero", ElementaryOperator.zero(3), _random_operator(2, 3, 5)
    yield "specimen ii flip", adjoint_flip(specimen_form_ii()), specimen_form_ii()
    yield "specimen iii flip", adjoint_flip(specimen_form_iii()), specimen_form_iii()
    for form, d, seed in (("i", 4, 3), ("ii", 3, 4), ("iii", 4, 5), ("remark45", 4, 6)):
        phi = generate(form, 3, d, seed)
        yield f"{form} flip", adjoint_flip(phi), phi
        yield f"{form} squared", phi, phi
    e01 = unit(3, 0, 1)
    yield "image killed", single_pair(3, e01, Matrix.identity(3)), single_pair(3, e01, e01)
    yield "image kept", single_pair(3, e01, Matrix.identity(3)), single_pair(3, unit(3, 1, 0), e01)
    for n, d, seed in CASES:
        yield f"random {n} {d} {seed}", _random_operator(n, d, seed), _random_operator(2, d, seed + 50)


@pytest.mark.parametrize("label,psi,phi", list(_compositions()), ids=lambda v: v if isinstance(v, str) else "")
def test_compose_is_zero_matches_unit_probing(label, psi, phi):
    assert compose_is_zero(psi, phi) == _units_compose_zero(psi, phi)
