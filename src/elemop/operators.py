"""Elementary operators x -> sum a_i x b_i and their representation algebra.

An operator is an ordered list of coefficient pairs over a fixed square
ambient dimension.  Different pair lists can encode the same map; the
minimal number of pairs is the length, and any two minimal-length pair
lists are related by an invertible scalar change of representation that
conjugates the block matrix (b_i a_j) entrywise.  A representation is
therefore just another `ElementaryOperator` for the same map: the
representation changes return one, and certificates carry one.  The
minimal form is computed once per operator object and kept on it, so
every decision that starts from a minimal-length representation shares
one reduction.

Equality of operators as maps is decided on the coefficient tensor
M(phi) = sum_i vec(a_i) vec(b_i)^T, whose entries are exactly the entries
of phi on the matrix units: two pair lists give the same map iff their
tensors agree, and a composition vanishes iff the tensor of the composed
pairs (c_j a_i, b_i d_j) is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Sequence

from .errors import (
    BasisError,
    ContractError,
    DomainError,
    PreconditionError,
    ShapeError,
)
from .exact import (
    Matrix,
    coefficient_tensor_is_zero,
    gaussian_int_combination,
    gaussian_int_matmul,
    grid_columns,
    independent_subset,
    inverse,
    linear_combinations,
    ratio,
)
from .spaces import OperatorSpace, reduce_basis


@dataclass(frozen=True)
class ElementaryOperator:
    """Coefficient pairs (a_i, b_i) acting as x -> sum a_i x b_i.

    The zero operator is the one value with an empty pair list; it is
    flagged by is_zero and produced by minimal_length on zero maps.
    """

    dim: int
    pairs: tuple[tuple[Matrix, Matrix], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("ambient dimension must be positive")
        for a, b in self.pairs:
            if not (a.rows == a.cols == self.dim and b.rows == b.cols == self.dim):
                raise ShapeError("coefficients must be square of the ambient dimension")

    @classmethod
    def from_pairs(cls, dim: int, pairs: Sequence[tuple[Matrix, Matrix]]) -> "ElementaryOperator":
        return cls(dim, tuple((a, b) for a, b in pairs))

    @classmethod
    def zero(cls, dim: int) -> "ElementaryOperator":
        return cls(dim, ())

    @property
    def is_zero(self) -> bool:
        return not self.pairs

    @property
    def term_count(self) -> int:
        return len(self.pairs)

    def __call__(self, x: Matrix) -> Matrix:
        return apply(self, x)

    @cached_property
    def _reduced(self) -> "ElementaryOperator | None":
        """The minimal-length form, or None when this pair list is already
        minimal.

        Folds the left side, then the right side.  Two passes suffice: the
        second keeps independent right coefficients, and its new left
        coefficients are kept left coefficients plus combinations of the
        dropped ones, so they stay independent.  Both families independent
        pins the pair count at the rank of the coefficient tensor.  Never
        holds self, which would make every operator a reference cycle.
        """
        pairs = [(a, b) for a, b in self.pairs if not a.is_zero and not b.is_zero]
        pairs = _fold_left(pairs)
        pairs = [(a, b) for b, a in _fold_left([(b, a) for a, b in pairs])]
        if len(pairs) == len(self.pairs):
            return None
        reduced = ElementaryOperator(self.dim, tuple(pairs))
        reduced.__dict__["_reduced"] = None
        return reduced


def apply(phi: ElementaryOperator, x: Matrix) -> Matrix:
    """Exact evaluation sum a_i x b_i.

    Each term is formed on the Gaussian-integer grids the matrices store:
    with a_i = A_i/p_i, x = X/q and b_i = B_i/r_i, the term is
    A_i X B_i/(p_i q r_i).  The terms are summed over one common
    denominator by `exact.gaussian_int_combination`, the summation step
    of `linear_combinations`, and one matrix is built at the end.
    """
    if x.rows != phi.dim or x.cols != phi.dim:
        raise ShapeError("argument shape does not match the ambient dimension")
    x_cols = grid_columns(x)
    terms = []
    for a, b in phi.pairs:
        ax = gaussian_int_matmul(a.re, a.im, *x_cols)
        terms.append((a.den * x.den * b.den, *gaussian_int_matmul(*ax, *grid_columns(b))))
    return _sum_of(terms, phi.dim)


def _sum_of(terms, dim: int) -> Matrix:
    """The sum of the d x d terms (re + i*im)/den given as (den, re, im)."""
    common, ((re, im),) = gaussian_int_combination(
        [[1] * len(terms)], [[0] * len(terms)], terms, dim, dim
    )
    return Matrix(common, re, im)


def maps_equal(phi: ElementaryOperator, psi: ElementaryOperator) -> bool:
    """Exact equality as maps: the tensor of phi minus psi is zero."""
    if phi.dim != psi.dim:
        raise ShapeError("ambient dimensions differ")
    return coefficient_tensor_is_zero(phi.pairs + tuple((-c, d) for c, d in psi.pairs))


def _fold_left(pairs: list[tuple[Matrix, Matrix]]) -> list[tuple[Matrix, Matrix]]:
    """Keep the earliest independent left coefficients and fold every
    dropped pair's right coefficient into the kept pairs: with a_j =
    sum_k coords[k, j] a_(kept[k]), the new b_(kept[k]) is sum_j
    coords[k, j] b_j, one product of coords against all the b's."""
    kept, coords = independent_subset([a for a, _ in pairs])
    if len(kept) == len(pairs):
        return pairs
    folded = linear_combinations(coords, [b for _, b in pairs])
    return [(pairs[k][0], b) for k, b in zip(kept, folded) if not b.is_zero]


def minimal_length(phi: ElementaryOperator) -> tuple[int, ElementaryOperator]:
    """Length of the map and a representation with that many pairs.

    Reads the operator's memo, so the minimal form is computed once per
    operator object; an already minimal operator is returned as it is.
    """
    reduced = phi if phi._reduced is None else phi._reduced
    return reduced.term_count, reduced


def _coefficient_space(phi: ElementaryOperator, side: int) -> OperatorSpace:
    """span of one side's coefficients.  An operator whose memo already
    says it is its own minimal form has independent coefficients on both
    sides, so they are the basis as they are; the memo is read, never
    computed here."""
    coefficients = [pair[side] for pair in phi.pairs]
    if "_reduced" in phi.__dict__ and phi._reduced is None:
        return OperatorSpace(phi.dim, tuple(coefficients))
    return reduce_basis(coefficients, ambient_dim=phi.dim)


def left_space(phi: ElementaryOperator) -> OperatorSpace:
    return _coefficient_space(phi, 0)


def right_space(phi: ElementaryOperator) -> OperatorSpace:
    return _coefficient_space(phi, 1)


def v_space(phi: ElementaryOperator) -> OperatorSpace:
    """span{b_i a_j}, keeping the earliest independent nonzero products in
    the order i, then j.

    That choice is prefix-closed: the products kept from a prefix are the
    ones kept from the whole list.  So the products are built lazily and
    reduced d^2 at a time, each batch after the basis kept so far, and
    none is built once d^2 are kept, since V lies in M_d.
    """
    full = phi.dim * phi.dim
    products = (b @ a for _, b in phi.pairs for a, _ in phi.pairs)
    nonzero = (p for p in products if not p.is_zero)
    space = OperatorSpace(phi.dim, ())
    while space.dim < full:
        batch = list(islice(nonzero, full))
        if not batch:
            break
        space = reduce_basis([*space.basis, *batch])
    return space


@dataclass(frozen=True)
class GramMatrix:
    """The n x n grid of products b_i a_j, the invariant that changes only
    by entrywise scalar similarity under representation changes."""

    n: int
    ambient_dim: int
    blocks: tuple[tuple[Matrix, ...], ...]

    def block(self, i: int, j: int) -> Matrix:
        return self.blocks[i][j]


def gram(phi: ElementaryOperator) -> GramMatrix:
    n = phi.term_count
    blocks = tuple(
        tuple(phi.pairs[i][1] @ phi.pairs[j][0] for j in range(n)) for i in range(n)
    )
    return GramMatrix(n, phi.dim, blocks)


def _require_reduced(phi: ElementaryOperator, op_name: str):
    if minimal_length(phi)[0] != phi.term_count:
        raise ContractError(f"{op_name} requires a length-reduced operator")


def change_left_basis(phi: ElementaryOperator, new_left: Sequence[Matrix]) -> ElementaryOperator:
    """Rewrite phi over a chosen basis of its left coefficient space.

    Solves u_j = sum_k P[k][j] a_k for the unique P: the a_k are
    independent, so one independent subset of a_1..a_n, u_1..u_n keeps
    every a_k, keeps no u_j exactly when each lies in the left space,
    and P is its coordinate matrix at the columns n..2n-1.  Then the right
    coefficients go through P^{-1}, which keeps the map.  Dependent
    proposals make P singular, and the DomainError of that one inverse
    becomes BasisError.
    """
    _require_reduced(phi, "change_left_basis")
    n = phi.term_count
    if len(new_left) != n:
        raise BasisError(f"expected {n} basis matrices, got {len(new_left)}")
    if not n:  # the zero operator: the empty basis is the only one
        return phi
    kept, coords = independent_subset([a for a, _ in phi.pairs] + list(new_left))
    if len(kept) > n:
        raise BasisError("a proposed basis matrix lies outside the left space")
    p = Matrix(coords.den, [r[n:] for r in coords.re], [r[n:] for r in coords.im])
    try:
        p_inv = inverse(p)
    except DomainError:
        raise BasisError("the proposed matrices are linearly dependent") from None
    return _apply_scalar_change(phi, p, p_inv)


def similarity_transform(phi: ElementaryOperator, p: Matrix) -> ElementaryOperator:
    """Representation change by an invertible scalar matrix P: u_j =
    sum_k P_kj a_k and v_i = sum_k (P^-1)_ik b_k.  A singular P raises
    DomainError from `inverse`."""
    _require_reduced(phi, "similarity_transform")
    n = phi.term_count
    if p.rows != n or p.cols != n:
        raise ShapeError("P must be n x n for an n-pair operator")
    return _apply_scalar_change(phi, p, inverse(p))


def _apply_scalar_change(phi: ElementaryOperator, p: Matrix, p_inv: Matrix) -> ElementaryOperator:
    """Two kernel products: the rows of P^T against the a's give the
    u's, and the rows of P^-1 against the b's give the v's."""
    u = linear_combinations(p.transpose(), [a for a, _ in phi.pairs])
    v = linear_combinations(p_inv, [b for _, b in phi.pairs])
    return ElementaryOperator(phi.dim, tuple(zip(u, v)))


def adjoint_flip(phi: ElementaryOperator) -> ElementaryOperator:
    """Swap every pair (a, b) -> (b, a); an involution on pair lists."""
    return ElementaryOperator(phi.dim, tuple((b, a) for a, b in phi.pairs))


def compose_is_zero(psi: ElementaryOperator, phi: ElementaryOperator) -> bool:
    """Whether x -> psi(phi(x)) is the zero map, decided on the tensor of
    the composed pairs (c_j a_i, b_i d_j)."""
    if psi.dim != phi.dim:
        raise ShapeError("ambient dimensions differ")
    return coefficient_tensor_is_zero(
        [(c @ a, b @ d) for c, d in psi.pairs for a, b in phi.pairs]
    )


def local_matrix(phi: ElementaryOperator, zeta: Matrix, x: Matrix) -> Matrix:
    """Matrix of phi(x) restricted to span{a_i zeta} in that image basis.

    Requires a column zeta with {a_i zeta} independent and x * b_i a_j
    zeta proportional to zeta for every block; both are checked exactly
    and violations name the offending condition and block.
    """
    n = phi.term_count
    if n == 0:
        raise ContractError("the zero operator has no local matrix")
    if zeta.rows != phi.dim or zeta.cols != 1:
        raise ShapeError("vector length does not match the ambient dimension")
    images = [a @ zeta for a, _ in phi.pairs]
    if len(independent_subset(images)[0]) != n:
        raise PreconditionError("the images a_i zeta are linearly dependent")
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = ratio(x @ (phi.pairs[i][1] @ images[j]), zeta)
            if rows[i][j] is None:
                raise PreconditionError(f"x b_{i} a_{j} zeta is not proportional to zeta")
    return Matrix.from_rows(rows)


def sum_bi_ai(phi: ElementaryOperator) -> Matrix:
    """The trace obstruction sum b_i a_i, each product formed on the
    integer grids and summed over one common denominator, as in apply."""
    terms = [
        (a.den * b.den, *gaussian_int_matmul(b.re, b.im, *grid_columns(a)))
        for a, b in phi.pairs
    ]
    return _sum_of(terms, phi.dim)
