"""Finite-dimensional spaces of matrices: spans, evaluation at vectors,
local dimension with certified witnesses, and rank-one factorization.

The local dimension of a space V is max over vectors z of dim(V z).  Every
minor of the stacked images [T_1 z ... T_k z] is a homogeneous polynomial
in z, so one walk of the simplex lattice of `exact.simplex_points` that
is at least as deep as the minors' degree attains the maximum: the value
is proven, never sampled, and the first point attaining it is the witness.
Each walk charges every point it visits the multiplications of its
`evaluate` calls, k*d^2 for a space of dimension k, and raises
DomainError, naming its stage, the points visited and the units spent,
at the point that would pass LATTICE_WORK_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ContractError, DomainError, InconsistencyError, RankError, ShapeError
from .exact import (
    Matrix,
    divide_by_entry,
    independent_subset,
    rank,
    simplex_points,
    vector,
)

#: Multiplications one walk may spend, k*d^2 a point for each space of
#: dimension k it evaluates: strictly upper M_8 (k = 28), whose walk visits
#: all C(15, 8) = 6435 points of Delta(8, 8), 11,531,520 units, fits.
LATTICE_WORK_BUDGET = 12_000_000


@dataclass(frozen=True)
class OperatorSpace:
    """A subspace of d x d matrices given by a linearly independent basis."""

    ambient_dim: int
    basis: tuple[Matrix, ...]

    def __post_init__(self):
        d = self.ambient_dim
        for m in self.basis:
            if m.rows != d or m.cols != d:
                raise ShapeError("basis matrices must all be ambient_dim square")

    @property
    def dim(self) -> int:
        return len(self.basis)


def reduce_basis(mats: Sequence[Matrix], ambient_dim: int | None = None) -> OperatorSpace:
    """Span of the given matrices, keeping the earliest independent generators.

    Empty input yields the zero space; ambient_dim is then required.
    """
    if not mats:
        if ambient_dim is None:
            raise ShapeError("ambient_dim is required for an empty generating set")
        return OperatorSpace(ambient_dim, ())
    d = mats[0].rows
    if ambient_dim is not None and ambient_dim != d:
        raise ShapeError("ambient_dim disagrees with the generators")
    for m in mats:
        if m.rows != d or m.cols != d:
            raise ShapeError("generators must share one square shape")
    kept, _ = independent_subset(mats)
    return OperatorSpace(d, tuple(mats[i] for i in kept))


def evaluate(space: OperatorSpace, zeta: Matrix) -> list[Matrix]:
    """Reduced basis of span{T zeta : T in the basis}, for a column zeta."""
    if zeta.rows != space.ambient_dim or zeta.cols != 1:
        raise ShapeError("vector length does not match the ambient dimension")
    images = [t @ zeta for t in space.basis]
    kept, _ = independent_subset(images)
    return [images[i] for i in kept]


@dataclass(frozen=True)
class LocalDimResult:
    """Outcome of a local dimension computation: the proven value and a
    witness column at which the space has exactly `value` independent
    images."""

    value: int
    witness: Matrix


def _image_dim(space: OperatorSpace, zeta: Matrix) -> int:
    return len(evaluate(space, zeta))


def _walk(d: int, degree: int, stage: str, spaces: Sequence[OperatorSpace]):
    """The points of Delta(d, degree) as columns, in `simplex_points`
    order, each charged k*d^2 for each of the spaces.  Visited points
    are charged, not the lattice, so a walk that stops early is never
    refused; the point that would pass LATTICE_WORK_BUDGET raises
    DomainError before it is evaluated."""
    cost = sum(s.dim for s in spaces) * d * d
    spent = 0
    for visited, point in enumerate(simplex_points(d, degree)):
        if spent + cost > LATTICE_WORK_BUDGET:
            raise DomainError(
                f"the {stage} walk of Delta({d}, {degree}) would pass the budget of "
                f"{LATTICE_WORK_BUDGET} units at its next point ({visited} points visited, "
                f"{spent} units spent)"
            )
        spent += cost
        yield vector(point)


def local_dimension(space: OperatorSpace) -> LocalDimResult:
    """Max over z of dim(space applied to z), with a verifying witness.

    Walks Delta(d, c) with c = min(d, dim) and stops at the first point of
    rank c.  The local dimension r is the size of the largest minor of
    [T_1 z ... T_k z] that is not identically zero; that minor is
    homogeneous of degree r <= c in z, so it is nonzero at some point of
    the walk, and the largest rank met is r.  A walk that would pass
    LATTICE_WORK_BUDGET raises DomainError.
    """
    d = space.ambient_dim
    cap = min(d, space.dim)
    best = -1
    for zeta in _walk(d, cap, "local dimension", [space]):
        dim_here = _image_dim(space, zeta)
        if dim_here > best:
            best, witness = dim_here, zeta
            if best == cap:
                break
    return LocalDimResult(best, witness)


def simultaneous_separating_vector(spaces: Sequence[OperatorSpace]) -> Matrix:
    """A single vector attaining the local dimension of every given space.

    With r_i the local dimensions, the product of one nonzero r_i-minor
    per space is a nonzero homogeneous polynomial of degree sum r_i, so
    the walk of Delta(d, sum r_i) reaches a point where every space
    attains its r_i; an exhausted walk raises InconsistencyError, and a
    walk that would pass LATTICE_WORK_BUDGET DomainError.
    """
    if not spaces:
        raise ContractError("at least one space is required")
    d = spaces[0].ambient_dim
    if any(s.ambient_dim != d for s in spaces):
        raise ShapeError("spaces must share the ambient dimension")
    targets = [local_dimension(s).value for s in spaces]
    for zeta in _walk(d, sum(targets), "separating vector", spaces):
        if all(_image_dim(s, zeta) == r for s, r in zip(spaces, targets)):
            return zeta
    raise InconsistencyError("no separating vector on the simplex lattice")


def is_locally_linearly_dependent(space: OperatorSpace) -> bool:
    """True iff the local dimension falls short of the dimension; exact,
    since `local_dimension` is."""
    return local_dimension(space).value < space.dim


@dataclass(frozen=True)
class RankOne:
    """Factorization m = column @ functional^T of a rank-one matrix, both
    factors d x 1.

    Normalized so the first nonzero entry of the functional is 1, which
    makes factorizations canonical and comparable.
    """

    column: Matrix
    functional: Matrix

    def reconstruct(self) -> Matrix:
        return self.column @ self.functional.transpose()


def rank_one_factor(m: Matrix) -> RankOne:
    """The column is the first nonzero column of m; with i the row of its
    first nonzero entry c, the functional is row i of m divided by c, on
    the grids by `divide_by_entry`.

    The factors are built first: m has rank one exactly when it is
    nonzero and they reconstruct it, so `rank` runs only to name the rank
    in the RankError of any other m."""
    column = next((c for c in map(m.column, range(m.cols)) if not c.is_zero), None)
    if column is None:
        raise RankError(0)
    i = next(i for i in range(m.rows) if column.re[i][0] or column.im[i][0])
    functional = divide_by_entry(m.transpose().column(i), column, i, 0)
    factored = RankOne(column, functional)
    if factored.reconstruct() != m:
        raise RankError(rank(m))
    return factored


class HatSpaceCheck(NamedTuple):
    max_rank: int
    local_dim: int


def hat_space(space: OperatorSpace, probes: Sequence[Matrix]) -> HatSpaceCheck:
    """Rank of the evaluation maps z -> (T -> T z) over the given probes.

    Each such map has rank dim(space applied at z), so the maximum over
    probes never exceeds the proven local dimension; a violation raises
    InconsistencyError.
    """
    ldim = local_dimension(space).value
    max_rank = max((_image_dim(space, zeta) for zeta in probes), default=0)
    if max_rank > ldim:
        raise InconsistencyError("probe rank exceeded the local dimension")
    return HatSpaceCheck(max_rank, ldim)
