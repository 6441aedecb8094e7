"""Finite-dimensional spaces of matrices: spans, evaluation at vectors,
local dimension with certified witnesses, and rank-one factorization.

The local dimension of a space V is max over vectors z of dim(V z).  It is
attained at generic z, so sampling gives the exact value with witness
almost surely; tiny instances are settled exactly by enumerating an
integer grid large enough to separate the relevant minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

from .errors import ContractError, InconsistencyError, RankError, SeparatingVectorError, ShapeError
from .exact import (
    Matrix,
    ONE,
    derive_seed,
    independent_subset,
    random_vector,
    rank,
    vector,
    zero_vector,
)

#: Size gate below which local dimension is decided by exact enumeration.
EXACT_LOCAL_DIM_GATE = 16

DEFAULT_SAMPLE_HEIGHT = 100

#: Columns sampled above the gate: the all-ones column, then seeded ones.
LOCAL_DIM_TRIALS = 24


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
    """Outcome of a local dimension computation.

    The witness always re-verifies: evaluating the space at it yields
    exactly `value` independent images, so `value` is a certified lower
    bound.  `exact` marks the enumerated mode, where the value is also a
    certified upper bound.
    """

    value: int
    witness: Matrix
    trials_used: int
    exact: bool


def _image_dim(space: OperatorSpace, zeta: Matrix) -> int:
    return len(evaluate(space, zeta))


def _sampled_candidates(d: int, seed: int, salt: int, trials: int):
    """`trials` columns: the all-ones column, then seeded random columns."""
    for t in range(trials):
        if t == 0:
            yield vector([1] * d)
        else:
            yield random_vector(d, derive_seed(seed, salt + t), DEFAULT_SAMPLE_HEIGHT)


def local_dimension(space: OperatorSpace, seed: int = 0) -> LocalDimResult:
    """Max over z of dim(space applied to z), with a verifying witness.

    Instances with ambient_dim^2 * dim <= 16 are settled exactly by
    enumerating the grid {0..r}^d with r = min(d, dim): any r x r minor of
    the stacked image matrix has degree at most r in each coordinate, so a
    nonzero minor is nonzero somewhere on that grid.  Larger instances
    sample seeded rational vectors; the all-ones vector is tried first.
    """
    d = space.ambient_dim
    k = space.dim
    cap = min(d, k)
    if k == 0:
        return LocalDimResult(0, zero_vector(d), 0, True)
    exact = d * d * k <= EXACT_LOCAL_DIM_GATE
    if exact:
        candidates = map(vector, product(range(cap + 1), repeat=d))
    else:
        candidates = _sampled_candidates(d, seed, 0, LOCAL_DIM_TRIALS)
    best = 0
    best_witness = zero_vector(d)
    used = 0
    for zeta in candidates:
        used += 1
        dim_here = _image_dim(space, zeta)
        if dim_here > best:
            best = dim_here
            best_witness = zeta
            if best == cap:
                break
    return LocalDimResult(best, best_witness, used, exact)


def simultaneous_separating_vector(
    spaces: Sequence[OperatorSpace], seed: int = 0, trials: int = 32
) -> Matrix:
    """A single vector attaining the local dimension of every given space.

    Such vectors are generic, so seeded sampling finds one quickly; if the
    budget runs out a SeparatingVectorError reports the best candidate and
    the first space that rejected it.
    """
    if not spaces:
        raise ContractError("at least one space is required")
    d = spaces[0].ambient_dim
    if any(s.ambient_dim != d for s in spaces):
        raise ShapeError("spaces must share the ambient dimension")
    targets = [local_dimension(s, seed=derive_seed(seed, 101 + i)).value for i, s in enumerate(spaces)]
    best = zero_vector(d)
    best_score = -1
    failing = 0
    for zeta in _sampled_candidates(d, seed, 7_000, trials):
        score = 0
        reject = -1
        for i, s in enumerate(spaces):
            if _image_dim(s, zeta) == targets[i]:
                score += 1
            else:
                reject = i
                break
        if score == len(spaces):
            return zeta
        if score > best_score:
            best_score = score
            best = zeta
            failing = reject
    raise SeparatingVectorError(best, failing, trials)


def is_locally_linearly_dependent(space: OperatorSpace) -> bool:
    """True iff the local dimension falls short of the dimension.

    Exact below the enumeration gate; otherwise the sampled witness makes
    a False answer certified and a True answer generically correct.
    """
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
    first nonzero entry c, the functional is row i of m divided by c.

    The factors are built first: m has rank one exactly when it is
    nonzero and they reconstruct it, so `rank` runs only to name the rank
    in the RankError of any other m."""
    column = next((c for c in map(m.column, range(m.cols)) if not c.is_zero), None)
    if column is None:
        raise RankError(0)
    i = next(i for i in range(m.rows) if column.re[i][0] or column.im[i][0])
    functional = (ONE / column.entry(i, 0)) * m.transpose().column(i)
    factored = RankOne(column, functional)
    if factored.reconstruct() != m:
        raise RankError(rank(m))
    return factored


class HatSpaceCheck(NamedTuple):
    within_bound: bool
    max_rank: int
    local_dim: int


def hat_space(space: OperatorSpace, probes: Sequence[Matrix]) -> HatSpaceCheck:
    """Rank of the evaluation maps z -> (T -> T z) over the given probes.

    Each such map has rank dim(space applied at z), so the maximum over
    probes never exceeds the local dimension.  When the local dimension is
    known exactly a violation is impossible and raises loudly.
    """
    ldim = local_dimension(space)
    max_rank = 0
    for zeta in probes:
        max_rank = max(max_rank, _image_dim(space, zeta))
    within = max_rank <= ldim.value
    if not within and ldim.exact:
        raise InconsistencyError("probe rank exceeded an exactly known local dimension")
    return HatSpaceCheck(within, max_rank, ldim.value)
