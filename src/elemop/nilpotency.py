"""Nilpotency deciders for a whole matrix subspace, flags, and the
refuting arguments of an elementary operator.

The decision for an operator over every argument is `classify`, one
ladder at every length; this module gives it the block flag, the trace
witness and the seeded witness search, and `all_x_nilpotent` is only a
name for that ladder.

Deciding that every element of span{N_1..N_k} inside the m x m matrices
is nilpotent is a polynomial identity problem: the trace of the p-th
power of t_1 N_1 + ... + t_k N_k is a homogeneous polynomial in t of
degree p, and all of them vanish identically iff the space is nilpotent.
`subspace_all_nilpotent` answers only exactly: it expands those
polynomials when the work fits DEFAULT_SUBSPACE_BUDGET and raises
DomainError otherwise, with no sampled answer.  The expansion goes level
by level over monomial multisets: the matrix coefficient of t^beta is
S_beta = sum over the distinct i in beta of S_(beta - e_i) N_i, computed
on the integer grids of the basis, and the expansion stops at the first
level with a nonzero trace.  Which products a level makes depends only on
the dimension k of the space and the level p, so that bookkeeping is a
schedule built once per (k, p) and kept across calls: the multisets beta
of size p in combinations_with_replacement order, each with the positions
of its parents beta - e_i in the level below, its distinct indices and
max beta.  A level's schedule is built only when a walk reaches it, and
the cache keeps SCHEDULE_CACHE_LEVELS levels, least recently used out
first.  So it holds at most the 16 largest levels that the gate admits,
82 MiB, of which the largest, (k, p) = (17, 5), takes 7.7 MiB
(tracemalloc, Python 3.11).  One loop walks the schedule on one integer
arithmetic, `int_matmul`: a real space holds each S as its integer grid,
and a complex space S = A + iB as its real embedding
E(S) = [[A, -B], [B, A]], with each right factor held as the block column
[A; B], and each level's S are a list indexed by schedule position.
Below the top level each multiset is one kernel product: its
parents S_(beta - e_i) side by side times the columns of the N_i stacked,
where each N_i is transposed once per expansion and each stack is built
once.  Each stored level p = 2..m-2 is divided by the gcd of all its
entries once it is built.  That is exact: S_beta is linear in its
parents, so dividing a whole level by one positive integer divides every
later level by it too, each later trace is a positive multiple of the
true one, and the same traces vanish.  It takes off the content that
the cleared denominators leave on the grids, such as a conjugator's
determinant, which cancels in the rational products but grows level by
level on the integer ones.  The top level
p = m needs only traces, and with A = sum t_i N_i the identity
d/dt_i tr(A^m) = m tr(A^(m-1) N_i) gives
tr S_beta = (m / beta_i) tr(S_(beta - e_i) N_i) for any one i in beta.
So the top level builds no S_beta and is streamed off level m-1: as soon
as each S_alpha of level m-1 is built, one kernel product, the row
vec(S_alpha) times the columns vec(N_i^T) for i >= max alpha, holds the
traces of every alpha + (i,) (two rows, the row halves of E(S_alpha),
give their real and imaginary parts), and level m-1 is never stored.  The gate
counts that work: k * C(k+p-2, p-1) products S_alpha N_i of m x m
matrices at each level p = 2..m-1, plus the C(k+m-1, m) traces of level
m, where the ordered words would take k + k^2 + ... + k^m.  The first
multiset beta with a nonzero trace pins an explicit counterexample on
the simplex lattice Delta(|supp beta|, |beta|) over the support of beta.

Simultaneous strict triangularization is a common-kernel recursion: a
space admits a strictly triangularizing flag iff at every stage some
vector outside the current flag is killed into it by every basis element.
The greedy choice is complete because quotients inherit the property.
It is the one flag recursion, and a flag is handed out as its
conjugator, the matrix P with the flag as columns.  The block flag of an
operator is a scalar P making the blockwise conjugate P^{-1} G P of its
block grid G = (b_i a_j) vanish on and below the diagonal; read at one
entry position (s, t), that conjugate is P^{-1} S_st P for the scalar
slice S_st = [(b_k a_l)[s][t]]_kl, so P is a strictly triangularizing
flag of the slice span.  No flag is re-checked here: `classify` turns it
into a representation that `verify_certificate` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, gcd, lcm
from operator import getitem
from typing import Sequence

from .certificate import ClassificationVerdict, refutes
from .errors import ContractError, DomainError, InconsistencyError
from .exact import (
    Matrix,
    derive_seed,
    int_matmul,
    inverse,
    is_nilpotent_matrix,
    kernel_basis,
    linear_combination,
    random_matrix,
    ratio,
    simplex_points,
)
from .operators import ElementaryOperator, GramMatrix, sum_bi_ai
from .spaces import OperatorSpace, reduce_basis

DEFAULT_SUBSPACE_BUDGET = 200_000
DEFAULT_TRIALS = 200
DEFAULT_WITNESS_HEIGHT = 100
# Levels (k, p) of the expansion's multiset schedule kept across calls.
SCHEDULE_CACHE_LEVELS = 16


@dataclass(frozen=True)
class NilpotentSpaceReport:
    all_nilpotent: bool
    method: str  # always "exact-grid": every answer is decided exactly
    counterexample: Matrix | None = None


@lru_cache(maxsize=SCHEDULE_CACHE_LEVELS)
def _level_schedule(
    k: int, p: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int], ...]:
    """Level p of the expansion of a k-dimensional space, which depends
    on nothing else: one entry (beta, parents, indices, i) per multiset
    beta of size p, in combinations_with_replacement order.  `indices` are
    the distinct x in beta ascending, the stack key of its product;
    `parents` are the positions of beta - e_x in level p-1, aligned with
    them; i is max beta.

    Level p is built forward from level p-1, read through the cache:
    beta = alpha + (i,) for i >= max alpha visits level p in that order,
    and the parents of beta are (alpha - e_x) + (i,) for each x of alpha,
    which is alpha itself for x = i, and alpha for a new i.  The children
    gamma + (j,) of a gamma of level p-2 lie side by side in level p-1
    from j = max gamma on, and the last parent of each entry there is its
    prefix gamma.  So with first[gamma] the position of gamma's first
    child less max gamma, gamma + (i,) is at first[gamma] + i.
    """
    if p == 1:
        return tuple(((i,), (0,), (i,), i) for i in range(k))
    below = _level_schedule(k, p - 1)
    first = []
    for b, (_, parents, _, last) in enumerate(below):
        if parents[-1] == len(first):
            first.append(b - last)
    schedule = []
    for a, (alpha, parents, indices, last) in enumerate(below):
        kept = tuple(first[g] for g in parents)
        schedule.append((alpha + (last,), tuple(f + last for f in kept), indices, last))
        for i in range(last + 1, k):
            schedule.append((alpha + (i,), (*(f + i for f in kept), a), indices + (i,), i))
    return tuple(schedule)


def _first_nonzero_trace(space: OperatorSpace) -> tuple[int, ...] | None:
    """The first multiset beta with tr S_beta nonzero, or None when
    tr((sum t_i N_i)^p) is the zero polynomial for every p = 1..m.

    The coefficient of t^beta in (sum t_i N_i)^p, for a multiset beta of
    size p, is S_beta = sum over the distinct i in beta of S_(beta - e_i) N_i,
    and the identities vanish iff every tr S_beta is zero.  The expansion
    runs on the integer grids of the basis (denominators cleared per
    element, which only rescales each t_i) and returns beta, as sorted
    indices, at the first nonzero trace; levels and multisets go in
    increasing order, multisets in combinations_with_replacement order.

    Level p walks `_level_schedule(k, p)`: for each beta in that order,
    the positions of its parents beta - e_x, one for each distinct x in
    beta, in the list of level p-1's S, and those x as the stack key.
    The schedule depends only on (k, p), so it is built the first time a
    walk reaches that level and read from the cache after; a walk that
    stops at level p builds no schedule above it.  The cache keeps
    SCHEDULE_CACHE_LEVELS levels.  The largest level the gate admits is
    (k, p) = (17, 5), 20,349 multisets in 7.7 MiB, and the 16 largest
    admitted levels hold 228,398 multisets in 82 MiB (tracemalloc,
    Python 3.11), which bounds the cache; the 14 levels that the
    benchmark's spaces reach take 21 KiB in all.  Each S_beta is
    one kernel product: the rows of its parents side by side times the
    columns of their N_x stacked, where each basis element is transposed
    once per call and the stacked columns of each distinct index tuple
    are built once per call and reused at every level.

    Each stored level p = 2..m-2 is divided by its content g, the gcd of
    every entry of every S_beta in it, folded while the level is built
    (over both blocks A and B of a complex S, so one integer divides the
    Gaussian matrices) and no longer once it reaches 1.  Since
    S_beta = sum S_(beta - e_x) N_x is linear in the parents, the divided
    level gives every later S_beta divided by g too, so every later
    trace is a positive multiple of the true one: the same traces vanish
    and the same beta is returned.  The traces of level p itself are read
    before the division.  Level 1, the basis, and level m-1, which is not
    stored, stay as they are, and an all-zero level (g = 0) is left
    alone.

    Level m needs only the traces: tr S_beta = (m / beta_i)
    tr(S_(beta - e_i) N_i) for any one i in beta, from
    d/dt_i tr(A^m) = m tr(A^(m-1) N_i) with A = sum t_i N_i, and the factor
    is nonzero, so it does not change which traces vanish.  Taking
    i = max beta, each S_alpha of level m-1 makes one product as soon as
    it is built and its own trace is zero: the row vec(S_alpha) times the
    columns vec(N_i^T) for i >= max alpha, whose entries are the traces of
    alpha + (i,) in order.  The first such hit is kept and returned only
    once every trace of level m-1 is zero, so a lower level still wins;
    the rest of level m-1 is built for its own traces and takes no more
    row products.  No level m-1 is stored.  On a nil space that is
    C(k+m-2, m-1) products for the C(k+m-1, m) traces of level m; at
    m = 2 they read the basis directly.

    One integer arithmetic serves every space.  A real space holds each
    S as its integer grid.  A complex space, read once from the input,
    enters as its real embedding: with S = A + iB, each stored S and each
    left factor is E(S) = [[A, -B], [B, A]], 2m x 2m, and each right
    factor N = C + iD is the block column [C; D], 2m x m.  E is an
    injective ring map, so E(S) [C; D] = [AC - BD; BC + AD] is the block
    column of S N, and the joins, the content and the streamed top level
    are those of a real space with twice the rows.  The trace of S is
    tr A + i tr B, the upper-left and lower-left diagonals of E(S) or of
    its block column, and tr(S N_j) takes one row per half, the upper
    and lower row halves of E(S) as vecs: their products with the vec of
    [C_j; D_j]'s columns are tr(AC - BD) and tr(BC + AD).  A real space is
    the case with one half.  The kernel is looked up on this module at
    each call.  Level 1 is the basis itself, so its traces are read off
    the stored grids before any column, vec or product is built, and a
    basis with a trace returns at once.
    """
    m, k = space.ambient_dim, space.dim
    embedded = any(any(map(any, n.im)) for n in space.basis)
    grids = [n.re + n.im if embedded else n.re for n in space.basis]  # [A; B], or A
    first = next(((i,) for i, grid in enumerate(grids) if _trace(grid, m)), None)
    if first is not None or m == 1:
        return first
    columns = [_columns(grid) for grid in grids]
    mats = [_embedding(_rows(grid), m) if embedded else _rows(grid) for grid in grids]
    vecs = [_vec(c) for c in columns]
    stacks = {}
    top = None
    level = []  # the stored S of level p-1, by position in its schedule
    for p in range(1, m):
        following = []
        g = 1 if p == 1 else 0  # the gcd of level p so far; the basis stays as it is
        for beta, parents, indices, i in _level_schedule(k, p):
            if p == 1:
                s_beta = mats[i]
            else:
                right = stacks.get(indices)
                if right is None:
                    right = stacks[indices] = _join([columns[x] for x in indices])
                s_beta = int_matmul(_join([level[a] for a in parents]), right)
                if embedded:
                    s_beta = _embedding(s_beta, m)
            if _trace(s_beta, m):
                return beta
            if p < m - 1:
                following.append(s_beta)
                if g != 1:
                    g = gcd(g, *chain.from_iterable(s_beta))
            elif top is None:
                halves = [_vec(s_beta[h : h + m]) for h in range(0, len(s_beta), m)]
                hits = int_matmul(halves, vecs[i:])
                if any(map(any, hits)):
                    top = beta + (i + next(j for j, t in enumerate(zip(*hits)) if any(t)),)
        if g > 1:
            following = [_divide(s, g) for s in following]
        level = following
    return top


# The grids of the expansion: a matrix is a list of rows, or of columns
# where it is a right factor, with twice the rows for a complex space.


def _rows(grid):
    return [*map(list, grid)]


def _columns(grid):
    return [*map(list, zip(*grid))]


def _embedding(grid, m: int):
    """E(S) = [[A, -B], [B, A]] from the rows of the block column [A; B]
    of S = A + iB."""
    top, bottom = grid[:m], grid[m:]
    return [a + [-x for x in b] for a, b in zip(top, bottom)] + [
        b + a for a, b in zip(top, bottom)
    ]


def _vec(grid):
    """The lines of a grid one after another: vec(S) of its rows, or
    vec(N^T) of its columns, so that tr(S N) is their dot product."""
    return [x for line in grid for x in line]


def _join(grids):
    """The grids' lines joined index by index: rows side by side, or
    columns stacked."""
    return [sum(lines, []) for lines in zip(*grids)]


def _trace(grid, m: int) -> int:
    """tr A, or else tr B, of E(S) or of the block column [A; B] of
    S = A + iB: the diagonals of the upper-left and lower-left m x m
    blocks.  A real grid has no lower block."""
    return sum(map(getitem, grid, range(m))) or (
        len(grid) > m and sum(map(getitem, grid[m:], range(m)))
    )


def _divide(grid, g: int):
    return [[x // g for x in row] for row in grid]


def _search_counterexample(space: OperatorSpace, beta: tuple[int, ...]) -> Matrix:
    """A non-nilpotent element on the simplex lattice Delta(|supp beta|,
    |beta|) over supp beta, every other coefficient zero, for beta with
    tr S_beta nonzero.

    With the t_i outside supp beta set to zero, tr((sum t_i N_i)^p) for
    p = |beta| is homogeneous of degree p and keeps the monomial t^beta,
    so it is nonzero at some point of that lattice (`simplex_points`);
    points go in its order.
    """
    support = sorted(set(beta))
    basis = [space.basis[i] for i in support]
    for point in simplex_points(len(support), len(beta)):
        cand = linear_combination(point, basis)
        if not is_nilpotent_matrix(cand):
            return cand
    raise InconsistencyError("nonzero trace but no grid counterexample exists")


def subspace_all_nilpotent(space: OperatorSpace) -> NilpotentSpaceReport:
    """Decide exactly whether every element of the space is nilpotent.

    The expansion runs whenever its work fits DEFAULT_SUBSPACE_BUDGET:
    for a k-dimensional space of m x m matrices, k * C(k+p-2, p-1)
    products S_alpha N_i at each level p = 2..m-1 and the C(k+m-1, m)
    traces of level m.  A larger space raises DomainError naming that
    count and the budget, so every report is decided, "exact-grid".
    """
    m = space.ambient_dim
    k = space.dim
    cost = sum(k * comb(k + p - 2, p - 1) for p in range(2, m)) + comb(k + m - 1, m)
    if cost > DEFAULT_SUBSPACE_BUDGET:
        raise DomainError(
            f"deciding a {k}-dimensional space of {m}x{m} matrices takes {cost} products, "
            f"above the budget of {DEFAULT_SUBSPACE_BUDGET}"
        )
    beta = _first_nonzero_trace(space)
    if beta is None:
        return NilpotentSpaceReport(True, "exact-grid")
    return NilpotentSpaceReport(False, "exact-grid", _search_counterexample(space, beta))


def gerstenhaber_check(
    space: OperatorSpace, report: NilpotentSpaceReport | None = None
) -> bool:
    """Dimension bound m(m-1)/2 for an all-nilpotent space of m x m
    matrices.  A violation contradicts the bound's theorem, so it raises
    as an internal inconsistency rather than returning False."""
    if report is None:
        report = subspace_all_nilpotent(space)
    if not report.all_nilpotent:
        raise ContractError("gerstenhaber_check requires an all-nilpotent space")
    m = space.ambient_dim
    bound = m * (m - 1) // 2
    if space.dim > bound:
        raise InconsistencyError(
            f"all-nilpotent space of dimension {space.dim} exceeds the bound {bound}"
        )
    return True


def _quotient_map(flag: Sequence[Matrix], m: int) -> Matrix:
    """Q with Q w = 0 exactly when w lies in span(flag): its rows are a
    kernel basis of the flag as rows, the identity for the empty flag."""
    if not flag:
        return Matrix.identity(m)
    return Matrix.from_columns(kernel_basis(Matrix.from_columns(flag).transpose())).transpose()


def strict_triangularize(space: OperatorSpace) -> Matrix | None:
    """Common-kernel recursion for a strictly triangularizing flag: the
    invertible P whose columns are the flag, so that P^{-1} T P is
    strictly upper triangular for every T in the space, or None.

    At stage s, with Q the quotient map modulo the current prefix span,
    the candidates are the kernel of Q T stacked over every basis T: the
    vectors w with T w inside the span.  The stacked grids are each Q T's
    integer grids without its denominator; scaling a row does not change
    the kernel.  The first candidate with Q w nonzero, that is outside
    the span, extends the flag.  Finding none is definitive.  The flag is
    not re-checked here: a representation built from it is checked by
    `verify_certificate`.
    """
    m = space.ambient_dim
    flag: list[Matrix] = []
    while len(flag) < m:
        q = _quotient_map(flag, m)
        images = [q @ t for t in space.basis] or [Matrix.zeros(1, m)]
        stacked = Matrix(
            1, [row for qt in images for row in qt.re], [row for qt in images for row in qt.im]
        )
        cand = next((w for w in kernel_basis(stacked) if not (q @ w).is_zero), None)
        if cand is None:
            return None
        flag.append(cand)
    return Matrix.from_columns(flag)


SPECIAL_PLANE_FIRST = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, -1, 0]])
SPECIAL_PLANE_SECOND = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def special_plane_member(alpha, beta) -> Matrix:
    """The exceptional plane of nilpotent 3 x 3 matrices that admits no
    strictly triangularizing flag; every 2-dimensional all-nilpotent plane
    in M_3 is conjugate either into the strict upper triangulars or onto
    this one."""
    return linear_combination((alpha, beta), (SPECIAL_PLANE_FIRST, SPECIAL_PLANE_SECOND))


@dataclass(frozen=True)
class SpecialForm:
    """Certified conjugacy onto the exceptional plane: conjugator P and a
    basis (first, second) of the input with P^{-1} first P and
    P^{-1} second P equal to the two canonical generators."""

    first: Matrix
    second: Matrix
    conjugator: Matrix


def classify_nilpotent_2dim_m3(space: OperatorSpace) -> Matrix | SpecialForm:
    """The dichotomy for 2-dimensional all-nilpotent planes in M_3: the
    conjugator of a strictly triangularizing flag, as `strict_triangularize`
    returns it, or else `special_plane_form`."""
    if space.ambient_dim != 3 or space.dim != 2:
        raise ContractError("expected a 2-dimensional space of 3x3 matrices")
    report = subspace_all_nilpotent(space)
    if not report.all_nilpotent:
        raise ContractError("expected an all-nilpotent space")
    p = strict_triangularize(space)
    return special_plane_form(space) if p is None else p


def special_plane_form(space: OperatorSpace) -> SpecialForm:
    """Conjugacy of an all-nilpotent plane in M_3 without a strictly
    triangularizing flag onto the exceptional plane.

    Fully deterministic: the kernel vector of the second basis element
    forces the first conjugator column and a single eigenvalue rescale
    fixes the remaining freedom: the second element maps the image of
    the kernel vector to delta times it, and is scaled by 1/delta, the
    ratio of the kernel vector to that image.  The produced conjugation
    is re-verified exactly.  A space that is not a plane in M_3 raises
    ContractError.
    """
    if space.ambient_dim != 3 or space.dim != 2:
        raise ContractError("expected a 2-dimensional space of 3x3 matrices")
    first, second = space.basis
    kernel = kernel_basis(second)
    if len(kernel) != 1:
        raise InconsistencyError("dichotomy violated: kernel is not a line")
    p1 = kernel[0]
    col2 = first @ p1
    image = second @ col2
    scale = None if image.is_zero else ratio(p1, image)
    if scale is None:
        raise InconsistencyError("dichotomy violated: no fixed line")
    second_scaled = scale * second
    col3 = -(first @ col2)
    conjugator = Matrix.from_columns([p1, col2, col3])
    try:
        p_inv = inverse(conjugator)
    except DomainError:
        raise InconsistencyError("dichotomy violated: singular conjugator") from None
    if (p_inv @ first @ conjugator) != SPECIAL_PLANE_FIRST or (
        p_inv @ second_scaled @ conjugator
    ) != SPECIAL_PLANE_SECOND:
        raise InconsistencyError("dichotomy violated: conjugation mismatch")
    return SpecialForm(first, second_scaled, conjugator)


# -- block flags on the coefficient products ---------------------------


def slice_span(g: GramMatrix) -> OperatorSpace:
    """span{S_st} for the scalar n x n slices S_st = [(b_k a_l)[s][t]]_kl,
    each reading one entry position across the block grid; zero slices
    are dropped and the earliest independent ones kept, in (s, t) order."""
    den = lcm(*(block.den for row in g.blocks for block in row))
    scaled = [[(block.re, block.im, den // block.den) for block in row] for row in g.blocks]
    slices = []
    for s in range(g.ambient_dim):
        for t in range(g.ambient_dim):
            m = Matrix(
                den,
                [[re[s][t] * f for re, _, f in row] for row in scaled],
                [[im[s][t] * f for _, im, f in row] for row in scaled],
            )
            if not m.is_zero:
                slices.append(m)
    return reduce_basis(slices, ambient_dim=g.n)


def block_strict_triangularize(g: GramMatrix) -> Matrix | None:
    """Scalar P making the blockwise conjugate P^{-1} G P vanish on and
    below the diagonal, or None when no such P exists.

    Entry (s, t) of block (i, j) of P^{-1} G P is entry (i, j) of
    P^{-1} S_st P, for the slices S_st of `slice_span`.  So P is exactly
    the conjugator `strict_triangularize` returns for the slice span.
    """
    return strict_triangularize(slice_span(g))


# -- nilpotency of phi(x) for every x ----------------------------------


def trace_condition_witness(phi: ElementaryOperator) -> Matrix | None:
    """Deterministic witness when sum b_i a_i is nonzero: tr(phi(x)) is
    x -> tr(x sum b_i a_i), so a single matrix unit exposes it."""
    s = sum_bi_ai(phi)
    for k in range(phi.dim):
        for l in range(phi.dim):
            if s.re[k][l] or s.im[k][l]:
                return Matrix.unit(phi.dim, l, k)
    return None


def witness_search(
    phi: ElementaryOperator,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    height: int = DEFAULT_WITNESS_HEIGHT,
) -> tuple[Matrix, int] | None:
    """Seeded sampling for x with phi(x) non-nilpotent: the first trial
    whose x `refutes` phi is returned with its number."""
    for t in range(1, trials + 1):
        x = random_matrix(phi.dim, derive_seed(seed, 40_000 + t), height)
        if refutes(phi, x):
            return x, t
    return None


def all_x_nilpotent(
    phi: ElementaryOperator, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> ClassificationVerdict:
    """Is phi(x) nilpotent for every x?  The one ladder is `classify`, and
    this name only delegates to it, because the benchmark traces it."""
    from .classify import classify

    return classify(phi, trials=trials, seed=seed)
