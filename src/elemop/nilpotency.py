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
(tracemalloc, Python 3.11).  One loop walks the schedule, with its
arithmetic picked once per space: a real space holds each S as one
integer grid and multiplies with `int_matmul`, any other holds (re, im)
grids and multiplies with `gaussian_int_matmul`, and each level's S are
a list indexed by schedule position.  Below the top level each multiset is one kernel product: its
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
traces of every alpha + (i,), and level m-1 is never stored.  The gate
counts that work: k * C(k+p-2, p-1) products S_alpha N_i of m x m
matrices at each level p = 2..m-1, plus the C(k+m-1, m) traces of level
m, where the ordered words would take k + k^2 + ... + k^m.  The first
multiset beta with a nonzero trace pins an explicit counterexample on
the integer grid {0..|beta|} over the support of beta.

Simultaneous strict triangularization is a common-kernel recursion: a
space admits a strictly triangularizing flag iff at every stage some
vector outside the current flag is killed into it by every basis element.
The greedy choice is complete because quotients inherit the property.
It is the one flag recursion.  The block flag of an operator is a scalar
P making the blockwise conjugate P^{-1} G P of its block grid
G = (b_i a_j) vanish on and below the diagonal; read at one entry
position (s, t), that conjugate is P^{-1} S_st P for the scalar slice
S_st = [(b_k a_l)[s][t]]_kl, so P is a strictly triangularizing flag of
the slice span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from math import comb, gcd, lcm
from operator import getitem
from typing import Sequence

from .certificate import ClassificationVerdict, refutes
from .errors import ContractError, DomainError, InconsistencyError
from .exact import (
    Matrix,
    derive_seed,
    gaussian_int_matmul,
    int_matmul,
    inverse,
    is_nilpotent_matrix,
    kernel_basis,
    linear_combination,
    random_matrix,
    ratio,
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
    (over both grids on the Gaussian path, so one integer divides the
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

    Whether every basis element is real is read once, from the input, and
    picks the arithmetic: a real space holds each S as one integer grid
    and multiplies with `int_matmul`, any other holds (re, im) grids and
    multiplies with `gaussian_int_matmul`.  Both give the same integer
    traces, so the verdict does not depend on the path.  The kernels are
    looked up on this module at each call.  Level 1 is the basis itself,
    so its traces are read off the stored row grids before any column,
    vec or product is built, and a basis with a trace returns at once.
    """
    m, k = space.ambient_dim, space.dim
    first = next(((i,) for i, n in enumerate(space.basis) if _trace(n.re) or _trace(n.im)), None)
    if first is not None or m == 1:
        return first
    if any(any(map(any, n.im)) for n in space.basis):
        mats = [(_rows(n.re), _rows(n.im)) for n in space.basis]
        columns = [(_columns(re), _columns(im)) for re, im in mats]
        vecs = [_vec(re) for re, _ in columns], [_vec(im) for _, im in columns]
        join, multiply = _gaussian_join, _gaussian_product
        trace, traces = _gaussian_trace, _gaussian_traces
        content, divide = _gaussian_content, _gaussian_divide
    else:
        mats = [_rows(n.re) for n in space.basis]
        columns = [_columns(s) for s in mats]
        vecs = [_vec(c) for c in columns]
        join, multiply = _join, int_matmul
        trace, traces = _trace, _traces
        content, divide = _content, _divide
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
                    right = stacks[indices] = join([columns[x] for x in indices])
                s_beta = multiply(join([level[a] for a in parents]), right)
            if trace(s_beta):
                return beta
            if p < m - 1:
                following.append(s_beta)
                if g != 1:
                    g = content(s_beta, g)
            elif top is None:
                hits = traces(s_beta, vecs, i)
                if any(hits):
                    top = beta + (i + next(j for j, t in enumerate(hits) if t),)
        if g > 1:
            following = [divide(s, g) for s in following]
        level = following
    return top


# The arithmetic of the expansion.  A real space holds each matrix as one
# integer grid, a list of rows, or of columns where it is a right factor,
# and multiplies with `int_matmul`; any other holds an (re, im) pair of
# grids and multiplies with `gaussian_int_matmul`.


def _rows(grid):
    return [*map(list, grid)]


def _columns(grid):
    return [*map(list, zip(*grid))]


def _vec(grid):
    """The lines of a grid one after another: vec(S) of its rows, or
    vec(N^T) of its columns, so that tr(S N) is their dot product."""
    return [x for line in grid for x in line]


def _join(grids):
    """The grids' lines joined index by index: rows side by side, or
    columns stacked."""
    return [sum(lines, []) for lines in zip(*grids)]


def _trace(grid) -> int:
    return sum(map(getitem, grid, range(len(grid))))


def _content(grid, g: int) -> int:
    """gcd(g, every entry of the grid)."""
    return gcd(g, *chain.from_iterable(grid))


def _divide(grid, g: int):
    return [[x // g for x in row] for row in grid]


def _traces(grid, vecs, i: int) -> list[int]:
    """tr(S N_j) for j >= i, from vec(S) and the vec(N_j^T)."""
    return int_matmul([_vec(grid)], vecs[i:])[0]


def _gaussian_join(pairs):
    return _join([re for re, _ in pairs]), _join([im for _, im in pairs])


def _gaussian_product(left, right):
    return gaussian_int_matmul(*left, *right)


def _gaussian_trace(pair) -> int:
    return _trace(pair[0]) or _trace(pair[1])


def _gaussian_content(pair, g: int) -> int:
    """gcd(g, every entry of both grids), so that one integer divides
    the Gaussian matrix."""
    return gcd(g, *chain.from_iterable(pair[0]), *chain.from_iterable(pair[1]))


def _gaussian_divide(pair, g: int):
    return _divide(pair[0], g), _divide(pair[1], g)


def _gaussian_traces(pair, vecs, i: int) -> list[int]:
    """Of each such trace, its real part or else its imaginary part."""
    re, im = gaussian_int_matmul([_vec(pair[0])], [_vec(pair[1])], vecs[0][i:], vecs[1][i:])
    return [a or b for a, b in zip(re[0], im[0])]


def _search_counterexample(space: OperatorSpace, beta: tuple[int, ...]) -> Matrix:
    """A non-nilpotent element on the grid {0..|beta|} over supp beta,
    every other coefficient zero, for beta with tr S_beta nonzero.

    With the t_i outside supp beta set to zero, tr((sum t_i N_i)^p) for
    p = |beta| keeps the monomial t^beta and has degree at most p in
    each remaining variable, so it is nonzero at some point of that grid
    (Alon, Combinatorial Nullstellensatz, 1999); points go in product
    order.
    """
    support = sorted(set(beta))
    basis = [space.basis[i] for i in support]
    for point in product(range(len(beta) + 1), repeat=len(support)):
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


@dataclass(frozen=True)
class Flag:
    """Ordered independent vectors whose prefix spans are strictly shrunk
    by every element of the triangularized space."""

    vectors: tuple[Matrix, ...]


@dataclass(frozen=True)
class NotTriangularizable:
    stage: int


def _quotient_map(flag: Sequence[Matrix], m: int) -> Matrix:
    """Q with Q w = 0 exactly when w lies in span(flag): its rows are a
    kernel basis of the flag as rows, the identity for the empty flag."""
    if not flag:
        return Matrix.identity(m)
    return Matrix.from_columns(kernel_basis(Matrix.from_columns(flag).transpose())).transpose()


def strict_triangularize(space: OperatorSpace) -> Flag | NotTriangularizable:
    """Common-kernel recursion for a strictly triangularizing flag.

    At stage s, with Q the quotient map modulo the current prefix span,
    the candidates are the kernel of Q T stacked over every basis T: the
    vectors w with T w inside the span.  The stacked grids are each Q T's
    integer grids without its denominator; scaling a row does not change
    the kernel.  The first candidate with Q w nonzero, that is outside
    the span, extends the flag.  Finding none reports the stage (counting
    from 1) and is definitive.
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
            return NotTriangularizable(stage=len(flag) + 1)
        flag.append(cand)
    result = Flag(tuple(flag))
    _check_flag(space, result)
    return result


def _check_flag(space: OperatorSpace, flag: Flag):
    """Machine-check the flag invariant before handing the flag out: with
    P the flag as columns, every basis T maps each v_k into the span of
    v_0..v_(k-1) exactly when P^{-1} T P is strictly upper triangular."""
    p = Matrix.from_columns(flag.vectors)
    p_inv = inverse(p)
    for t in space.basis:
        c = p_inv @ t @ p
        for i in range(c.rows):
            for k in range(i + 1):
                if c.re[i][k] or c.im[i][k]:
                    raise InconsistencyError(f"flag invariant failed at position {k}")


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


def classify_nilpotent_2dim_m3(space: OperatorSpace) -> Flag | SpecialForm:
    """The dichotomy for 2-dimensional all-nilpotent planes in M_3: a
    strictly triangularizing flag, or else `special_plane_form`."""
    if space.ambient_dim != 3 or space.dim != 2:
        raise ContractError("expected a 2-dimensional space of 3x3 matrices")
    report = subspace_all_nilpotent(space)
    if not report.all_nilpotent:
        raise ContractError("expected an all-nilpotent space")
    tri = strict_triangularize(space)
    if isinstance(tri, Flag):
        return tri
    return special_plane_form(space)


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
    a strictly triangularizing flag of the slice span, as columns.
    """
    flag = strict_triangularize(slice_span(g))
    return Matrix.from_columns(flag.vectors) if isinstance(flag, Flag) else None


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
