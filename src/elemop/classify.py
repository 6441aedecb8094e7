"""Decision procedure for local nilpotency at every length.

`classify` is one ladder of the paper's tests, exact end to end.  From
length 3 on, the vanishing of sum b_i a_i is a trace obstruction with a
deterministic refuting argument when it fails.  At every length a block
flag on the coefficient products settles the fully triangular form
(v_i u_j = 0 for i >= j), and at length <= 2 it is the whole decision.
For length 3 the remaining structure lives in the scalar slice span of
the block grid: writing the grid as sum_w S_w (x) M_w with scalar 3x3
matrices S_w, a representation change by P conjugates every S_w by P,
so the classification reduces to the dichotomy for 2-dimensional
nilpotent planes in M_3 followed by rank-one matching of the two
surviving blocks.  Past length 3 a failed flag is not a proof, so it
goes to the witness search alone.

Every positive verdict is built by `_lqn`, which returns it only once
`verify_certificate` accepts it; that independent verifier, the trust
boundary in `certificate`, also re-validates certificates from the
serialized data alone.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .certificate import (
    FORM_DIMV1,
    FORM_LENGTH2,
    FORM_PATTERN_I,
    FORM_SPECIAL_II,
    FORM_SPECIAL_III,
    ClassificationVerdict,
    FormParameters,
    _vectors_independent,
    refutes,
    verify_certificate,
)
from .errors import (
    ContractError,
    DimensionError,
    InconsistencyError,
    RankError,
)
from .exact import (
    Matrix,
    ONE,
    basis_vector,
    derive_seed,
    independent_subset,
    inverse,
    is_nilpotent_matrix,
    linear_combination,
    random_invertible,
    random_matrix,
    random_nonzero_vector,
    rank,
    ratio,
    zero_vector,
)
from .nilpotency import (
    DEFAULT_TRIALS,
    block_strict_triangularize,
    slice_span,
    special_plane_form,
    strict_triangularize,
    subspace_all_nilpotent,
    trace_condition_witness,
    witness_search,
    Flag,
)
from .operators import (
    ElementaryOperator,
    apply,
    change_left_basis,
    gram,
    local_matrix,
    minimal_length,
    similarity_transform,
    sum_bi_ai,
    v_space,
    left_space,
)
from .spaces import (
    rank_one_factor,
    reduce_basis,
    simultaneous_separating_vector,
)

GENERATOR_HEIGHT = 3


def necessary_trace_condition(phi: ElementaryOperator) -> bool:
    """sum b_i a_i = 0; failing it refutes local nilpotency outright."""
    return sum_bi_ai(phi).is_zero


def _refutation(
    phi: ElementaryOperator, trials: int, seed: int, branch: str
) -> ClassificationVerdict:
    """NotLQN with a witness, or Unknown when none is found.  At d <= 2
    every caller has proven phi not locally nilpotent, so a search that
    misses falls back on the complete integer grid."""
    # tr phi(w) is the nonzero entry of sum b_i a_i that w was read from
    w = trace_condition_witness(phi)
    if w is not None:
        return ClassificationVerdict(
            "NotLQN", witness=w, evidence={"branch": branch, "trials": 0}
        )
    found = witness_search(phi, trials=trials, seed=seed)
    if found is not None:
        x, used = found
        return ClassificationVerdict(
            "NotLQN", witness=x, evidence={"branch": branch, "trials": used}
        )
    if phi.dim <= 2:
        return ClassificationVerdict(
            "NotLQN", witness=_grid_refutation(phi), evidence={"branch": branch, "trials": trials}
        )
    return ClassificationVerdict(
        "Unknown", evidence={"branch": branch, "trials": trials}
    )


def _grid_refutation(phi: ElementaryOperator) -> Matrix:
    """An integer witness on the grid {0..d}^(d*d) for phi proven not
    locally nilpotent.

    tr(phi(x)^p) has degree at most p <= d in every entry of x, so if
    phi(x) were nilpotent at every point of the grid the identities would
    vanish everywhere; finding no witness contradicts the proof.
    """
    d = phi.dim
    for values in product(range(d + 1), repeat=d * d):
        x = Matrix.from_rows(
            [[values[i * d + j] for j in range(d)] for i in range(d)]
        )
        if refutes(phi, x):
            return x
    raise InconsistencyError("proven refutation but no grid witness exists")


def _lqn(
    phi: ElementaryOperator,
    form: str,
    rep: ElementaryOperator,
    branch: str,
    parameters: FormParameters | None = None,
) -> ClassificationVerdict:
    """The one builder of LQN verdicts: the verdict leaves only once the
    independent verifier accepts it against phi."""
    verdict = ClassificationVerdict(
        "LQN", form, rep, parameters=parameters, evidence={"branch": branch}
    )
    check = verify_certificate(phi, verdict)
    if not check:
        raise InconsistencyError(f"classifier produced an invalid certificate: {check.failed}")
    return verdict


def construct_triangular_rep(phi: ElementaryOperator) -> ElementaryOperator | None:
    """A representation with v_i u_j = 0 for all i >= j, or None.

    On success the strictly-upper zero pattern is exact and the product
    space dimension obeys the n(n-1)/2 bound by construction.
    """
    n, reduced = minimal_length(phi)
    if n == 0:
        return ElementaryOperator.zero(phi.dim)
    p = block_strict_triangularize(gram(reduced))
    if p is None:
        return None
    rep = similarity_transform(reduced, p)
    g = gram(rep)
    for i in range(n):
        for j in range(i + 1):
            if not g.block(i, j).is_zero:  # pragma: no cover
                raise InconsistencyError("block flag produced a nonzero lower block")
    if v_space(reduced).dim > n * (n - 1) // 2:  # pragma: no cover
        raise InconsistencyError("product space dimension exceeds its bound")
    return rep


def classify(
    phi: ElementaryOperator, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> ClassificationVerdict:
    """Classification at every minimal length, as one ladder.

    Deterministic except for witness sampling on refutations.  From
    length 3 on the trace obstruction comes first.  At every length the
    block flag is the strict flag of the slice span, built and
    triangularized once; at length <= 2 it is the whole decision.  At
    length 3, failing the flag, the span is conjugated onto the
    exceptional plane of M_3 and the two surviving blocks are matched as
    rank-one factors.  So at length <= 3 every refutation is proven, and
    Unknown means that no witness was found for it; past length 3 a
    failed flag proves nothing, and Unknown means no flag and no witness.
    At d <= 2 every refutation is proven and carries a witness.
    """
    n, reduced = minimal_length(phi)
    if n == 0:
        return _lqn(phi, FORM_LENGTH2, ElementaryOperator.zero(phi.dim), "zero operator")
    if n >= 3 and not necessary_trace_condition(reduced):
        return _refutation(reduced, trials, seed, branch="trace condition")
    slices = slice_span(gram(reduced))
    flag = strict_triangularize(slices)
    if isinstance(flag, Flag):
        rep = similarity_transform(reduced, Matrix.from_columns(flag.vectors))
        return _lqn(phi, FORM_PATTERN_I if n >= 3 else FORM_LENGTH2, rep, "block flag")
    if n < 3:
        return _refutation(reduced, trials, seed, branch="length2 block flag failed")
    if n > 3:
        return _refutation(reduced, trials, seed, branch="no block flag past length 3")
    if slices.dim != 2:
        return _refutation(
            reduced, trials, seed, branch=f"slice span has dimension {slices.dim}"
        )
    if not subspace_all_nilpotent(slices).all_nilpotent:
        return _refutation(reduced, trials, seed, branch="slice span not nilpotent")
    rep = similarity_transform(reduced, special_plane_form(slices).conjugator)
    # special_plane_form conjugates the slices exactly, which forces the
    # grid into [[0, X, 0], [Y, 0, X], [0, -Y, 0]]; _lqn re-checks it all
    g = gram(rep)
    x, y = g.block(0, 1), g.block(1, 0)
    try:
        fx, fy = rank_one_factor(x), rank_one_factor(y)
    except RankError:
        return _refutation(
            reduced, trials, seed, branch="pattern blocks are not rank one"
        )
    if fx.functional == fy.functional:
        params = FormParameters(zeta0=fy.column, zeta1=fx.column, f=fy.functional)
        return _lqn(phi, FORM_SPECIAL_II, rep, "shared functional", params)
    shared = ratio(fx.column, fy.column)
    if shared is not None:
        params = FormParameters(zeta0=fy.column, f=fy.functional, g=shared * fx.functional)
        return _lqn(phi, FORM_SPECIAL_III, rep, "shared column", params)
    return _refutation(
        reduced, trials, seed, branch="pattern blocks share no column or functional"
    )


def structure_dimv1(phi: ElementaryOperator) -> ClassificationVerdict:
    """Structure theory when the products span a single line.

    Builds a representation whose block grid is strictly upper in its
    leading r x r corner with vanishing right columns, where r is the
    local dimension of the left space; that shape certifies the power
    exponent r + 2 for every argument.  A non-nilpotent local matrix
    refutes instead, with the constructed argument as witness.
    """
    n, reduced = minimal_length(phi)
    if n == 0:
        raise ContractError("the zero operator has no product line")
    products = v_space(reduced)
    if products.dim != 1:
        raise ContractError(f"structure_dimv1 needs dim V = 1, got {products.dim}")
    w0 = products.basis[0]
    lspace = left_space(reduced)
    zeta = simultaneous_separating_vector([lspace, products], seed=derive_seed(0, 5))
    d = reduced.dim

    # Head indices: earliest a_i with independent images at zeta.  Each
    # tail a_t less its coordinates in the head images kills zeta; for
    # that left basis the right coefficients are unique.
    head, adjustments = independent_subset([a @ zeta for a, _ in reduced.pairs])
    r = len(head)
    left = [a for a, _ in reduced.pairs]
    head_left = [left[h] for h in head]
    adjusted = change_left_basis(
        reduced,
        head_left
        + [
            linear_combination((ONE, *(-c for c in coords)), (left[t], *head_left))
            for t, coords in adjustments.items()
        ],
    )

    w0_zeta = w0 @ zeta
    if w0_zeta.is_zero:  # pragma: no cover
        raise InconsistencyError("separating vector failed for the product line")
    x = _map_onto(zeta, w0_zeta, d)

    head_op = ElementaryOperator(d, adjusted.pairs[:r])
    local = local_matrix(head_op, zeta, x)
    if not is_nilpotent_matrix(local):
        if not refutes(phi, x):  # pragma: no cover
            raise InconsistencyError("non-nilpotent local matrix but nilpotent image")
        return ClassificationVerdict(
            "NotLQN", witness=x, evidence={"branch": "dimv1 local matrix", "trials": 0}
        )
    tri = strict_triangularize(reduce_basis([local], ambient_dim=r))
    if not isinstance(tri, Flag):  # pragma: no cover
        raise InconsistencyError("a nilpotent matrix failed to triangularize")
    adjusted_left = [a for a, _ in adjusted.pairs]
    new_left = [
        linear_combination(column.transpose().row(0), adjusted_left[:r])
        for column in tri.vectors
    ]
    new_left.extend(adjusted_left[r:])
    rep = change_left_basis(adjusted, new_left)

    return _lqn(phi, FORM_DIMV1, rep, "dimv1 structure", FormParameters(r=r))


def _map_onto(target: Matrix, source: Matrix, d: int) -> Matrix:
    """A matrix sending source to target and a complement of source to 0."""
    candidates = [source] + [basis_vector(d, i) for i in range(d)]
    kept, _ = independent_subset(candidates)
    return _targets_to_map(inverse(Matrix.from_columns([candidates[i] for i in kept])), [target], d)


def dim_phi_x_squared_range(phi: ElementaryOperator, x: Matrix) -> int:
    """Rank of phi(x)^2; bounded by 3 for the exceptional length-3 forms."""
    y = apply(phi, x)
    return rank(y @ y)


# -- generators ---------------------------------------------------------


def _targets_to_map(q_inv: Matrix, images: Sequence[Matrix], d: int) -> Matrix:
    """Matrix sending column j of q to images[j] and later columns to 0,
    given q_inv, the inverse of q."""
    padded = list(images) + [zero_vector(d)] * (d - len(images))
    return Matrix.from_columns(padded) @ q_inv


def generate(form: str, n: int, d: int, seed: int) -> ElementaryOperator:
    """Seeded instance generators for every canonical shape.

    Every instance is scrambled by a random representation change so the
    generating pattern is not syntactically visible.  Construction is
    solve-based: left coefficients get prescribed low-rank structure and
    the right coefficients are read off a linear system that is solvable
    by construction.
    """
    if form == "i":
        return _generate_pattern_i(n, d, seed)
    if form == "ii":
        return _generate_special(n, d, seed, shared="functional")
    if form == "iii":
        return _generate_special(n, d, seed, shared="column")
    if form == "remark45":
        return _generate_near_miss(n, d, seed)
    if form == "random":
        return _generate_random(n, d, seed)
    raise ContractError(f"unknown form {form!r}")


def _scramble(phi: ElementaryOperator, seed: int) -> ElementaryOperator:
    n = phi.term_count
    if n <= 1:
        return phi
    p = random_invertible(n, seed, GENERATOR_HEIGHT)
    return similarity_transform(phi, p)


def _generate_pattern_i(n: int, d: int, seed: int) -> ElementaryOperator:
    # The last right coefficient must kill every left column while staying
    # nonzero, so at least one spare dimension is needed.
    if n < 1 or d < n + 1:
        raise DimensionError(f"pattern i needs 1 <= n < d, got n={n}, d={d}")
    for attempt in range(64):
        s = derive_seed(seed, attempt)
        q = random_invertible(d, derive_seed(s, 1), GENERATOR_HEIGHT)
        q_inv = inverse(q)
        xi = [q.column(j) for j in range(n)]
        eta = [
            random_nonzero_vector(d, derive_seed(s, 10 + j), GENERATOR_HEIGHT)
            for j in range(n)
        ]
        u = [xi[j] @ eta[j].transpose() for j in range(n)]
        v = []
        for i in range(n):
            images = []
            for j in range(d):
                if (j < n and j > i) or j >= n:
                    images.append(
                        random_nonzero_vector(
                            d, derive_seed(s, 100 + 31 * i + j), GENERATOR_HEIGHT
                        )
                    )
                else:
                    images.append(zero_vector(d))
            v.append(_targets_to_map(q_inv, images, d))
        phi = ElementaryOperator.from_pairs(d, list(zip(u, v)))
        length, _ = minimal_length(phi)
        if length != n:
            continue
        if n >= 2 and v_space(phi).dim != n * (n - 1) // 2:
            continue
        return _scramble(phi, derive_seed(s, 999))
    raise InconsistencyError("pattern-i generator exhausted its attempts")  # pragma: no cover


def _generate_special(n: int, d: int, seed: int, shared: str) -> ElementaryOperator:
    if n != 3:
        raise DimensionError("the exceptional forms exist at length 3 only")
    minimum = 3 if shared == "functional" else 4
    if d < minimum:
        raise DimensionError(f"this form needs dimension >= {minimum}, got {d}")
    for attempt in range(64):
        s = derive_seed(seed, attempt)
        q = random_invertible(d, derive_seed(s, 1), GENERATOR_HEIGHT)
        if shared == "functional":
            f = random_nonzero_vector(d, derive_seed(s, 2), GENERATOR_HEIGHT)
            zeta0 = random_nonzero_vector(d, derive_seed(s, 3), GENERATOR_HEIGHT)
            zeta1 = random_nonzero_vector(d, derive_seed(s, 4), GENERATOR_HEIGHT)
            if not _vectors_independent(zeta0, zeta1):
                continue
            u = [q.column(j) @ f.transpose() for j in range(3)]
            zero = zero_vector(d)
            image_table = [[zero, zeta1, zero], [zeta0, zero, zeta1], [zero, -zeta0, zero]]
        else:
            f = random_nonzero_vector(d, derive_seed(s, 2), GENERATOR_HEIGHT)
            g_fun = random_nonzero_vector(d, derive_seed(s, 3), GENERATOR_HEIGHT)
            if not _vectors_independent(f, g_fun):
                continue
            zeta0 = random_nonzero_vector(d, derive_seed(s, 4), GENERATOR_HEIGHT)
            f_t, g_t = f.transpose(), g_fun.transpose()
            u = [
                q.column(0) @ f_t,
                q.column(1) @ g_t + q.column(2) @ f_t,
                q.column(3) @ g_t,
            ]
            zero = zero_vector(d)
            image_table = [
                [zero, zeta0, zero, zero],
                [zeta0, zero, zero, zeta0],
                [zero, zero, -zeta0, zero],
            ]
        q_inv = inverse(q)
        v = [_targets_to_map(q_inv, row, d) for row in image_table]
        phi = ElementaryOperator.from_pairs(d, list(zip(u, v)))
        if minimal_length(phi)[0] != 3:
            continue
        return _scramble(phi, derive_seed(s, 999))
    raise InconsistencyError("special form generator exhausted its attempts")  # pragma: no cover


def _generate_near_miss(n: int, d: int, seed: int) -> ElementaryOperator:
    """The exceptional scalar shape with rank-two blocks: passes the trace
    obstruction yet is certifiably not locally nilpotent."""
    if n != 3:
        raise DimensionError("the near-miss family exists at length 3 only")
    if d < 4:
        raise DimensionError(f"the near-miss family needs dimension >= 4, got {d}")
    for attempt in range(64):
        s = derive_seed(seed, attempt)
        q = random_invertible(d, derive_seed(s, 1), GENERATOR_HEIGHT)
        r_src = random_invertible(d, derive_seed(s, 2), GENERATOR_HEIGHT)
        c_cols = [q.column(0), q.column(1)]
        c_mat = Matrix.from_columns(c_cols)
        r_mat = Matrix(r_src.den, r_src.re[:2], r_src.im[:2])
        lam_x = random_invertible(2, derive_seed(s, 3), GENERATOR_HEIGHT)
        lam_y = random_invertible(2, derive_seed(s, 4), GENERATOR_HEIGHT)
        quotient = inverse(lam_y) @ lam_x
        if _is_scalar_matrix(quotient):
            continue
        basis_q = random_invertible(d, derive_seed(s, 5), GENERATOR_HEIGHT)
        s1 = Matrix.from_columns([basis_q.column(0), basis_q.column(1)])
        s2 = Matrix.from_columns([basis_q.column(2), basis_q.column(3)])
        s3 = s1 @ quotient
        u = [s1 @ r_mat, s2 @ r_mat, s3 @ r_mat]
        zero2 = [zero_vector(d)] * 2
        cx = c_mat @ lam_x
        cy = c_mat @ lam_y
        tables = [
            zero2 + [cx.column(0), cx.column(1)],
            [cy.column(0), cy.column(1)] + zero2,
            zero2 + [-cy.column(0), -cy.column(1)],
        ]
        basis_q_inv = inverse(basis_q)
        v = [_targets_to_map(basis_q_inv, row, d) for row in tables]
        phi = ElementaryOperator.from_pairs(d, list(zip(u, v)))
        if minimal_length(phi)[0] != 3:
            continue
        if not sum_bi_ai(phi).is_zero:  # pragma: no cover
            continue
        return _scramble(phi, derive_seed(s, 999))
    raise InconsistencyError("near-miss generator exhausted its attempts")  # pragma: no cover


def _is_scalar_matrix(m: Matrix) -> bool:
    c = m.entry(0, 0)
    d = m.rows
    return m == c * Matrix.identity(d)


def _generate_random(n: int, d: int, seed: int) -> ElementaryOperator:
    """n pairs of seeded random matrices.  The coefficient tensor of an
    operator on M_d is d^2 x d^2, so no operator has length above d^2,
    and a longer request is refused before any matrix is drawn."""
    if n < 1:
        raise DimensionError("random operators need at least one pair")
    if n > d * d:
        raise DimensionError(f"an operator on M_{d} has length at most {d * d}, got n={n}")
    pairs = []
    for i in range(n):
        a = random_matrix(d, derive_seed(seed, 2 * i), GENERATOR_HEIGHT)
        b = random_matrix(d, derive_seed(seed, 2 * i + 1), GENERATOR_HEIGHT)
        pairs.append((a, b))
    return ElementaryOperator.from_pairs(d, pairs)

