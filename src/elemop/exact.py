"""Exact dense linear algebra over the Gaussian rationals.

Scalars are complex numbers whose real and imaginary parts are rationals
kept in lowest terms.  Matrices are dense, immutable and row-major, stored
only as Gaussian-integer grids over one canonical denominator; the
kernels compute on those grids, and a matrix builds Scalars only when its
entries are read.  Printing reads the grids too: `fraction_text` spells
one part x/den, and matrix text, Scalar and Polynomial text and the JSON
writers all go through it.  A vector is a d x 1 `Matrix`, so products,
sums and scalings of vectors are the matrix ones and there is one storage
format.
Every operation is exact: there is no floating point anywhere in this
module, and equality always means structural equality of reduced forms.

Every multiply-accumulate on the grids, linear combinations, the
coefficient tensor, `ratio`, divisions and the elimination's row steps
included, is a call of `gaussian_int_matmul` (real branch `int_matmul`).
`Scalar` has no arithmetic: it is parsed, compared and printed, and a
scalar factor enters a product as a 1 x 1 `Matrix`.  A representation
change is one kernel product, `linear_combinations`, of a coefficient
matrix against the stacked matrices, and the one division by a Gaussian
integer is `gaussian_int_divide`.

There is one elimination, `rref`, a fraction-free Gauss-Jordan on
Gaussian-integer row grids, and one reader of it, `independent_subset`:
which of some same-shape matrices are kept, and the coordinates of all
of them in the kept ones, as one `Matrix`.  It is the one place that
turns grids into `rref` rows, and the coordinates stay on the grids.
It eliminates on the short side: n matrices of more than n entries, such
as the coefficients of an operator on M_d, give the n x n Hermitian Gram
matrix A^H A of the vec grid A, whose reduced form is that of A, and
other shapes give A itself.  `rank`, `kernel_basis`, `solve` and
`inverse` are questions to it, and no other module eliminates.

Randomness is only available through explicit seeds, so any value produced
here can be regenerated bit for bit on any platform.  Deterministic
candidate searches walk the simplex lattice of `simplex_points` instead.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError, ShapeError

_ZERO = Fraction(0)


def fraction_text(x: int, den: int) -> str:
    """The canonical spelling of x/den for den >= 1, equal to
    str(Fraction(x, den)) byte for byte: "p", or "p/q" in lowest terms
    with q > 1.

    The one printer of numbers: matrix text, Scalar and Polynomial text
    and the JSON writers read every part through it.  A part too long for
    the interpreter's integer-to-text limit raises DomainError, so an
    oversized number is bad input, never a crash.
    """
    try:
        if den == 1:
            return str(x)
        g = gcd(x, den)
        if g == den:
            return str(x // g)
        return f"{x // g}/{den // g}"
    except ValueError:
        raise DomainError(
            f"a number has more than {sys.get_int_max_str_digits()} digits, too long to print"
        ) from None


def _gaussian_text(re: str, im: str) -> str:
    """The text of re + im*i from its two part texts: "re", "imi" or
    "re+imi" / "re-imi", leaving out a zero part."""
    if im == "0":
        return re
    if re == "0":
        return f"{im}i"
    return f"{re}{'' if im[0] == '-' else '+'}{im}i"


def _fraction(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value.lower():
            raise DomainError(f"decimal literal {value!r} is not an exact rational")
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(f"float {value!r} rejected: arithmetic here is exact")
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational re + im*i with both parts reduced fractions: a
    value that is parsed, compared and printed.  It has no arithmetic;
    sums, products and quotients are formed on the grids of `Matrix`."""

    re: Fraction
    im: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "re", _fraction(self.re))
        object.__setattr__(self, "im", _fraction(self.im))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __str__(self) -> str:
        re, im = self.re, self.im
        return _gaussian_text(
            fraction_text(re.numerator, re.denominator), fraction_text(im.numerator, im.denominator)
        )

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar(0)
ONE = Scalar(1)
I_UNIT = Scalar(0, 1)


def scalar(re, im=0) -> Scalar:
    return Scalar(_fraction(re), _fraction(im))


def _entry(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, tuple) and len(value) == 2:
        return Scalar(_fraction(value[0]), _fraction(value[1]))
    return Scalar(_fraction(value))


def vector(values: Iterable) -> "Matrix":
    """The column with these entries, as `Matrix.from_rows` reads them."""
    return Matrix.from_rows([v] for v in values)


def zero_vector(dim: int) -> "Matrix":
    return Matrix.zeros(dim, 1)


def basis_vector(dim: int, index: int) -> "Matrix":
    return Matrix(1, tuple((int(r == index),) for r in range(dim)), ((0,),) * dim)


@dataclass(frozen=True)
class Matrix:
    """A dense matrix of Gaussian rationals with exact arithmetic.

    The one stored form is the canonical triple (den, re, im): the matrix
    is (re + i*im)/den for integer row grids re and im, with den >= 1 and
    gcd(den, every grid entry) == 1.  So den is the least common
    denominator of the entries, and equal matrices have equal fields and
    equal hashes.  The constructor normalizes any triple with den != 0 to
    that form, and the kernels below build their results from grids
    directly.
    Scalar input is converted once, by `from_rows`; `Scalar`s are built
    only when read, by `entry`, `row` and `entries`, and none of them is
    cached.  `to_text`, the repr and the JSON reader and writers work on
    the grids and build none.

    A vector is a d x 1 matrix: `column` reads one from the grids,
    `from_columns` joins them, and a vector times a scalar, a matrix or
    another vector's transpose is the matrix product.  Immutable; all
    binary operations require exactly matching shapes.
    """

    den: int
    re: tuple[tuple[int, ...], ...]
    im: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.re or not self.re[0]:
            raise ShapeError("matrices must have at least one row and column")
        den, re, im = self.den, self.re, self.im
        if den < 1:
            if not den:
                raise DomainError("a matrix denominator must not be zero")
            den = -den
            re = [[-x for x in row] for row in re]
            im = [[-x for x in row] for row in im]
        g = den if den == 1 else gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        if g > 1:
            den //= g
            re = [[x // g for x in row] for row in re]
            im = [[x // g for x in row] for row in im]
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "re", tuple(map(tuple, re)))
        object.__setattr__(self, "im", tuple(map(tuple, im)))

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        """The matrix with these entries (ints, Fractions, strings,
        (re, im) pairs or Scalars), cleared to the least common
        denominator."""
        rows = [[_entry(v) for v in row] for row in rows]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ShapeError("ragged rows")
        den = lcm(*(f.denominator for row in rows for s in row for f in (s.re, s.im)))
        return cls(
            den,
            [[s.re.numerator * (den // s.re.denominator) for s in row] for row in rows],
            [[s.im.numerator * (den // s.im.denominator) for s in row] for row in rows],
        )

    @classmethod
    def from_columns(cls, cols: Sequence["Matrix"]) -> "Matrix":
        """The matrix whose columns are these d x 1 matrices, joined on
        their grids over the least common denominator."""
        if not cols:
            raise ShapeError("no columns given")
        if any(c.cols != 1 for c in cols):
            raise ShapeError("columns must be d x 1 matrices")
        if any(c.rows != cols[0].rows for c in cols):
            raise ShapeError("ragged columns")
        den = lcm(*(c.den for c in cols))
        scaled = [(den // c.den, c) for c in cols]
        return cls(
            den,
            [[s * c.re[r][0] for s, c in scaled] for r in range(cols[0].rows)],
            [[s * c.im[r][0] for s, c in scaled] for r in range(cols[0].rows)],
        )

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        zero = ((0,) * cols,) * rows
        return cls(1, zero, zero)

    @classmethod
    def identity(cls, dim: int) -> "Matrix":
        grid = tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
        return cls(1, grid, ((0,) * dim,) * dim)

    @classmethod
    def unit(cls, dim: int, i: int, j: int) -> "Matrix":
        """The square matrix unit with a single 1 at (i, j), zero-indexed."""
        grid = tuple(tuple(int((r, c) == (i, j)) for c in range(dim)) for r in range(dim))
        return cls(1, grid, ((0,) * dim,) * dim)

    @classmethod
    def diagonal(cls, values: Iterable) -> "Matrix":
        vals = list(values)
        d = len(vals)
        return cls.from_rows([[vals[i] if i == j else ZERO for j in range(d)] for i in range(d)])

    # -- shape and access ---------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.re)

    @property
    def cols(self) -> int:
        return len(self.re[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.re)) and not any(map(any, self.im))

    def entry(self, i: int, j: int) -> Scalar:
        return _scalar_over(self.re[i][j], self.im[i][j], self.den)

    def row(self, i: int) -> tuple[Scalar, ...]:
        den = self.den
        return tuple(_scalar_over(x, y, den) for x, y in zip(self.re[i], self.im[i]))

    def column(self, j: int) -> "Matrix":
        """Column j as a d x 1 matrix, read from the grids."""
        return Matrix(self.den, tuple((r[j],) for r in self.re), tuple((r[j],) for r in self.im))

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The rows as Scalars, built on every read."""
        return tuple(self.row(i) for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.den, tuple(zip(*self.re)), tuple(zip(*self.im)))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return linear_combinations(_SUM, (self, other))[0]

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return linear_combinations(_DIFFERENCE, (self, other))[0]

    def __neg__(self):
        return linear_combinations(_NEGATION, (self,))[0]

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, str, Scalar)):
            return NotImplemented
        return linear_combination((other,), (self,))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix(
            self.den * other.den, *gaussian_int_matmul(self.re, self.im, *grid_columns(other))
        )

    def power(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ShapeError("powers need a square matrix")
        if k < 0:
            raise DomainError("negative matrix powers are not supported")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def _text_rows(self) -> list[str]:
        """One "[e, e, ...]" per row, each entry printed from the grids as
        its Scalar prints."""
        den = self.den
        return [
            "["
            + ", ".join(
                _gaussian_text(fraction_text(x, den), fraction_text(y, den)) for x, y in zip(re, im)
            )
            + "]"
            for re, im in zip(self.re, self.im)
        ]

    def to_text(self) -> str:
        """Fixed row-major layout with reduced fractions, for reports."""
        return "\n".join(self._text_rows())

    def __repr__(self) -> str:
        return f"Matrix({'; '.join(self._text_rows())})"


#: The coefficient rows of Matrix +, - and negation.
_SUM = Matrix(1, ((1, 1),), ((0, 0),))
_DIFFERENCE = Matrix(1, ((1, -1),), ((0, 0),))
_NEGATION = Matrix(1, ((-1,),), ((0,),))


def grid_columns(m: Matrix):
    """m's real and imaginary column lists, the form in which the kernels
    take a right factor.  The imaginary list is None for a real m, whose
    zero grid is then never transposed."""
    return _grid_columns(m.re, m.im)


def _grid_columns(re_g, im_g):
    """`grid_columns` of the matrix with these row grids."""
    return [*zip(*re_g)], ([*zip(*im_g)] if any(map(any, im_g)) else None)


def _scalar_over(x: int, y: int, den: int) -> Scalar:
    """(x + i*y)/den, sharing one zero scalar and one zero part: real
    matrices have a zero imaginary part in every entry."""
    if not x and not y:
        return ZERO
    return Scalar(Fraction(x, den) if x else _ZERO, Fraction(y, den) if y else _ZERO)


#: Products with fewer output entries than this stay on the fused loop:
#: there the two realness scans cost more than the dot products save
#: (measured on CPython 3.11, where 2 x 2 and 1 x L by L x 1 products run
#: faster fused).
_DOT_MIN_ENTRIES = 9


def int_matmul(a, b_cols):
    """The product of two integer matrices, a held as its rows and b as
    its columns, as a new row grid; the inputs are only read.

    Every output entry is one integer dot product of a row of a with a
    column of b.  Taking b by columns leaves the transposition to the
    caller, which makes it once per matrix rather than once per product.
    This is the one integer dot-product loop: the real branch of
    `gaussian_int_matmul` and the real-space trace-identity expansion run
    on it.
    """
    return [[sum(map(mul, r, c)) for c in b_cols] for r in a]


def gaussian_int_matmul(a_re, a_im, b_re_cols, b_im_cols):
    """The product of two Gaussian-integer matrices, a held as real and
    imaginary row grids, such as a `Matrix` stores, and b as its real and
    imaginary column lists, the transposes of such grids; b_im_cols may be
    None for a real b, as `grid_columns` gives it.

    Returns new (re_grid, im_grid) row lists; the inputs are only read.
    This is the one product loop on Gaussian-integer grids:
    `Matrix.__matmul__`, `operators.apply`, `operators.sum_bi_ai`,
    `is_nilpotent_matrix` and `char_poly` take their right factor from
    `grid_columns`, the linear combinations and the coefficient tensor
    stack vecs, the row steps of `rref` pair two rows as columns,
    `gaussian_int_divide` multiplies a column of entries by conj(z),
    `independent_subset` takes the vecs as both factors of the Gram
    matrix of a tall grid, and the trace-identity expansion of complex
    spaces builds its right factors as columns.

    When both imaginary parts are all zero, the real grid is
    `int_matmul(a_re, b_re_cols)` and the imaginary grid is zero.
    Otherwise, and for products with few entries, each entry takes the
    four real products in one fused loop over a row and a column pair.
    """
    if (
        len(a_re) * len(b_re_cols) >= _DOT_MIN_ENTRIES
        and not any(map(any, a_im))
        and (b_im_cols is None or not any(map(any, b_im_cols)))
    ):
        return int_matmul(a_re, b_re_cols), [[0] * len(b_re_cols) for _ in a_re]
    if b_im_cols is None:
        b_im_cols = [(0,) * len(b_re_cols[0])] * len(b_re_cols)
    cols = [*zip(b_re_cols, b_im_cols)]
    out_re, out_im = [], []
    for ar, ai in zip(a_re, a_im):
        row_re, row_im = [], []
        for br, bi in cols:
            acc_re = 0
            acc_im = 0
            for x, y, u, v in zip(ar, ai, br, bi):
                acc_re += x * u - y * v
                acc_im += x * v + y * u
            row_re.append(acc_re)
            row_im.append(acc_im)
        out_re.append(row_re)
        out_im.append(row_im)
    return out_re, out_im


def gaussian_int_combination(c_re, c_im, terms, rows: int, cols: int):
    """(common, [(re_grid, im_grid), ...]), one pair per row of the
    coefficient grid c = c_re + i*c_im: row r over common is the sum of
    c[r][j] (g_re + i*g_im)/den over the terms j = (den, g_re, g_im) of
    rows x cols Gaussian-integer grids.  The inputs are only read.

    common is the lcm of the dens of the terms with a nonzero coefficient
    column, 1 when there are none.  One kernel product for all the rows:
    the coefficient rows, column j scaled by common/den_j, times the
    columns of the kept terms' row-major vecs stacked.  The summation
    step of `linear_combinations`, `ratio`, `operators.apply` and
    `sum_bi_ai`.
    """
    live = [
        j for j in range(len(terms)) if any(r[j] for r in c_re) or any(r[j] for r in c_im)
    ]
    if not live:
        zero = [[0] * cols for _ in range(rows)]
        return 1, [(zero, zero) for _ in c_re]
    common = lcm(*(terms[j][0] for j in live))
    scales = [(j, common // terms[j][0]) for j in live]
    re, im = gaussian_int_matmul(
        [[s * r[j] for j, s in scales] for r in c_re],
        [[s * r[j] for j, s in scales] for r in c_im],
        *_grid_columns([_vec(terms[j][1]) for j in live], [_vec(terms[j][2]) for j in live]),
    )
    return common, [(_unvec(x, cols), _unvec(y, cols)) for x, y in zip(re, im)]


def _unvec(flat, cols: int):
    """The row grid whose row-major vec is flat, cols entries a row."""
    return [flat[r : r + cols] for r in range(0, len(flat), cols)]


def linear_combinations(coeffs: Matrix, mats: Sequence[Matrix]) -> list[Matrix]:
    """Row r of coeffs against mats: the matrices sum_j coeffs[r, j] M_j,
    one per row, over matrices of one shape.  All rows are one kernel
    product, `gaussian_int_combination`, and every result is built on
    its grids over coeffs.den times the common denominator of the M_j.
    Representation changes are one call each; Matrix +, - and negation
    are one-row calls.
    """
    if not mats or coeffs.cols != len(mats):
        raise ShapeError("a linear combination needs one coefficient per matrix, at least one")
    rows, cols = mats[0].rows, mats[0].cols
    for m in mats:
        if m.rows != rows or m.cols != cols:
            raise ShapeError(f"shape mismatch: {rows}x{cols} vs {m.rows}x{m.cols}")
    common, grids = gaussian_int_combination(
        coeffs.re, coeffs.im, [(m.den, m.re, m.im) for m in mats], rows, cols
    )
    return [Matrix(coeffs.den * common, re, im) for re, im in grids]


def linear_combination(coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """The exact sum of c_k M_k: the one-row case of
    `linear_combinations`, its coefficients (ints, Fractions, strings,
    pairs or Scalars) parsed once by `Matrix.from_rows`.  Scaling a
    Matrix is one call of it.
    """
    return linear_combinations(Matrix.from_rows([coeffs]), mats)[0]


def coefficient_tensor_is_zero(pairs: Sequence[tuple[Matrix, Matrix]]) -> bool:
    """Whether sum_i vec(a_i) vec(b_i)^T is the zero matrix.

    Row-major vec, so entry ((p, k), (l, q)) is (sum_i a_i E_kl b_i)[p, q]
    and this decides exactly whether x -> sum a_i x b_i is the zero map.
    The tensor is the kernel product of the vec(a_i) side by side and the
    vec(b_i) stacked over one common denominator, made d rows per call,
    so a call holds O(d^3) entries and the first nonzero block answers.
    """
    if not pairs:
        return True
    common = lcm(*(a.den * b.den for a, b in pairs))
    scales = [common // (a.den * b.den) for a, b in pairs]
    right = _grid_columns(
        [[s * x for x in chain.from_iterable(b.re)] for s, (_, b) in zip(scales, pairs)],
        [[s * x for x in chain.from_iterable(b.im)] for s, (_, b) in zip(scales, pairs)],
    )
    left_re = [*zip(*(chain.from_iterable(a.re) for a, _ in pairs))]
    left_im = [*zip(*(chain.from_iterable(a.im) for a, _ in pairs))]
    step = pairs[0][0].cols
    for r in range(0, len(left_re), step):
        re, im = gaussian_int_matmul(left_re[r : r + step], left_im[r : r + step], *right)
        if any(map(any, re)) or any(map(any, im)):
            return False
    return True


def trace(m: Matrix) -> Scalar:
    if not m.is_square:
        raise ShapeError("trace needs a square matrix")
    diagonal = range(m.rows)
    return _scalar_over(
        sum(m.re[i][i] for i in diagonal), sum(m.im[i][i] for i in diagonal), m.den
    )


# -- row reduction and everything built on it -------------------------


def rref(re, im):
    """Fraction-free reduced row echelon form of the Gaussian-integer row
    grid re + i*im; the inputs are only read.  Its one caller,
    `independent_subset`, passes the short side of its grid: the vec
    grid, or for a tall one its n x n Hermitian Gram matrix.

    Returns (pivots, re_rows, im_rows, last): the pivot column indices,
    the nonzero reduced rows as real and imaginary row grids and the last
    pivot D as a pair (re, im), (1, 0) for a zero grid.  Row k holds D in
    column pivots[k] and zeros in the other pivot columns, so the rows
    over D are the reduced row echelon form.

    Gauss-Jordan in Bareiss's integer-preserving form (Sylvester's
    identity and multistep integer-preserving Gaussian elimination, Math.
    Comp. 22, 1968).  Zero rows are dropped first.  At each pivot p every
    other row becomes (p*row - a*pivot_row)/prev, with a its entry in the
    pivot column and prev the previous pivot (1 at first); a row with
    a = 0 is scaled too.  Every entry is then a minor of the input, so
    the division is exact in Z[i].  Each row step is one kernel product,
    the 1 x 2 row (p, -a) times the two rows as width columns, which runs
    on `int_matmul` when both are real.  A non-real prev divides as
    conj(prev)/|prev|^2: `gaussian_int_divide` carries conj(prev) in the
    coefficients, all of a step's in one product, and the parts are
    divided by |prev|^2.
    """
    work = [(x, y) for x, y in zip(re, im) if any(x) or any(y)]
    pivots: list[int] = []
    prev = (1, 0)
    for col in range(len(re[0]) if work else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][0][col] or work[i][1][col]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        top = work[r]
        p = (top[0][col], top[1][col])
        work[:r] = _row_step(work[:r], top, col, p, prev)
        work[r + 1 :] = _row_step(work[r + 1 :], top, col, p, prev)
        pivots.append(col)
        prev = p
        if len(pivots) == len(work):
            break
    reduced = work[: len(pivots)]
    return pivots, [x for x, _ in reduced], [y for _, y in reduced], prev


def _row_step(rows, top, col: int, p, prev):
    """One pivot step of `rref` on (re, im) work rows: each row becomes
    (p*row - a*top)/prev.  The coefficients (p, -a) of all the rows are
    divided by prev in one `gaussian_int_divide`, which leaves a real
    prev as it is and multiplies by conj(prev) otherwise; each new row
    is then divided by the norm it returns."""
    if not rows:
        return rows
    top_re, top_im = top
    c_re, c_im, norm = gaussian_int_divide(
        [(p[0], -row[0][col]) for row in rows], [(p[1], -row[1][col]) for row in rows], prev
    )
    out = []
    for (row_re, row_im), (c, a_re), (c_i, a_im) in zip(rows, c_re, c_im):
        if not a_re and not a_im and p == prev:
            out.append((row_re, row_im))
            continue
        (new_re,), (new_im,) = gaussian_int_matmul(
            [[c, a_re]], [[c_i, a_im]], [*zip(row_re, top_re)], [*zip(row_im, top_im)]
        )
        if norm != 1:
            new_re = [x // norm for x in new_re]
            new_im = [y // norm for y in new_im]
        out.append((new_re, new_im))
    return out


def gaussian_int_divide(re, im, z):
    """The Gaussian-integer row grid re + i*im over the Gaussian integer
    z = (a, b), as (re', im', n) with (re' + i*im')/n the quotient; the
    inputs are only read.  A real z leaves the grids as they are, n = a;
    otherwise the quotient is x conj(z)/|z|^2, one kernel product of the
    entries as a column and the 1 x 1 conj(z), and n = |z|^2.  The one
    division on the grids, of `rref`, `independent_subset` and
    `divide_by_entry`."""
    a, b = z
    if not b:
        return re, im, a
    width = len(re[0])
    col_re, col_im = gaussian_int_matmul(
        [[x] for x in _vec(re)], [[y] for y in _vec(im)], [(a,)], [(-b,)]
    )
    return (
        _unvec([x for (x,) in col_re], width),
        _unvec([y for (y,) in col_im], width),
        a * a + b * b,
    )


def divide_by_entry(m: Matrix, v: Matrix, i: int, j: int) -> Matrix:
    """m / v[i, j] on the grids: with z the grid entry of v there,
    m / (z / v.den) is m's grids times v.den / z, over m.den."""
    re, im, n = gaussian_int_divide(m.re, m.im, (v.re[i][j], v.im[i][j]))
    s = v.den
    return Matrix(n * m.den, [[s * x for x in r] for r in re], [[s * y for y in r] for r in im])


def independent_subset(mats: Sequence[Matrix]) -> tuple[list[int], Matrix | None]:
    """Indices kept, the earliest linearly independent matrices, and the
    coordinates of every matrix in the kept ones: one Matrix coords of
    shape len(kept) x len(mats) with mats[j] = sum_k coords[k, j]
    mats[kept[k]], so the kept columns are the identity.  coords is
    None when nothing is kept.

    The matrices share one shape and each is read as its row-major vec,
    so a d x 1 column is read as itself.  Let A be the Gaussian-integer
    grid whose column j is the vec of mats[j]'s grids, that is den_j
    times the vec of mats[j].  One fraction-free `rref` runs on the short
    side: on A when it has no more rows than columns, and otherwise on
    the n x n Hermitian Gram matrix G = A^H A, one kernel product of the
    conjugated vecs as rows and the vecs as columns.  Over C, G x = 0
    gives |A x|^2 = x^H G x = 0, so G and A have one null space, one row
    space and one reduced row echelon form; the conjugate matters, since
    A^T A is zero on a nonzero vec such as (1, i).  The pivot columns are
    the kept matrices.  With D the last pivot, coords[k, j] is
    reduced[k][j] den_c / (D den_j) for the kept column c of reduced row
    k: the grids reduced[k][j] den_c (L / den_j), with L the lcm of the
    den_j, divided by D in one `gaussian_int_divide`, over L.  The one
    reader of `rref`: rank, kernels, solutions and inverses are
    questions to it.
    """
    if not mats:
        return [], None
    shape = (mats[0].rows, mats[0].cols)
    if any((m.rows, m.cols) != shape for m in mats):
        raise ShapeError("matrices must share one shape")
    vec_re = [_vec(m.re) for m in mats]
    vec_im = [_vec(m.im) for m in mats]
    if len(vec_re[0]) > len(mats):  # tall: A^H A, the conjugated vecs as rows
        grid = gaussian_int_matmul(vec_re, [[-y for y in v] for v in vec_im], vec_re, vec_im)
    else:
        grid = [*zip(*vec_re)], [*zip(*vec_im)]
    pivots, red_re, red_im, last = rref(*grid)
    if not pivots:
        return [], None
    dens = [m.den for m in mats]
    common = lcm(*dens)
    scales = [common // den for den in dens]
    num_re, num_im, over = gaussian_int_divide(
        [[dens[c] * s * x for s, x in zip(scales, row)] for c, row in zip(pivots, red_re)],
        [[dens[c] * s * y for s, y in zip(scales, row)] for c, row in zip(pivots, red_im)],
        last,
    )
    return pivots, Matrix(over * common, num_re, num_im)


def _vec(grid) -> list[int]:
    """The row-major vec of a row grid."""
    return list(chain.from_iterable(grid))


def _columns(m: Matrix) -> list[Matrix]:
    return [m.column(j) for j in range(m.cols)]


def rank(m: Matrix) -> int:
    """The number of kept columns of m."""
    return len(independent_subset(_columns(m))[0])


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Exact basis of the right kernel {v : m v = 0}, as columns.

    One vector e_c - sum_k coords[k, c] e_(kept[k]) per dependent column
    c of m, in column order, built on the grids of coords and divided by
    its first nonzero entry, so that entry is 1.
    """
    kept, coords = independent_subset(_columns(m))
    at = {row: k for k, row in enumerate(kept)}
    den = 1 if coords is None else coords.den
    basis = []
    for c in (c for c in range(m.cols) if c not in at):
        re = [[den if i == c else -coords.re[at[i]][c] if i in at else 0] for i in range(m.cols)]
        im = [[-coords.im[at[i]][c] if i in at else 0] for i in range(m.cols)]
        first = next(i for i in range(m.cols) if re[i][0] or im[i][0])
        v = Matrix(den, re, im)
        basis.append(v if first == c else divide_by_entry(v, v, first, 0))
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b, or None if inconsistent.

    One independent subset over the columns of [a | b]: the system is
    inconsistent iff some column of b is kept, and otherwise X is read
    from the grids of coords: row kept[k] of X is row k of coords at
    b's columns, and the rows of the free variables are zero, so the
    solution is deterministic.
    """
    if a.rows != b.rows:
        raise ShapeError("row counts differ")
    n = a.cols
    kept, coords = independent_subset(_columns(a) + _columns(b))
    if kept and kept[-1] >= n:
        return None
    re, im = [(0,) * b.cols] * n, [(0,) * b.cols] * n
    for k, row in enumerate(kept):
        re[row], im[row] = coords.re[k][n:], coords.im[k][n:]
    return Matrix(1 if coords is None else coords.den, re, im)


def inverse(m: Matrix) -> Matrix:
    """solve(m, I), which is None exactly when m is singular."""
    if not m.is_square:
        raise ShapeError("only square matrices can be inverted")
    inv = solve(m, Matrix.identity(m.rows))
    if inv is None:
        raise DomainError("matrix is singular")
    return inv


def ratio(w: Matrix, v: Matrix) -> Scalar | None:
    """The scalar c with w = c v for a nonzero v of w's shape, or None
    when w is no multiple of v.

    With x + iy and a + ib the grids' entries of v and w where v's first
    is nonzero, it tests the one combination w (x + iy) - (a + ib) v of
    the grids for zero, so it eliminates nothing, and reads c as w's
    entry there divided by v's by `divide_by_entry`.
    """
    if (w.rows, w.cols) != (v.rows, v.cols):
        raise ShapeError("ratio needs two matrices of one shape")
    v_re, v_im = _vec(v.re), _vec(v.im)
    p = next((i for i, (x, y) in enumerate(zip(v_re, v_im)) if x or y), None)
    if p is None:
        raise DomainError("ratio needs a nonzero v")
    r, c = divmod(p, w.cols)
    x, y = v_re[p], v_im[p]
    a, b = w.re[r][c], w.im[r][c]
    _, ((re, im),) = gaussian_int_combination(
        [[x, -a]], [[y, -b]], [(1, w.re, w.im), (1, v.re, v.im)], w.rows, w.cols
    )
    if any(map(any, re)) or any(map(any, im)):
        return None
    return divide_by_entry(Matrix(w.den, ((a,),), ((b,),)), v, r, c).entry(0, 0)


# -- polynomials -------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Coefficients lowest degree first; () is the zero polynomial."""

    coefficients: tuple[Scalar, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def of(cls, values: Iterable) -> "Polynomial":
        return cls(tuple(_entry(v) for v in values))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c.is_zero:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                lead = "" if c == ONE else f"({c})"
                parts.append(f"{lead}t^{k}" if k > 1 else f"{lead}t")
        return " + ".join(reversed(parts))


def lambda_power(d: int) -> Polynomial:
    """The polynomial t^d, the characteristic polynomial of any nilpotent
    matrix of side d."""
    return Polynomial((ZERO,) * d + (ONE,))


def char_poly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(tI - m), monic of degree = side.

    Built from the integer coefficients c_k of `_char_coefficients`, the
    Faddeev-LeVerrier recurrence on the grid G = den*m: since
    det(tI - G) = den^d det(t/den I - m), the coefficient of t^(d-k) in
    det(tI - m) is c_k / den^k, one fraction pair per coefficient and
    none per entry.

    `oracle` prints it; no verdict reads it, since nilpotency is decided
    by `is_nilpotent_matrix`.
    """
    if not m.is_square:
        raise ShapeError("characteristic polynomial needs a square matrix")
    coeffs = [
        _scalar_over(c_re, c_im, m.den**k)
        for k, (c_re, c_im) in enumerate(_char_coefficients(m), 1)
    ]
    return Polynomial((*reversed(coeffs), ONE))


def _char_coefficients(m: Matrix) -> list[tuple[int, int]]:
    """The coefficients c_1..c_d of det(tI - G) = sum_k c_k t^(d-k), with
    c_0 = 1, for the Gaussian-integer grid G = den*m of a square m, as
    (re, im) integer pairs.

    The Faddeev-LeVerrier recurrence: with M_0 = I,

        c_k = -tr(G M_(k-1)) / k,    M_k = G M_(k-1) + c_k I.

    Every c_k is a polynomial in the entries of G with integer
    coefficients, so it is a Gaussian integer, every M_k is a
    Gaussian-integer matrix, and each division by k is an exact integer
    division.  The last one, c_d = (-1)^d det G, is nonzero exactly when
    m is invertible.  It builds no Scalar or Fraction.
    """
    d = m.rows
    g_re, g_im = m.re, m.im
    coeffs = []
    am_re, am_im = g_re, g_im  # G M_0
    for k in range(1, d + 1):
        c_re = -sum(am_re[i][i] for i in range(d)) // k
        c_im = -sum(am_im[i][i] for i in range(d)) // k
        coeffs.append((c_re, c_im))
        if k < d:
            am_re, am_im = gaussian_int_matmul(
                g_re,
                g_im,
                *_grid_columns(_add_to_diagonal(am_re, c_re), _add_to_diagonal(am_im, c_im)),
            )
    return coeffs


def _add_to_diagonal(grid, c: int):
    """A new grid equal to grid + c*I."""
    return [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(grid)]


def is_nilpotent_matrix(m: Matrix) -> bool:
    """The one nilpotency predicate, equivalent to char_poly(m) == t^d.

    A d x d matrix is nilpotent iff its 2^s-th power vanishes for the
    least 2^s >= d.  m is nilpotent iff den*m is, so the squarings run on
    the Gaussian-integer grids that `m` stores and build no matrix,
    scalar or fraction.
    """
    if not m.is_square:
        raise ShapeError("nilpotency needs a square matrix")
    re_g, im_g = m.re, m.im
    steps = 1
    while steps < m.rows:
        re_g, im_g = gaussian_int_matmul(re_g, im_g, *_grid_columns(re_g, im_g))
        steps *= 2
    return not any(map(any, re_g)) and not any(map(any, im_g))


# -- the simplex lattice -----------------------------------------------


def simplex_points(k: int, D: int):
    """The points of Delta(k, D) = {t in N^k : sum t = D}, C(k+D-1, D) of
    them, as the count vectors of `combinations_with_replacement(range(k),
    D)` in that order, so the first is (D, 0, ..., 0).

    A homogeneous polynomial of degree p <= D in k variables that
    vanishes at every point is zero (Chung and Yao, SIAM J. Numer. Anal.
    14, 1977): f * (t_1 + ... + t_k)^(D - p) has degree D and the same
    zeros on the lattice, and the degree-D monomials evaluated on it form
    an invertible matrix.  So a walk of Delta(k, D) finds a nonzero value
    of any such nonzero polynomial.
    """
    for combo in combinations_with_replacement(range(k), D):
        counts = [0] * k
        for i in combo:
            counts[i] += 1
        yield tuple(counts)


# -- seeded sampling ---------------------------------------------------


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic sub-seed derivation, stable across platforms."""
    return (seed * 1_000_003 + salt + 1) % (2**63)


def random_scalar(rng: random.Random, height: int) -> Scalar:
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Scalar(Fraction(num, den))


def random_vector(dim: int, seed: int, height: int) -> Matrix:
    if height < 1:
        raise DomainError("sampling height must be at least 1")
    rng = random.Random(seed)
    return vector([random_scalar(rng, height) for _ in range(dim)])


def random_matrix(dim: int, seed: int, height: int) -> Matrix:
    """Seeded matrix with reduced rational entries of numerator and
    denominator magnitude at most height.  Same arguments, same matrix,
    on every platform."""
    if height < 1:
        raise DomainError("sampling height must be at least 1")
    rng = random.Random(seed)
    return Matrix.from_rows(
        [[random_scalar(rng, height) for _ in range(dim)] for _ in range(dim)]
    )


def random_invertible(dim: int, seed: int, height: int) -> Matrix:
    """The first invertible `random_matrix` over the sub-seeds of seed.

    A draw is invertible iff its determinant is nonzero, read as the
    last Faddeev-LeVerrier coefficient c_d = (-1)^d det(den*m) of
    `_char_coefficients` on its integer grid, so the test eliminates
    nothing and builds no Scalar.
    """
    for attempt in range(64):
        m = random_matrix(dim, derive_seed(seed, attempt), height)
        if any(_char_coefficients(m)[-1]):
            return m
    raise DomainError("could not sample an invertible matrix")  # pragma: no cover


def random_nonzero_vector(dim: int, seed: int, height: int) -> Matrix:
    for attempt in range(64):
        v = random_vector(dim, derive_seed(seed, attempt), height)
        if not v.is_zero:
            return v
    raise DomainError("could not sample a nonzero vector")  # pragma: no cover
