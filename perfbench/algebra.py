"""Reference algebra for checking ncspan's answers without using ncspan.

Every input the benchmark feeds to ncspan is built here as an ``Expr``: the
text in ncspan's input grammar together with the benchmark's own expansion
of it (a dict from words to ``Fraction`` coefficients, a word being a tuple
of 1-based variable indices).  Expected answers come from that expansion
and from the paper's theorem, never from ``ncspan.poly``:

    a nonconstant polynomial of degree < 2d spans the trace-zero matrices
    of M_d if it is a sum of commutators, and all of M_d otherwise.

A polynomial is a sum of commutators exactly when, for every class of words
under cyclic rotation, its coefficients in that class add up to zero.
Matrices here are tuples of rows of exact numbers (``int`` or ``Fraction``).
"""

from __future__ import annotations

import random
from fractions import Fraction

Word = tuple[int, ...]
Terms = dict[Word, Fraction]
Matrix = tuple[tuple, ...]


def _add_into(out: Terms, word: Word, coeff: Fraction) -> None:
    total = out.get(word, 0) + coeff
    if total:
        out[word] = total
    else:
        out.pop(word, None)


class Expr:
    """A polynomial as ncspan input text plus the benchmark's expansion."""

    __slots__ = ("text", "terms")

    def __init__(self, text: str, terms: Terms):
        self.text = text
        self.terms = terms

    def __add__(self, other: Expr) -> Expr:
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_into(out, w, c)
        return Expr(f"{self.text} + {other.text}", out)

    def __sub__(self, other: Expr) -> Expr:
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_into(out, w, -c)
        return Expr(f"{self.text} - ({other.text})", out)

    def __mul__(self, other: Expr) -> Expr:
        out: Terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _add_into(out, wa + wb, ca * cb)
        return Expr(f"({self.text})*({other.text})", out)

    def __pow__(self, k: int) -> Expr:
        out = Expr("1", {(): Fraction(1)})
        for _ in range(k):
            out = out * self
        return Expr(f"({self.text})^{k}", out.terms)

    def scaled(self, c: Fraction) -> Expr:
        return Expr(
            f"{c}*({self.text})", {w: c * v for w, v in self.terms.items()}
        )

    def relabelled(self, perm: dict[int, int]) -> Expr:
        """Rename X_i to X_perm[i] in the text and the expansion."""
        text = "".join(
            f"X{perm[int(tok[1:])]}" if tok.startswith("X") else tok
            for tok in _split_vars(self.text)
        )
        terms = {tuple(perm[i] for i in w): c for w, c in self.terms.items()}
        return Expr(text, terms)

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def nvars(self) -> int:
        """Largest variable index in the text (terms may have cancelled)."""
        return max((int(t[1:]) for t in _split_vars(self.text) if t.startswith("X")), default=0)

    def is_commutator_sum(self) -> bool:
        sums: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            rep = min((w[k:] + w[:k] for k in range(len(w))), default=w)
            sums[rep] = sums.get(rep, 0) + c
        return not any(sums.values())


def _split_vars(text: str) -> list[str]:
    out, k = [], 0
    while k < len(text):
        if text[k] == "X":
            j = k + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[k:j])
            k = j
        else:
            out.append(text[k])
            k += 1
    return out


def var(i: int) -> Expr:
    return Expr(f"X{i}", {(i,): Fraction(1)})


def bracket(a: Expr, b: Expr) -> Expr:
    ab, ba = a * b, b * a
    return Expr(f"[{a.text},{b.text}]", (ab - ba).terms)


def word(*letters: int) -> Expr:
    out = var(letters[0])
    for i in letters[1:]:
        out = out * var(i)
    return Expr("*".join(f"X{i}" for i in letters), out.terms)


def expected_class(e: Expr, d: int) -> str:
    """The class the paper's theorem predicts for a low-degree input."""
    if not e.terms or e.degree() == 0 or e.degree() >= 2 * d:
        raise ValueError(f"no prediction for {e.text!r} at d={d}")
    return "TRACE_ZERO" if e.is_commutator_sum() else "FULL"


# -- exact matrices ----------------------------------------------------------

def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def evaluate(terms: Terms, args: list[Matrix], d: int) -> Matrix:
    """Value of the expansion at a tuple of matrices (args[i-1] is X_i)."""
    acc = [[0] * d for _ in range(d)]
    for w, c in terms.items():
        if w:
            prod = args[w[0] - 1]
            for i in w[1:]:
                prod = matmul(prod, args[i - 1])
        else:
            prod = tuple(tuple(int(r == s) for s in range(d)) for r in range(d))
        for r in range(d):
            row = acc[r]
            for s, x in enumerate(prod[r]):
                if x:
                    row[s] += c * x
    return tuple(tuple(row) for row in acc)


def trace(m: Matrix) -> Fraction:
    return sum(m[i][i] for i in range(len(m)))


def random_matrix(rng: random.Random, d: int, bound: int = 9) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]


# -- machine-speed reference -------------------------------------------------

def reference_unit() -> Fraction:
    """A fixed piece of exact arithmetic (Gauss-Jordan on an 8x8 rational
    matrix, about 2 ms) whose time tracks how fast the host runs
    Fraction-heavy Python at the moment.  It never touches ncspan."""
    rng = random.Random(12345)
    n = 8
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    det = Fraction(1)
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        pv = rows[c][c]
        det *= pv
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det
