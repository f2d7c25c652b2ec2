"""Every rooted map up to a number of flags, listed independently of the
package, and the number of them from a closed form.

A rooted map with n flags is a transitive action of
G = <t, l, r | t^2, l^2, r^2, (tl)^2> on n points with a marked point, that
is a subgroup of index n.  ``rooted_maps`` lists each once as its standard
coset table (Sims, Computation with Finitely Presented Groups, ch. 5), and
``hall_counts`` counts them with Hall's recurrence (M. Hall, Canad. J.
Math. 1, 1949; Lubotzky and Segal, Subgroup Growth, ch. 1).  Nothing here
imports ``flagmaps``: this module checks the package, so it shares no code
with it.  It lives apart from ``oracles.py``, which the benchmark compiles
at start-up.
"""

from fractions import Fraction
from math import factorial

UNDEFINED = -1


def rooted_maps(most: int):
    """The image tuples (t, l, r) of every rooted map with at most ``most``
    flags, rooted at 0, once each.

    The first undefined entry of the table, in (point, letter) order, is
    filled with each point whose column for the letter is still free, the
    point itself included, or with the next new point.  Every letter is an
    involution, so both ends are set.  A table is dropped as soon as x.t.l
    and x.l.t are both defined and differ.  Each transitive action with a
    marked point has exactly one standard table, so no two listed tables
    are isomorphic as rooted maps."""
    table = [[UNDEFINED] * 3]
    yield from _fill(table, most)


def _commutes_at(table, x) -> bool:
    """Whether x.t.l = x.l.t, or one side is not yet defined."""
    t, l = table[x][0], table[x][1]
    if t == UNDEFINED or l == UNDEFINED:
        return True
    tl, lt = table[t][1], table[l][0]
    return tl == UNDEFINED or lt == UNDEFINED or tl == lt


def _fill(table, most):
    """The complete tables that extend ``table``, which is changed in
    place and restored."""
    gap = next(((x, a) for x, row in enumerate(table)
                for a, image in enumerate(row) if image == UNDEFINED), None)
    if gap is None:
        yield tuple(tuple(row[a] for row in table) for a in range(3))
        return
    x, a = gap
    n = len(table)
    targets = [y for y in range(n) if table[y][a] == UNDEFINED]
    if n < most:
        targets.append(n)
    for y in targets:
        if y == n:
            table.append([UNDEFINED] * 3)
        table[x][a], table[y][a] = y, x
        # a new t or l edge x - y changes p.t.l or p.l.t only for p = x,
        # p = y and the images of x and y under the other of t and l
        other = 1 - a
        if a == 2 or all(_commutes_at(table, p) for p in {
                x, y, table[x][other], table[y][other]} - {UNDEFINED}):
            yield from _fill(table, most)
        table[x][a] = table[y][a] = UNDEFINED
        if y == n:
            table.pop()


def _exp_coefficients(terms: dict[int, Fraction], most: int) -> list[Fraction]:
    """[x^0..x^most] of exp(sum of c x^k over ``terms``): n f_n is the sum
    of k c_k f_{n-k}, since F' = P' F for F = exp(P)."""
    f = [Fraction(1)]
    for n in range(1, most + 1):
        f.append(sum(k * c * f[n - k] for k, c in terms.items() if k <= n)
                 / n)
    return f


def hall_counts(most: int) -> list[int]:
    """The number of rooted maps with 1..most flags.

    |Hom(G, S_n)| = h_n is the number of actions of the Klein group <t, l>
    times the number of involutions r, n! [x^n] exp(x + 3x^2/2 + x^4/4)
    times n! [x^n] exp(x + x^2/2).  Hall's recurrence gives the number a_n
    of transitive actions with a marked point:
    a_n = h_n / (n-1)! - sum over k < n of h_(n-k) / (n-k)! a_k."""
    klein = _exp_coefficients({1: Fraction(1), 2: Fraction(3, 2),
                               4: Fraction(1, 4)}, most)
    involution = _exp_coefficients({1: Fraction(1), 2: Fraction(1, 2)}, most)
    h = [factorial(n) ** 2 * klein[n] * involution[n]
         for n in range(most + 1)]
    a = [Fraction(0)]
    for n in range(1, most + 1):
        a.append(h[n] / factorial(n - 1)
                 - sum(h[n - k] / factorial(n - k) * a[k]
                       for k in range(1, n)))
    assert all(x.denominator == 1 for x in a)
    return [int(x) for x in a[1:]]
