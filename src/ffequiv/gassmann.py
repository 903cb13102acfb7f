"""Small matrix groups over finite fields and Gassmann-triple certificates.

Everything here is explicit and deterministic: GL_n(F_q), or its quotient by
a scalar subgroup S, is a sorted tuple of canonical representative matrices
with dictionary membership.  A matrix holds the field indices of its entries
and multiplies, inverts and scales them with the field's int kernels.

Groups and subgroups are spanned breadth first on row codes: a row is the
int whose base-q digits are its entries, a matrix the tuple of its row
codes.  A generator g is a table of the code of row * g for each of the q^n
codes, so a step by g is a lookup per row, and the group keeps every step
in a right-multiplication table on element indices.  GL_n(F_q) is spanned
from diag(g0, 1, ..., 1) and the transvections 1 + E_{i,i+1}, 1 + E_{i+1,i},
and its order is checked against the formula.  Transposes are looked up by
their codes too.  Transposition is an anti-automorphism and the generators
are closed under it, so left multiplication, and with it conjugation by a
generator, is a composite of tables: conjugacy classes are orbits of ints,
found without a matrix product.  Subgroups are checked closed by spanning
generators picked among their members.  Permutation characters on G/H come
from class counts, and H and H' are conjugate when the index set of H' is
in the orbit of that of H under the same conjugation permutations.
"""

from __future__ import annotations

import gc
import operator
from array import array
from functools import partial
from itertools import product

from . import _Record
from .fields import FieldElement, FiniteField, _combine, _least_primitive


def _row_code(row, q: int) -> int:
    """The int whose base-q digits are the entries of row, first entry most significant."""
    code = 0
    for e in row:
        code = code * q + e
    return code


class MatElem:
    """Invertible n x n matrix over a finite field.

    ``rows`` holds the field index of each entry; the constructor takes
    indices or FieldElements of the field, each through the field's entry
    check (``FiniteField._index_of``).
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FiniteField, rows):
        out = [tuple(map(field._index_of, r)) for r in rows]
        n = len(out)
        if n == 0 or any(len(r) != n for r in out):
            raise ValueError("rows must form a square matrix")
        self.field = field
        self.n = n
        self.rows = tuple(out)
        if self._gauss_jordan()[1] is None:
            raise ValueError("matrix is singular")

    @classmethod
    def _make(cls, field, n, rows) -> "MatElem":
        # internal fast path: rows already validated, invertibility implied
        m = object.__new__(cls)
        m.field = field
        m.n = n
        m.rows = rows
        return m

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatElem":
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls._make(field, n, rows)

    @classmethod
    def from_ints(cls, field: FiniteField, rows) -> "MatElem":
        """Entries given as integers, embedded as constants mod p."""
        p = field.p
        return cls(field, [[v % p for v in r] for r in rows])

    @property
    def key(self) -> tuple:
        return sum(self.rows, ())

    def _gauss_jordan(self):
        """(det, inverse rows) by Gauss-Jordan elimination on [A | I], as
        indices; the inverse is None when A is singular (det 0)."""
        f = self.field
        mul, neg, addmul = f.mul, f.neg, f.addmul
        n = self.n
        m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        det = 1
        for col in range(n):
            piv = next((i for i in range(col, n) if m[i][col]), None)
            if piv is None:
                return 0, None
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = neg(det)
            det = mul(det, m[col][col])
            pinv = f.inv(m[col][col])
            m[col] = [mul(pinv, v) for v in m[col]]
            for i in range(n):
                if i != col and m[i][col]:
                    addmul(m[i], neg(m[i][col]), m[col], 0)
        return det, tuple(tuple(r[n:]) for r in m)

    def det(self) -> FieldElement:
        return FieldElement(self.field, self._gauss_jordan()[0])

    def mul(self, other: "MatElem") -> "MatElem":
        addmul, b, n = self.field.addmul, other.rows, self.n
        rows = tuple(tuple(_combine(addmul, r, b, n)) for r in self.rows)
        return MatElem._make(self.field, self.n, rows)

    def inverse(self) -> "MatElem":
        rows = self._gauss_jordan()[1]
        if rows is None:
            raise ValueError("matrix is singular")
        return MatElem._make(self.field, self.n, rows)

    def __eq__(self, other):
        if not isinstance(other, MatElem):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def render(self) -> str:
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in self.rows) + "]"

    def __repr__(self):
        return f"MatElem({self.render()} over {self.field!r})"


class MatGroup:
    """GL_n(F_q), or GL_n(F_q)/S for a scalar subgroup S, spanned by gens.

    Elements are canonical coset representatives: the first nonzero entry in
    row-major order lies in the fixed transversal of S in F_q^x, the powers
    g0^k, k < (q - 1)/|S|, of the smallest generator g0.  mul and inv
    re-canonicalize, which is the quotient group law.

    The generators may be any invertible matrices whose transposes are
    among them.  The span is walked on row codes: the code of a row is the
    int whose base-q digits are its entries, the first entry most
    significant, so codes compare as rows do.  A matrix is the tuple of its
    row codes, and a step by a generator, or a scaling into the
    transversal, is one lookup per row in a table of q^n codes.  The
    enumeration keeps the products it computes: right[k][i] is the index of
    elements[i] * gens[k], one array('I') per generator.
    """

    def __init__(self, field, n, scalar_subgroup, gens):
        # every tuple the build allocates stays reachable: a collector pass frees nothing
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._build(field, n, scalar_subgroup, gens)
        finally:
            if enabled:
                gc.enable()

    def _build(self, field, n, scalar_subgroup, gens):
        self.field = field
        self.n = n
        self.scalar_subgroup = scalar_subgroup
        q, mul = field.q, field.mul
        self._rows = rows = list(product(range(q), repeat=n))  # the row of each code
        weights = [q ** (n - 1 - j) for j in range(n)]
        # digits[j][i][code]: entry j of that row, weighted as entry i of a row
        digits = [[[r[j] * w for r in rows] for w in weights] for j in range(n)]
        self._shift = None
        if len(scalar_subgroup) > 1:
            # canon_scalar[e], a member of S, takes a nonzero e = g0^k to its
            # transversal representative g0^(k mod step)
            step = (q - 1) // len(scalar_subgroup)
            g0 = _least_primitive(field.p, q, field.pow)
            canon_scalar = [0] * q
            a = 1
            for k in range(q - 1):
                canon_scalar[a] = field.pow(g0, (k % step - k) % (q - 1))
                a = mul(a, g0)
            # shift[code] takes a matrix whose first row has that code into
            # the transversal: None if it is there, else the table of u * row
            scaled = {
                u: [_row_code([mul(u, e) for e in r], q) for r in rows]
                for u in set(canon_scalar[1:]) - {1}
            }
            self._shift = [None] + [scaled.get(canon_scalar[next(filter(None, r))]) for r in rows[1:]]
        self.gens = tuple(self.canon(g) for g in gens)
        codes = [self._codes(g) for g in self.gens]
        if not set(self._transposes(codes, digits)) <= set(codes):
            raise ValueError("the generators must be closed under transposition")
        found, number, products = self._enumerate(self.gens)
        transposes = list(map(number.__getitem__, self._transposes(found, digits)))
        del number  # freed before the elements are built, which bounds the peak
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = array("I", [0]) * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        self._transpose = array("I", [rank[transposes[i]] for i in order])
        self.right = tuple(array("I", [rank[t[i]] for i in order]) for t in products)
        del transposes, products
        # one tuple of shared row tuples per element, by columns of codes
        columns = zip(*[found[i] for i in order])
        matrices = zip(*[map(rows.__getitem__, c) for c in columns])
        self.elements = tuple(map(partial(MatElem._make, field, n), matrices))
        self.index = {m: i for i, m in enumerate(self.elements)}
        self._conjugations = None
        self._classes = None

    def _act(self, g: MatElem) -> list:
        """The code of row * g for each row code."""
        q, addmul, n = self.field.q, self.field.addmul, self.n
        return [_row_code(_combine(addmul, r, g.rows, n), q) for r in self._rows]

    def _enumerate(self, gens):
        """The span of gens from the identity, breadth first a layer at a
        time: the codes of the elements in the order found, the dict from
        codes to that order, and per generator s the find number of x * s
        for each x in that order."""
        acts = list(map(self._act, gens))
        found = [tuple(self.field.q ** k for k in reversed(range(self.n)))]
        number = {found[0]: 0}
        setdefault = number.setdefault
        products = [array("I") for _ in acts]
        start = 0
        while start < len(found):
            columns = list(zip(*found[start:]))
            start = len(found)
            for act, table in zip(acts, products):
                # the layer times the generator: one lookup per row
                images = zip(*[map(act.__getitem__, c) for c in columns])
                if self._shift is not None:
                    images = map(self._canon_codes, images)
                size = len(found)
                numbers = []
                for y in images:
                    k = setdefault(y, size)
                    if k == size:
                        found.append(y)
                        size += 1
                    numbers.append(k)
                table.extend(numbers)
        return found, number, products

    def _codes(self, m: MatElem) -> tuple:
        return tuple(_row_code(r, self.field.q) for r in m.rows)

    def _canon_codes(self, y: tuple) -> tuple:
        """The codes y scaled into the transversal, in a quotient."""
        s = self._shift[y[0]]
        return y if s is None else tuple(map(s.__getitem__, y))

    def _transposes(self, matrices: list, digits):
        """The canonical codes of the transposes of the matrices with the
        given codes, in order.  Row j of a transpose is the sum over i of
        entry j of row i weighted as entry i: a column of lookups per i."""
        columns = list(zip(*matrices)) or [()] * self.n
        rows = []
        for entry in digits:
            row = map(entry[0].__getitem__, columns[0])
            for d, column in zip(entry[1:], columns[1:]):
                row = map(operator.add, row, map(d.__getitem__, column))
            rows.append(row)
        return zip(*rows) if self._shift is None else map(self._canon_codes, zip(*rows))

    def __len__(self):
        return len(self.elements)

    @property
    def identity(self) -> MatElem:
        return MatElem.identity(self.field, self.n)

    def canon(self, m: MatElem) -> MatElem:
        if self._shift is None:
            return m
        y = self._codes(m)
        c = self._canon_codes(y)
        if c is y:
            return m
        return MatElem._make(self.field, self.n, tuple(map(self._rows.__getitem__, c)))

    def mul(self, a: MatElem, b: MatElem) -> MatElem:
        return self.canon(a.mul(b))

    def inv(self, a: MatElem) -> MatElem:
        return self.canon(a.inverse())

    def span(self, gens) -> set[MatElem]:
        """The subgroup generated by gens, walked on row codes as the group
        is (products alone suffice: it is finite)."""
        rows = self._rows
        make = partial(MatElem._make, self.field, self.n)
        return {make(tuple(map(rows.__getitem__, y))) for y in self._enumerate(gens)[0]}

    def conjugations(self) -> tuple[array, ...]:
        """Per generator s, conjugation by s as a permutation of element
        indices, built once.

        It maps i to left_s[right_s^-1[i]].  Transposition T is an
        anti-automorphism and the generators are closed under it, so the
        left table of s is T . right_t . T with t = s^T: no matrix product
        is needed."""
        if self._conjugations is None:
            index, transpose = self.index, self._transpose
            gen_at = {index[g]: k for k, g in enumerate(self.gens)}
            maps = []
            for g, right in zip(self.gens, self.right):
                right_t = self.right[gen_at[transpose[index[g]]]]
                undo = array("I", [0]) * len(right)
                for i, j in enumerate(right):
                    undo[j] = i
                maps.append(array("I", [transpose[right_t[transpose[j]]] for j in undo]))
            self._conjugations = tuple(maps)
        return self._conjugations

    def conjugacy_classes(self):
        """(representative, size, frozenset of indices) per conjugation orbit
        under gens, in order of the smallest index, which is the representative."""
        if self._classes is None:
            maps = self.conjugations()
            seen = bytearray(len(self.elements))
            classes = []
            for i in range(len(self.elements)):
                if seen[i]:
                    continue
                seen[i] = 1
                orbit = [i]
                for y in orbit:  # grows while it is read
                    for c in maps:
                        z = c[y]
                        if not seen[z]:
                            seen[z] = 1
                            orbit.append(z)
                classes.append((self.elements[i], len(orbit), frozenset(orbit)))
            self._classes = classes
        return self._classes


# build_gl refuses an order whose lower bound has more bits than this from
# the bound alone: multiplying out an order of 2^17 bits takes about 0.1 s,
# one of 2^20 bits 1-2 s.
_EXACT_ORDER_BITS = 1 << 17


def _gl_order(q: int, n: int) -> int:
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


def _order_low_bits(p: int, m: int, n: int) -> int:
    """A b with |GL_n(F_q)/S| >= 2^b, q = p^m, for any scalar subgroup S.
    |GL_n(F_q)| = q^(n^2) * prod_j (1 - q^-j) > q^(n^2)/4 and |S| <= q - 1,
    and 2^(m(k-1)) <= q < 2^(mk) for k = p.bit_length(), so q is never
    formed."""
    k = p.bit_length()
    return n * n * m * (k - 1) - 2 - m * k


def check_cap(p: int, m: int, n: int, cap: int) -> None:
    """Refuse GL_n(F_q)/S, q = p^m, when the lower bound 2^b on its order,
    b from :func:`_order_low_bits`, exceeds cap.  q is never formed, so
    this can run before F_q is built and its modulus tested."""
    low_bits = _order_low_bits(p, m, n)
    if low_bits >= cap.bit_length():
        raise ValueError(f"enumeration cap exceeded: group order of over {low_bits} bits > cap {cap}")


def build_gl(
    n: int,
    field: FiniteField,
    scalar_generator: FieldElement | None = None,
    cap: int = 10**6,
) -> MatGroup:
    """Enumerate GL_n(F_q)/S with S generated by scalar_generator (S={1} if None).

    An order above cap is refused before anything is listed: by
    :func:`check_cap`'s lower bound when that has over _EXACT_ORDER_BITS
    bits, else by the exact order."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    q = field.q
    mul = field.mul
    s_elems = {1}
    if scalar_generator is not None:
        if scalar_generator.field is not field:
            raise ValueError("scalar generator from a different field")
        if scalar_generator.is_zero:
            raise ValueError("scalar subgroup generator must be nonzero")
        s = a = scalar_generator.index
        while a not in s_elems:
            s_elems.add(a)
            a = mul(a, s)
    if _order_low_bits(field.p, field.m, n) > _EXACT_ORDER_BITS:
        check_cap(field.p, field.m, n, cap)
    size = _gl_order(q, n) // len(s_elems)
    if size > cap:
        shown = size if size < 10**30 else f"of {size.bit_length()} bits"
        raise ValueError(f"enumeration cap exceeded: group order {shown} > cap {cap}")
    # MatGroup keeps tables of q^n row codes too: one per generator, n^2 for
    # transposes, one to read rows back and at most |S| to scale
    tables = ((q > 2) + 2 * (n - 1) + n * n + 1 + len(s_elems)) * q**n
    if size + tables > cap:
        raise ValueError(
            f"enumeration cap exceeded: group order {size} and {tables} table entries > cap {cap}"
        )

    def with_entry(i, j, b):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = b
        return MatElem(field, rows)

    # diag(g0, 1, ..., 1) gives every determinant (left out when q = 2,
    # where g0 = 1).  Conjugated by its powers, 1 + E_01 gives 1 + g0^k*E_01, whose
    # products are every 1 + b*E_01; commutators carry these to every
    # transvection, and the transvections generate SL_n(F_q)
    gens = [with_entry(0, 0, _least_primitive(field.p, q, field.pow))] if q > 2 else []
    for i in range(n - 1):
        gens += [with_entry(i, i + 1, 1), with_entry(i + 1, i, 1)]
    scalars = tuple(FieldElement(field, s) for s in sorted(s_elems))
    group = MatGroup(field, n, scalars, gens)
    if len(group) != size:
        raise AssertionError(
            f"generators span {len(group)} elements, formula says {size}"
        )
    return group


class Subgroup:
    """Subset of a MatGroup, verified closed by spanning generators picked
    greedily from its sorted members: each span is walked on the parent's
    row-code tables, without a matrix product.  ``indices`` holds the
    members' indices in the parent, looked up once while membership is
    checked."""

    def __init__(self, parent: MatGroup, members):
        members = sorted(set(members), key=lambda m: m.key)
        if not members:
            raise ValueError("a subgroup cannot be empty")
        indices = frozenset(map(parent.index.get, members))
        if None in indices:
            raise ValueError("member outside the parent group")
        mset = frozenset(members)
        if parent.identity not in mset:
            raise ValueError("subgroup must contain the identity")
        gens = []
        span = {parent.identity}
        for m in members:
            if m not in span:
                gens.append(m)
                span = parent.span(gens)
                if not span <= mset:
                    raise ValueError("subgroup not closed under product")
        if len(parent) % len(members):
            raise AssertionError("subgroup order does not divide group order")
        self.parent = parent
        self.gens = tuple(gens)
        self.members = tuple(members)
        self.member_set = mset
        self.indices = indices

    def __len__(self):
        return len(self.members)


def example1_subgroups(field: FiniteField, cap: int = 10**6):
    """The paper's Example 1, H = [[1,*],[0,*]] and H' = [[*,*],[0,1]] in
    GL_2(F_p), p > 2: the stabilizer pair of GL_2(F_p), whose order
    build_gl bounds by cap."""
    if field.m != 1 or field.p <= 2:
        raise ValueError("example 1 requires a prime field with p > 2")
    return stabilizer_pair(build_gl(2, field, cap=cap))


def stabilizer_pair(G: MatGroup):
    """Stabilizers of the S-orbit of the first basis vector and of the last
    basis covector: H has first column (s, 0, ..., 0) and H' last row
    (0, ..., 0, s), s in S.  Other basis vectors give conjugate subgroups,
    hence identical certificates."""
    if G.n < 2:
        raise ValueError("stabilizer pair needs dimension at least 2")
    s_set = {s.index for s in G.scalar_subgroup}
    h = [m for m in G.elements if m.rows[0][0] in s_set and not any(r[0] for r in m.rows[1:])]
    hp = [m for m in G.elements if m.rows[-1][-1] in s_set and not any(m.rows[-1][:-1])]
    return Subgroup(G, h), Subgroup(G, hp)


def conjugacy_classes(G: MatGroup):
    """Class representatives with sizes, ordered by representative key."""
    return [(rep, size) for rep, size, _ in G.conjugacy_classes()]


def permutation_character_fixpoints(G: MatGroup, H: Subgroup) -> list[int]:
    """Fixed-point counts of class representatives acting on G/H: a member of
    class C fixes |G| * |C & H| / (|C| * |H|) cosets."""
    if H.parent is not G:
        raise ValueError("H is not a subgroup of this group")
    return [
        len(G) * len(members & H.indices) // (size * len(H))
        for _, size, members in G.conjugacy_classes()
    ]


class GassmannCertificate(_Record):
    # rows: (class representative, class size, fix on G/H, fix on G/H')
    __slots__ = ("is_gassmann", "is_nontrivial", "index", "rows")

    def render(self) -> str:
        lines = [
            f"{rep.render()}\t{size}\t{fh}\t{fhp}"
            for rep, size, fh, fhp in self.rows
        ]
        lines.append(
            f"gassmann={str(self.is_gassmann).lower()} "
            f"nontrivial={str(self.is_nontrivial).lower()} "
            f"index={self.index}"
        )
        return "\n".join(lines)


def _are_conjugate(G: MatGroup, H: Subgroup, Hp: Subgroup) -> bool:
    """Whether g H g^-1 = H' for some g in G: whether the index set of H'
    lies in the orbit of that of H under conjugation by the generators."""
    if len(H) != len(Hp):
        return False
    seen = {H.indices}
    orbit = [H.indices]
    maps = G.conjugations()
    for members in orbit:  # grows while it is read
        if members == Hp.indices:
            return True
        for c in maps:
            image = frozenset([c[i] for i in members])
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return False


def verify_gassmann(G: MatGroup, H: Subgroup, Hp: Subgroup) -> GassmannCertificate:
    """Classwise fixed-point comparison plus non-conjugacy, by the orbit of H
    under conjugation."""
    if H.parent is not G or Hp.parent is not G:
        raise ValueError("both subgroups must live in the given group")
    fix_h = permutation_character_fixpoints(G, H)
    fix_hp = permutation_character_fixpoints(G, Hp)
    is_gassmann = fix_h == fix_hp
    rows = tuple(
        (rep, size, fh, fhp)
        for (rep, size, _), fh, fhp in zip(G.conjugacy_classes(), fix_h, fix_hp)
    )
    nontrivial = is_gassmann and not _are_conjugate(G, H, Hp)
    return GassmannCertificate(is_gassmann, nontrivial, len(G) // len(H), rows)
