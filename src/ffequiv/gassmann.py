"""Small matrix groups over finite fields and Gassmann-triple certificates.

Everything here is explicit and deterministic: GL_n(F_q), or its quotient by
a scalar subgroup S, is a sorted tuple of canonical representative matrices
with dictionary membership.  A matrix holds the field indices of its entries
and multiplies, inverts and scales them with the field's int kernels.

The group is spanned breadth first from elementary generators (its order is
checked against the formula).  A step by a generator 1 + c*E_ij is one
column operation, and every step is kept in a right-multiplication table on
element indices.  Transposition is an anti-automorphism that maps those
generators to each other, so left multiplication, and with it conjugation by
a generator, is a composite of tables: conjugacy classes are orbits of ints,
found without a matrix product.  Subgroups are checked closed from
generators picked among their members.  Permutation characters on G/H come
from class counts, and H and H' are conjugate when the index set of H' is
in the orbit of that of H under the same conjugation permutations.
"""

from __future__ import annotations

from array import array

from . import _Record
from .fields import FieldElement, FiniteField, _smallest_generator


class MatElem:
    """Invertible n x n matrix over a finite field.

    ``rows`` holds the field index of each entry; the constructor takes
    FieldElements or indices.
    """

    __slots__ = ("field", "n", "rows", "_hash")

    def __init__(self, field: FiniteField, rows):
        q = field.q
        out = []
        for r in rows:
            row = []
            for e in r:
                if isinstance(e, FieldElement):
                    if e.field is not field:
                        raise ValueError("entry from a different field")
                    e = e.index
                elif not isinstance(e, int):
                    raise ValueError(f"entry {e!r} is neither a FieldElement nor an index")
                elif not 0 <= e < q:
                    raise ValueError(f"index {e} out of range for field of order {q}")
                row.append(e)
            out.append(tuple(row))
        n = len(out)
        if n == 0 or any(len(r) != n for r in out):
            raise ValueError("rows must form a square matrix")
        self.field = field
        self.n = n
        self.rows = tuple(out)
        self._hash = None
        if self._gauss_jordan()[1] is None:
            raise ValueError("matrix is singular")

    @classmethod
    def _make(cls, field, n, rows) -> "MatElem":
        # internal fast path: rows already validated, invertibility implied
        m = object.__new__(cls)
        m.field = field
        m.n = n
        m.rows = rows
        m._hash = None
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
        n = self.n
        addmul = self.field.addmul
        b = other.rows
        rows = []
        for ra in self.rows:
            acc = [0] * n
            for c, rb in zip(ra, b):
                if c:
                    addmul(acc, c, rb, 0)
            rows.append(tuple(acc))
        return MatElem._make(self.field, n, tuple(rows))

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
        if self._hash is None:
            self._hash = hash((self.field, self.rows))
        return self._hash

    def render(self) -> str:
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in self.rows) + "]"

    def __repr__(self):
        return f"MatElem({self.render()} over {self.field!r})"


class MatGroup:
    """GL_n(F_q), or GL_n(F_q)/S for a scalar subgroup S, spanned by gens.

    Elements are canonical coset representatives: the first nonzero entry in
    row-major order lies in the fixed transversal of S in F_q^x (powers of
    the smallest generator).  canon_scalar[e] is the multiplier that takes
    a nonzero entry e there.  mul and inv re-canonicalize, which is the
    quotient group law.

    The enumeration keeps the products it computes: right[k][i] is the
    index of elements[i] * gens[k], one array('I') per generator.
    """

    def __init__(self, field, n, scalar_subgroup, gens, canon_scalar):
        self.field = field
        self.n = n
        self.scalar_subgroup = scalar_subgroup
        self._canon_scalar = canon_scalar
        moves = []  # (i, j, c) with g = 1 + c*E_ij, per generator g
        for g in gens:
            moved = [(i, j) for i in range(n) for j in range(n) if g.rows[i][j] != int(i == j)]
            if len(moved) != 1:
                raise ValueError("each generator must differ from the identity in one entry")
            (i, j), = moved
            moves.append((i, j, field.sub(g.rows[i][j], int(i == j))))
        self.gens = tuple(self.canon(g) for g in gens)
        rows = {g.rows for g in self.gens}
        if any(self._canon_rows(tuple(zip(*g.rows))) not in rows for g in self.gens):
            raise ValueError("the generators must be closed under transposition")
        found, products = self._enumerate(moves)
        # rows of equal length compare as the flattened key does
        order = sorted(range(len(found)), key=found.__getitem__)
        self.elements = tuple(MatElem._make(field, n, found[i]) for i in order)
        self.index = {m: i for i, m in enumerate(self.elements)}
        rank = array("I", [0]) * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        self.right = tuple(array("I", [rank[t[i]] for i in order]) for t in products)
        self._conjugations = None
        self._classes = None

    def _enumerate(self, moves):
        """The span of the generators 1 + c*E_ij, given as moves (i, j, c),
        from the identity, breadth first: the rows of the elements in the
        order found, and per generator s the find number of x * s for each
        x in that order."""
        add, mul = self.field.add, self.field.mul
        canon_rows = self._canon_rows
        quotient = len(self.scalar_subgroup) > 1
        found = [self.identity.rows]
        number = {found[0]: 0}
        products = [array("I") for _ in moves]
        steps = tuple((*move, table) for move, table in zip(moves, products))
        for x in found:  # grows while it is read
            for i, j, c, table in steps:
                # x * (1 + c E_ij) adds c times column i to column j: n kernel
                # calls instead of a matrix product.  The generator is used as
                # given, and only the product is made canonical.
                y = tuple([r[:j] + (add(r[j], mul(c, r[i])),) + r[j + 1:] if r[i] else r for r in x])
                if quotient:
                    y = canon_rows(y)
                k = number.setdefault(y, len(found))
                if k == len(found):
                    found.append(y)
                table.append(k)
        return found, products

    def __len__(self):
        return len(self.elements)

    @property
    def identity(self) -> MatElem:
        return MatElem.identity(self.field, self.n)

    def _canon_rows(self, rows: tuple) -> tuple:
        for r in rows:
            for e in r:
                if e:
                    u = self._canon_scalar[e]
                    if u == 1:
                        return rows
                    mul = self.field.mul
                    return tuple(tuple(mul(u, v) for v in row) for row in rows)
        raise ValueError("zero matrix cannot be canonicalized")

    def canon(self, m: MatElem) -> MatElem:
        rows = self._canon_rows(m.rows)
        return m if rows is m.rows else MatElem._make(self.field, self.n, rows)

    def mul(self, a: MatElem, b: MatElem) -> MatElem:
        return self.canon(a.mul(b))

    def inv(self, a: MatElem) -> MatElem:
        return self.canon(a.inverse())

    def span(self, gens) -> set[MatElem]:
        """The subgroup generated by canonical gens (products alone suffice: it is finite)."""
        seen = {self.identity}
        todo = list(seen)
        while todo:
            x = todo.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def conjugations(self) -> tuple[array, ...]:
        """Per generator s, conjugation by s as a permutation of element
        indices, built once.

        It maps i to left_s[right_s^-1[i]].  Transposition T is an
        anti-automorphism and the generators are closed under it, so the
        left table of s is T . right_t . T with t = s^T: no matrix product
        is needed."""
        if self._conjugations is None:
            size = len(self.elements)
            index, canon, make = self.index, self.canon, MatElem._make
            transpose = array("I", [
                index[canon(make(self.field, self.n, tuple(zip(*x.rows))))]
                for x in self.elements
            ])
            gen_at = {index[g]: k for k, g in enumerate(self.gens)}
            maps = []
            for g, right in zip(self.gens, self.right):
                right_t = self.right[gen_at[transpose[index[g]]]]
                left = array("I", [transpose[right_t[j]] for j in transpose])
                undo = array("I", [0]) * size
                for i, j in enumerate(right):
                    undo[j] = i
                maps.append(array("I", [left[j] for j in undo]))
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


def check_cap(p: int, m: int, n: int, cap: int) -> None:
    """Refuse GL_n(F_q)/S, q = p^m, when build_gl's lower bound
    q^(n^2)/(4(q-1)) on its order exceeds cap.  q is never formed, so this
    can run before F_q is built and its modulus tested."""
    # 2^(m*(b-1)) <= q < 2^(m*b) for b = p.bit_length()
    b = p.bit_length()
    low_bits = n * n * m * (b - 1) - 2 - m * b
    if low_bits >= cap.bit_length():
        raise ValueError(f"enumeration cap exceeded: group order of over {low_bits} bits > cap {cap}")


def build_gl(
    n: int,
    field: FiniteField,
    scalar_generator: FieldElement | None = None,
    cap: int = 10**6,
) -> MatGroup:
    """Enumerate GL_n(F_q)/S with S generated by scalar_generator (S={1} if None)."""
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
    # |GL_n(F_q)| = q^(n^2) * prod_j (1 - q^-j) > q^(n^2) / 4 and |S| <= q - 1,
    # so the order is at least 2^low_bits: a bound that never builds the order
    low_bits = n * n * (q.bit_length() - 1) - 2 - (q - 1).bit_length()
    if low_bits > _EXACT_ORDER_BITS and low_bits >= cap.bit_length():
        raise ValueError(f"enumeration cap exceeded: group order of over {low_bits} bits > cap {cap}")
    size = _gl_order(q, n) // len(s_elems)
    if size > cap:
        shown = size if size < 10**30 else f"of {size.bit_length()} bits"
        raise ValueError(f"enumeration cap exceeded: group order {shown} > cap {cap}")
    g0 = _smallest_generator(field).index
    s_index = (q - 1) // len(s_elems)
    # multiplier taking g0^k to its transversal representative g0^(k mod s_index)
    canon_scalar = [0] * q
    a = 1
    for k in range(q - 1):
        canon_scalar[a] = field.pow(g0, (k % s_index - k) % (q - 1))
        a = mul(a, g0)
    ident = MatElem.identity(field, n).rows

    def with_entry(i, j, b):
        rows = [[b if (r, c) == (i, j) else e for c, e in enumerate(row)] for r, row in enumerate(ident)]
        return MatElem(field, rows)

    # diag(g0, 1, ..., 1) gives every determinant (it is the identity when
    # q = 2); the transvections 1 + b*E_ij over an F_p-basis b of F_q
    # generate SL_n(F_q)
    basis = [field.p**k for k in range(field.m)]
    gens = [with_entry(0, 0, g0)] if q > 2 else []
    gens += [with_entry(i, j, b) for i in range(n) for j in range(n) if i != j for b in basis]
    scalars = tuple(FieldElement(field, s) for s in sorted(s_elems))
    group = MatGroup(field, n, scalars, gens, canon_scalar)
    if len(group) != size:
        raise AssertionError(
            f"generators span {len(group)} elements, formula says {size}"
        )
    return group


class Subgroup:
    """Subset of a MatGroup, verified closed by spanning generators picked
    greedily from its sorted members."""

    def __init__(self, parent: MatGroup, members):
        members = sorted(set(members), key=lambda m: m.key)
        if not members:
            raise ValueError("a subgroup cannot be empty")
        for m in members:
            if m not in parent.index:
                raise ValueError("member outside the parent group")
        mset = set(members)
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
        self.member_set = frozenset(members)

    def __len__(self):
        return len(self.members)


def example1_subgroups(field: FiniteField):
    """The pair H = [[1,*],[0,*]], H' = [[*,*],[0,1]] inside GL_2(F_p), p > 2."""
    if field.m != 1 or field.p <= 2:
        raise ValueError("example 1 requires a prime field with p > 2")
    G = build_gl(2, field)
    h = [m for m in G.elements if m.rows[0][0] == 1 and m.rows[1][0] == 0]
    hp = [m for m in G.elements if m.rows[1] == (0, 1)]
    return Subgroup(G, h), Subgroup(G, hp)


def stabilizer_pair(G: MatGroup, vector_index: int = 0, covector_index: int | None = None):
    """Stabilizers of the S-orbit of a basis vector and of a basis covector.

    vector_index picks e_i for the column condition; covector_index picks the
    row condition and defaults to the last row.  Different choices give
    conjugate subgroups, hence identical certificates.
    """
    n = G.n
    if n < 2:
        raise ValueError("stabilizer pair needs dimension at least 2")
    if covector_index is None:
        covector_index = n - 1
    if not (0 <= vector_index < n and 0 <= covector_index < n):
        raise ValueError("basis index out of range")
    s_set = {s.index for s in G.scalar_subgroup}
    v = vector_index
    w = covector_index
    h = [
        m
        for m in G.elements
        if m.rows[v][v] in s_set
        and not any(m.rows[i][v] for i in range(n) if i != v)
    ]
    hp = [
        m
        for m in G.elements
        if m.rows[w][w] in s_set
        and not any(m.rows[w][j] for j in range(n) if j != w)
    ]
    return Subgroup(G, h), Subgroup(G, hp)


def conjugacy_classes(G: MatGroup):
    """Class representatives with sizes, ordered by representative key."""
    return [(rep, size) for rep, size, _ in G.conjugacy_classes()]


def permutation_character_fixpoints(G: MatGroup, H: Subgroup) -> list[int]:
    """Fixed-point counts of class representatives acting on G/H: a member of
    class C fixes |G| * |C & H| / (|C| * |H|) cosets."""
    if H.parent is not G:
        raise ValueError("H is not a subgroup of this group")
    h_indices = {G.index[m] for m in H.members}
    return [
        len(G) * len(members & h_indices) // (size * len(H))
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
    index = G.index
    target = frozenset(index[m] for m in Hp.members)
    start = frozenset(index[m] for m in H.members)
    seen = {start}
    orbit = [start]
    maps = G.conjugations()
    for members in orbit:  # grows while it is read
        if members == target:
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
