import gc
import random

import pytest

from ffequiv.fields import extension_field, prime_field
from ffequiv.gassmann import (
    MatElem,
    MatGroup,
    Subgroup,
    _are_conjugate,
    build_gl,
    conjugacy_classes,
    example1_subgroups,
    permutation_character_fixpoints,
    stabilizer_pair,
    verify_gassmann,
)
from ffequiv.poly import _mul, _rem, _trim

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension_field(2, degree=2)
F5 = prime_field(5)


def _classes_by_all_conjugators(G):
    # reference for the orbit routine: conjugate each new element by all of G
    seen = set()
    out = []
    for i, x in enumerate(G.elements):
        if i in seen:
            continue
        members = frozenset(G.index[G.mul(G.mul(g, x), G.inv(g))] for g in G.elements)
        seen |= members
        out.append((x, len(members), members))
    return out


def _fixed_cosets(G, H):
    # reference for the class-count formula: list the cosets xH and count
    # those that each class representative maps to themselves
    cosets = {frozenset(G.mul(x, h) for h in H.members) for x in G.elements}
    return [
        sum(1 for c in cosets if G.mul(rep, next(iter(c))) in c)
        for rep, _, _ in G.conjugacy_classes()
    ]


def _conjugate_by_members(G, H, Hp):
    # reference for _are_conjugate: conjugate every member of H, not just its generators
    if len(H) != len(Hp):
        return False
    return any(
        all(G.mul(G.mul(g, h), G.inv(g)) in Hp.member_set for h in H.members)
        for g in G.elements
    )


@pytest.fixture(scope="module")
def gl2_f3():
    return build_gl(2, F3)


@pytest.fixture(scope="module")
def ex1_f3(gl2_f3):
    h, hp = example1_subgroups(F3)
    # rebind to the shared group instance to reuse its caches
    return Subgroup(gl2_f3, h.members), Subgroup(gl2_f3, hp.members)


def test_group_orders():
    assert len(build_gl(2, F2)) == 6
    assert len(build_gl(2, F3)) == 48
    assert len(build_gl(2, F4)) == 180
    assert len(build_gl(3, F2)) == 168
    assert len(build_gl(1, F3)) == 2
    with pytest.raises(ValueError, match="at least 1"):
        build_gl(0, F3)


def test_order_formula():
    for n, field in ((2, F2), (2, F3), (2, F4), (3, F2)):
        q = field.q
        expected = 1
        for i in range(n):
            expected *= q**n - q**i
        assert len(build_gl(n, field)) == expected


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        build_gl(4, F5)
    with pytest.raises(ValueError, match="cap"):
        build_gl(2, F3, cap=10)


def test_scalar_quotient():
    G = build_gl(2, F3, scalar_generator=F3(2))
    assert len(G) == 24
    assert G.scalar_subgroup == (F3(1), F3(2))
    for m in G.elements:
        first = next(e for r in m.rows for e in r if e)
        assert first == 1
    rng = random.Random(4)
    for _ in range(50):
        a = G.elements[rng.randrange(len(G))]
        b = G.elements[rng.randrange(len(G))]
        assert G.mul(a, b) in G.index
        assert G.inv(a) in G.index
    with pytest.raises(ValueError, match="nonzero"):
        build_gl(2, F3, scalar_generator=F3(0))
    with pytest.raises(ValueError, match="different field"):
        build_gl(2, F3, scalar_generator=F5(4))


def test_matelem_basics(gl2_f3):
    with pytest.raises(ValueError, match="singular"):
        MatElem.from_ints(F3, [[1, 2], [2, 1]])
    m = MatElem.from_ints(F3, [[1, 1], [1, 2]])
    assert m.det() == F3(1)
    assert m.mul(m.inverse()) == MatElem.identity(F3, 2)
    rng = random.Random(7)
    for _ in range(40):
        a = gl2_f3.elements[rng.randrange(48)]
        b = gl2_f3.elements[rng.randrange(48)]
        assert a.mul(b).det() == a.det() * b.det()
    assert m.render() == "[[1,1],[1,2]]"
    # one field of each extension kernel kind: XOR tables, Zech tables, vectors
    for field in (F4, extension_field(3, degree=2), extension_field(2, degree=17)):
        _check_matelem(field)


def _vector_route(f):
    # reference arithmetic on indices: products by the prime field's list
    # core on unpacked digits mod M, and digitwise sums mod p
    p = f.p
    Fp, M = prime_field(p), list(f.modulus)

    def mul(a, b):
        return f.pack(_rem(Fp, _mul(Fp, _trim(list(f.unpack(a))), _trim(list(f.unpack(b)))), M))

    def add(a, b):
        return f.pack([(x + y) % p for x, y in zip(f.unpack(a), f.unpack(b))])

    return mul, add


def _product_by_vectors(a, b):
    # reference for MatElem.mul: each entry a sum of list-core products
    mul, add = _vector_route(a.field)
    n = a.n
    out = []
    for ra in a.rows:
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add(acc, mul(ra[k], b.rows[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _check_matelem(field):
    q = field.q
    g = field.gen
    mul, add = _vector_route(field)
    # the second row is g times the first
    with pytest.raises(ValueError, match="singular"):
        MatElem(field, [[g, field.one], [g * g, g]])
    with pytest.raises(ValueError, match="singular"):
        MatElem(field, [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    rng = random.Random(q)
    for n in (2, 3):
        ident = MatElem.identity(field, n)
        mats = []
        while len(mats) < 8:
            try:
                mats.append(MatElem(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)]))
            except ValueError:  # singular draw
                continue
        for a, b in zip(mats, mats[1:] + mats[:1]):
            assert a.mul(b).rows == _product_by_vectors(a, b)
            assert a.mul(a.inverse()) == ident == a.inverse().mul(a)
            assert a.mul(b).det() == a.det() * b.det()
            if n == 2:  # ad - bc, the constant p - 1 being -1
                (w, x), (y, z) = a.rows
                assert a.det().index == add(mul(w, z), mul(field.p - 1, mul(x, y)))
    m = MatElem(field, [[field.p, 1], [0, q - 1]])
    assert m.rows == ((field.p, 1), (0, q - 1))
    assert m.render() == f"[[{field.p},1],[0,{q - 1}]]"
    assert MatElem(field, [[g, field.one], [field.zero, g]]).render() == f"[[{field.p},1],[0,{field.p}]]"
    with pytest.raises(ValueError, match="different field"):
        MatElem(field, [[extension_field(5, degree=2).one, 0], [0, 1]])
    for bad in (q, -1):
        with pytest.raises(ValueError, match="out of range"):
            MatElem(field, [[bad, 0], [0, 1]])


def test_matelem_rejects_non_index_entries():
    with pytest.raises(ValueError, match="neither a FieldElement nor an index"):
        MatElem(prime_field(7), [[1.0, 0], [0, 1]])
    for rows in ([], [[1, 0]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="square"):
            MatElem(prime_field(7), rows)


def test_example1_subgroups(gl2_f3):
    h, hp = example1_subgroups(F3)
    assert len(h) == 6 and len(hp) == 6
    assert len(h.parent) // len(h) == 8
    h5, hp5 = example1_subgroups(F5)
    assert len(h5) == 20 and len(hp5) == 20
    assert len(h5.parent) // len(h5) == 24
    with pytest.raises(ValueError, match="p > 2"):
        example1_subgroups(F2)
    with pytest.raises(ValueError, match="p > 2"):
        example1_subgroups(F4)


def test_conjugacy_classes(gl2_f3):
    # the classes come from index tables; the reference conjugates matrices
    groups = (gl2_f3, build_gl(2, F4), build_gl(3, F2), build_gl(2, F5, scalar_generator=F5(4)),
              build_gl(2, F3, scalar_generator=F3(2)))
    for G in groups:
        assert G.conjugacy_classes() == _classes_by_all_conjugators(G)
    classes = conjugacy_classes(gl2_f3)
    assert len(classes) == 8
    assert sum(size for _, size in classes) == 48
    ident = MatElem.identity(F3, 2)
    assert any(rep == ident and size == 1 for rep, size in classes)
    small = build_gl(1, F3)
    assert [size for _, size in conjugacy_classes(small)] == [1, 1]


def test_right_tables_are_products():
    for G in (build_gl(2, F4), build_gl(3, F2), build_gl(2, F5, scalar_generator=F5(4))):
        assert len(G.right) == len(G.gens)
        for g, table in zip(G.gens, G.right):
            assert table.typecode == "I"
            assert list(table) == [G.index[G.mul(x, g)] for x in G.elements]


def test_code_tables_agree_with_matrix_products():
    # enumeration and transposes run on row codes; check them against
    # products of matrices, quotient groups included
    F9 = extension_field(3, [1, 0, 1])
    groups = (
        build_gl(2, F3, scalar_generator=F3(2)),
        build_gl(2, F4),
        build_gl(2, F9, scalar_generator=F9.gen),
        build_gl(3, F2),
    )
    for G in groups:
        keys = [m.key for m in G.elements]
        assert keys == sorted(keys)
        for s, right, conj in zip(G.gens, G.right, G.conjugations()):
            s_inv = G.inv(s)
            for i, x in enumerate(G.elements):
                assert right[i] == G.index[G.mul(x, s)]
                assert conj[i] == G.index[G.mul(G.mul(s, x), s_inv)]


def test_cap_counts_the_code_tables():
    # GL_2(F_3) has 48 elements; its row-code tables hold 81 entries more
    with pytest.raises(ValueError, match="48 and 81 table entries > cap 128"):
        build_gl(2, F3, cap=128)
    assert len(build_gl(2, F3, cap=129)) == 48


def test_generators_must_be_closed_under_transpose():
    # MatGroup gets its left tables by transposition, so it refuses
    # generators whose transposes are not among them
    G = build_gl(2, F3)
    upper = [G.gens[0], MatElem.from_ints(F3, [[1, 1], [0, 1]])]
    with pytest.raises(ValueError, match="closed under transposition"):
        MatGroup(F3, 2, G.scalar_subgroup, upper)


def test_any_generators_closed_under_transpose_give_the_same_group():
    # a generator that is not 1 + c*E_ij, here a permutation matrix, is
    # tabled like any other, and the group and its classes do not change
    swap2 = [[0, 1], [1, 0]]
    swap3 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    for G, swap in (
        (build_gl(2, F3), swap2),
        (build_gl(2, F5, scalar_generator=F5(4)), swap2),
        (build_gl(3, F2), swap3),
    ):
        more = MatGroup(G.field, G.n, G.scalar_subgroup, [*G.gens, MatElem.from_ints(G.field, swap)])
        assert more.elements == G.elements
        assert more.conjugacy_classes() == G.conjugacy_classes()


def test_gl_is_spanned_by_a_diagonal_matrix_and_neighbour_transvections():
    F8 = extension_field(2, degree=3)
    F9 = extension_field(3, [1, 0, 1])
    cases = [(n, field, None) for field in (F2, F3) for n in (1, 2, 3)]
    cases += [(n, field, None) for field in (F4, F5, prime_field(7), F8, F9) for n in (1, 2)]
    cases += [(4, F2, None), (2, F3, F3(2)), (2, F5, F5(4)), (2, F5, F5(2)), (3, F3, F3(2)),
              (2, F4, F4.gen), (2, F9, F9.gen)]
    for n, field, s in cases:
        G = build_gl(n, field, scalar_generator=s)  # checks the order
        assert len(G.gens) == (field.q > 2) + 2 * (n - 1)


def test_trivial_group():
    G = build_gl(1, F2)
    ident = MatElem.identity(F2, 1)
    assert G.gens == () and G.elements == (ident,)
    assert conjugacy_classes(G) == [(ident, 1)]
    assert G.span([]) == {ident}
    assert build_gl(2, F3).span([]) == {MatElem.identity(F3, 2)}


def _closure(G, gens):
    # reference for span: close the identity under right products with G.mul
    seen = {G.identity}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def test_span_matches_product_closure():
    rng = random.Random(11)
    for G in (build_gl(2, F3), build_gl(2, F4), build_gl(3, F2), build_gl(2, F5, scalar_generator=F5(4))):
        gen_sets = [list(H.gens) for H in stabilizer_pair(G)]
        gen_sets += [rng.sample(G.elements, k) for k in (1, 1, 2, 2)]
        for gens in gen_sets:
            span = G.span(gens)
            assert span == _closure(G, gens)
            assert len(G) % len(span) == 0


def test_certificates_make_no_matrix_product(monkeypatch):
    # the group, its subgroups, classes and conjugacy search all run on
    # row-code and index tables; a matrix product or inverse would raise
    F7 = prime_field(7)
    F9 = extension_field(3, [1, 0, 1])

    def triples():
        H, Hp = example1_subgroups(F7)
        yield H.parent, H, Hp
        G = build_gl(3, F2)
        yield G, *stabilizer_pair(G)
        G = build_gl(2, F9, scalar_generator=F9.gen)
        yield G, *stabilizer_pair(G)

    expected = [verify_gassmann(G, H, Hp).render() for G, H, Hp in triples()]

    def refuse(*args):
        raise AssertionError("matrix product on the certificate path")

    monkeypatch.setattr(MatElem, "mul", refuse)
    monkeypatch.setattr(MatGroup, "mul", refuse)
    monkeypatch.setattr(MatGroup, "inv", refuse)
    certs = [verify_gassmann(G, H, Hp) for G, H, Hp in triples()]
    assert [c.render() for c in certs] == expected
    assert all(c.is_gassmann and c.is_nontrivial for c in certs)


def test_build_leaves_the_cycle_collector_as_it_found_it():
    # the build runs with the collector off, and a failed build restores it too
    G = build_gl(2, F3)
    upper = [G.gens[0], MatElem.from_ints(F3, [[1, 1], [0, 1]])]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert len(build_gl(2, F3)) == 48
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="closed under transposition"):
                MatGroup(F3, 2, G.scalar_subgroup, upper)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_certificate_example1(ex1_f3):
    h, hp = ex1_f3
    cert = verify_gassmann(h.parent, h, hp)
    assert cert.is_gassmann
    assert cert.is_nontrivial
    assert cert.index == 8
    ident_rows = [r for r in cert.rows if r[0] == MatElem.identity(F3, 2)]
    assert ident_rows[0][2] == 8 and ident_rows[0][3] == 8
    tail = cert.render().split("\n")[-1]
    assert tail == "gassmann=true nontrivial=true index=8"
    assert len(cert.render().split("\n")) == 9


def test_certificate_self_pair(ex1_f3):
    h, _ = ex1_f3
    cert = verify_gassmann(h.parent, h, h)
    assert cert.is_gassmann
    assert not cert.is_nontrivial
    triples = [(h.parent, *ex1_f3)]
    for n, field in ((2, F4), (3, F2), (2, F2)):
        G = build_gl(n, field)
        triples.append((G, *stabilizer_pair(G)))
    for G, H, Hp in triples:
        full = Subgroup(G, G.elements)
        for a, b in ((H, Hp), (Hp, H), (H, H), (H, full)):
            assert _are_conjugate(G, a, b) == _conjugate_by_members(G, a, b)


def _conjugated(G, H, g):
    ginv = G.inv(g)
    return Subgroup(G, [G.mul(G.mul(g, h), ginv) for h in H.members])


def test_conjugator_search_walks_the_orbit_of_H(gl2_f3, ex1_f3, monkeypatch):
    G3 = build_gl(3, F2)
    cases = [(gl2_f3, ex1_f3[0]), (G3, stabilizer_pair(G3)[0])]
    for G, H in cases:
        g = next(x for x in reversed(G.elements) if x not in H.member_set)
        Hg = _conjugated(G, H, g)
        assert Hg.member_set != H.member_set
        assert _are_conjugate(G, H, Hg) and _conjugate_by_members(G, H, Hg)
        assert _are_conjugate(G, Hg, H) and _conjugate_by_members(G, Hg, H)
    # a Gassmann pair that is not conjugate is refuted on index sets alone,
    # without inverting a matrix
    calls = []
    inverse = MatElem.inverse
    monkeypatch.setattr(MatElem, "inverse", lambda m: calls.append(m) or inverse(m))
    for G, H, Hp in [(gl2_f3, *ex1_f3), (G3, *stabilizer_pair(G3))]:
        calls.clear()
        assert not _are_conjugate(G, H, Hp)
        assert calls == []
        assert not _conjugate_by_members(G, H, Hp)


def test_certificate_gl2_f4():
    G = build_gl(2, F4)
    h, hp = stabilizer_pair(G)
    cert = verify_gassmann(G, h, hp)
    assert cert.is_gassmann
    assert cert.is_nontrivial
    assert cert.index == 15


def test_certificate_gl3_f2():
    G = build_gl(3, F2)
    h, hp = stabilizer_pair(G)
    cert = verify_gassmann(G, h, hp)
    assert cert.is_gassmann
    assert cert.is_nontrivial
    assert cert.index == 7


def test_certificate_gl2_f2_trivial():
    G = build_gl(2, F2)
    h, hp = stabilizer_pair(G)
    cert = verify_gassmann(G, h, hp)
    assert cert.is_gassmann
    assert not cert.is_nontrivial
    assert cert.index == 3


def test_fixpoint_identity_and_full_subgroup(gl2_f3):
    full = Subgroup(gl2_f3, gl2_f3.elements)
    assert permutation_character_fixpoints(gl2_f3, full) == [1] * 8


def test_fixpoint_formula_crosscheck(gl2_f3, ex1_f3):
    # the library's |G| * |C & H| / (|C| * |H|) against fixed cosets counted one by one
    pairs = [(gl2_f3, H) for H in ex1_f3]
    for G in (build_gl(2, F4), build_gl(2, F3, scalar_generator=F3(2))):
        pairs += [(G, H) for H in stabilizer_pair(G)]
    for G, H in pairs:
        assert permutation_character_fixpoints(G, H) == _fixed_cosets(G, H)


def test_burnside(gl2_f3, ex1_f3):
    groups = []
    h, hp = ex1_f3
    groups.append((gl2_f3, h))
    groups.append((gl2_f3, hp))
    G4 = build_gl(2, F4)
    s4 = stabilizer_pair(G4)
    groups.append((G4, s4[0]))
    groups.append((G4, s4[1]))
    h5, _ = example1_subgroups(F5)
    groups.append((h5.parent, h5))
    for G, H in groups:
        counts = permutation_character_fixpoints(G, H)
        total = sum(size * c for (_, size, _), c in zip(G.conjugacy_classes(), counts))
        assert total == len(G)


def test_stabilizer_matches_example1(gl2_f3, ex1_f3):
    h, hp = ex1_f3
    sh, shp = stabilizer_pair(gl2_f3)
    assert set(sh.members) == set(h.members)
    assert set(shp.members) == set(hp.members)


def test_stabilizer_choice_invariance():
    # other basis vectors give the pair conjugated by a permutation matrix,
    # and the certificate does not change, row for row
    swap = [[0, 1], [1, 0]]
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    for G, perm in (
        (build_gl(2, F4), swap),
        (build_gl(2, F5, scalar_generator=F5(4)), swap),
        (build_gl(3, F2), cycle),
    ):
        H, Hp = stabilizer_pair(G)
        g = MatElem.from_ints(G.field, perm)
        Hg, Hpg = _conjugated(G, H, g), _conjugated(G, Hp, g)
        assert Hg.member_set != H.member_set and Hpg.member_set != Hp.member_set
        assert verify_gassmann(G, Hg, Hpg) == verify_gassmann(G, H, Hp)


def test_subgroup_validation(gl2_f3):
    not_closed = [MatElem.identity(F3, 2), MatElem.from_ints(F3, [[1, 1], [0, 1]]), MatElem.from_ints(F3, [[1, 0], [1, 1]])]
    with pytest.raises(ValueError, match="closed"):
        Subgroup(gl2_f3, not_closed)
    with pytest.raises(ValueError, match="identity"):
        Subgroup(gl2_f3, [MatElem.from_ints(F3, [[2, 0], [0, 1]])])
    other = build_gl(2, F2)
    with pytest.raises(ValueError, match="outside"):
        Subgroup(gl2_f3, [other.identity])
    with pytest.raises(ValueError, match="empty"):
        Subgroup(gl2_f3, [])
    with pytest.raises(ValueError, match="dimension at least 2"):
        stabilizer_pair(build_gl(1, F3))


def test_verify_rejects_foreign_subgroup(gl2_f3, ex1_f3):
    h, _ = ex1_f3
    other = build_gl(2, F2)
    oh, ohp = stabilizer_pair(other)
    with pytest.raises(ValueError, match="subgroup"):
        verify_gassmann(gl2_f3, h, ohp)
    with pytest.raises(ValueError, match="subgroup"):
        permutation_character_fixpoints(gl2_f3, oh)
