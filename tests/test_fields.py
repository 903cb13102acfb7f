import gc
import math
import pickle
import random

import pytest

from ffequiv._extension import _plain_kernels
from ffequiv.fields import (
    PRIME_LIMIT,
    PACKED_LIMIT,
    TABLE_LIMIT,
    _FIELD_CACHE,
    FiniteField,
    _least_primitive,
    extension_field,
    is_prime,
    prime_field,
)
from ffequiv.poly import _pow_mod, _trim


def sample_fields():
    return [
        prime_field(2),
        prime_field(3),
        prime_field(5),
        prime_field(7),
        extension_field(2, degree=2),
        extension_field(2, degree=3),
        extension_field(3, degree=2),
        extension_field(2, degree=4),
        extension_field(3, degree=4),
    ]


def test_construction_errors():
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        extension_field(6, degree=2)
    # x^2 + 2 = (x+1)(x+2) over F_3
    with pytest.raises(ValueError):
        extension_field(3, modulus=[2, 0, 1])
    with pytest.raises(ValueError, match="reducible"):
        extension_field(10007, modulus=[2, 0, 3, 0, 1])  # (x^2 + 1)(x^2 + 2)
    with pytest.raises(ValueError):
        extension_field(2, modulus=[1, 1, 2])  # not monic after reduction
    with pytest.raises(ValueError, match="monic"):
        extension_field(3, modulus=[1, 0, 2])
    with pytest.raises(ValueError):
        extension_field(2, degree=1)
    with pytest.raises(ValueError):
        extension_field(2)
    with pytest.raises(ValueError):
        extension_field(2, modulus=[1, 1, 1], degree=2)


# extension_field(p, degree=m).modulus for every p^m <= 4096 with p <= 7,
# low degree first; (3, 5) and (2, 10) are the benchmark's F_243 and F_1024
CANONICAL_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
}


def test_canonical_moduli():
    assert extension_field(2, degree=2).modulus == (1, 1, 1)  # x^2+x+1
    assert extension_field(3, degree=2).modulus == (1, 0, 1)  # x^2+1
    assert extension_field(2, degree=3).modulus == (1, 1, 0, 1)
    for (p, m), modulus in CANONICAL_MODULI.items():
        assert extension_field(p, degree=m).modulus == modulus, (p, m)


def test_interning_and_equality():
    a = extension_field(2, degree=2)
    b = extension_field(2, modulus=[1, 1, 1])
    assert a is b
    # trailing zeros in the supplied modulus are trimmed before validation
    c = extension_field(3, modulus=[1, 0, 1, 0, 0])
    assert c is extension_field(3, degree=2)
    # x^4 + x + 6 over F_10007: validated in well under a second
    d = extension_field(10007, modulus=[6, 1, 0, 0, 1])
    assert d.q == 10007**4
    assert d is extension_field(10007, modulus=[6, 1, 0, 0, 1, 0])
    # the constructor interns as well: the same field is the same object
    assert FiniteField(3, (1, 0, 1)) is c
    assert FiniteField(10007, (6, 1, 0, 0, 1)) is d
    assert FiniteField(5, None) is prime_field(5)


def test_interned_only_while_held():
    key = (5, (2, 3, 0, 1))  # x^3 + 3x + 2, a modulus no other test builds
    assert key not in _FIELD_CACHE
    a = extension_field(5, modulus=[2, 3, 0, 1])
    assert _FIELD_CACHE[key] is a
    assert extension_field(5, modulus=[2, 3, 0, 1, 0]) is a
    del a
    assert key not in _FIELD_CACHE


def test_alternate_modulus_distinct_field():
    a = extension_field(3, degree=2)
    b = extension_field(3, modulus=[2, 1, 1])  # x^2+x+2, also irreducible
    assert a is not b
    assert a != b
    with pytest.raises(ValueError):
        _ = a.one + b.one


def test_cross_field_operations_rejected():
    f2 = prime_field(2)
    f3 = prime_field(3)
    with pytest.raises(ValueError):
        _ = f2.one + f3.one
    with pytest.raises(ValueError):
        _ = f2.one * f3.one


def test_index_round_trip():
    for field in sample_fields():
        seen = set()
        for i in range(field.q):
            e = field.from_index(i)
            assert e.index == i
            seen.add(e)
        assert len(seen) == field.q
    with pytest.raises(ValueError):
        prime_field(3).from_index(3)
    with pytest.raises(ValueError, match="neither a FieldElement nor an index"):
        prime_field(3).from_index(1.5)
    with pytest.raises(ValueError, match="longer than degree"):
        extension_field(3, degree=2).from_coeffs([1, 2, 1])


def test_frobenius_fixes_everything():
    # a^q == a for every element, every sample field
    for field in sample_fields():
        for e in field.elements():
            assert e**field.q == e


def test_multiplicative_group_cyclic():
    for field in sample_fields():
        orders = set()
        for e in field.elements():
            if not e.is_zero:
                orders.add(e.multiplicative_order())
        assert (field.q - 1) in orders
        for n in orders:
            assert (field.q - 1) % n == 0


def test_ring_axioms_random():
    rng = random.Random(20260822)
    for field in sample_fields():
        elems = list(field.elements())
        for _ in range(50):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == field.zero
            assert a + (-a) == field.zero


def test_division_round_trip():
    rng = random.Random(5)
    for field in sample_fields():
        elems = [e for e in field.elements() if not e.is_zero]
        for _ in range(30):
            a = rng.choice(elems)
            b = rng.choice(elems)
            assert (a * b) / b == a
            assert b * b.inverse() == field.one
    with pytest.raises(ZeroDivisionError):
        prime_field(5).zero.inverse()


def test_pow_edge_cases():
    f = extension_field(3, degree=2)
    g = f.gen
    assert g**0 == f.one
    assert f.zero**0 == f.one
    assert g**1 == g
    with pytest.raises(ValueError):
        _ = g ** (-1)


def test_constant_embedding():
    f9 = extension_field(3, degree=2)
    assert f9(5) == f9(2)
    assert f9(0) == f9.zero
    assert f9(1) == f9.one
    assert f9(-1) == f9(2)


def test_gen_satisfies_modulus():
    # over F_9 = F_3[x]/(x^2+1) the generator squares to -1
    f9 = extension_field(3, degree=2)
    assert f9.gen * f9.gen == f9(-1)
    with pytest.raises(ValueError):
        _ = prime_field(3).gen


def test_str_forms():
    f9 = extension_field(3, degree=2)
    assert str(f9.zero) == "0"
    assert str(f9.one) == "1"
    assert str(f9.gen) == "x"
    assert str(f9.gen + f9(2)) == "x+2"
    assert str(prime_field(7)(4)) == "4"


def test_pickle_round_trip():
    f9 = extension_field(3, degree=2)
    blob = pickle.dumps(f9.gen)
    back = pickle.loads(blob)
    assert back == f9.gen
    assert back.field is f9  # interned on load


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # Miller-Rabin agrees with a sieve of Eratosthenes below 10^5
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_large():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..23, Carmichael numbers
    for n in (3215031751, 3825123056546413051, 561, 41041):
        assert not is_prime(n)
    # strong pseudoprime to every prime base up to 37: only base 41 catches it
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    assert not is_prime(PRIME_LIMIT - 1)


def test_is_prime_refuses_above_limit():
    class Untouchable(int):
        # any arithmetic on n would mean a test loop had started
        def __mod__(self, other):
            raise AssertionError("n was reduced")

        __rmod__ = __pow__ = __rpow__ = __sub__ = __and__ = __rsub__ = __mod__

    for n in (PRIME_LIMIT, 10**400):
        with pytest.raises(ValueError, match="cannot decide whether"):
            is_prime(Untouchable(n))
    with pytest.raises(ValueError, match="cannot decide whether"):
        prime_field(PRIME_LIMIT + 2)


def _kernel_fields():
    """Fields of each kernel kind: prime, full byte tables up to order 256,
    XOR and Zech exp/log tables above it, and above the table limit
    carry-less products in characteristic 2 and packed products in odd
    characteristic, with the widest slots of the packed product at a large p
    (F_{10007^2}) and at a large m (F_{3^40})."""
    return {
        "prime": [prime_field(7), prime_field(10007)],
        "byte": [extension_field(p, degree=m)
                 for p, m in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (3, 5), (2, 8))],
        "xor": [extension_field(2, degree=m) for m in (10, 12)],
        "zech": [extension_field(3, degree=7), extension_field(5, degree=4)],
        "clmul": [extension_field(2, degree=17), extension_field(2, degree=20)],
        "kronecker": [extension_field(p, degree=m)
                      for p, m in ((3, 11), (5, 7), (7, 6), (10007, 2), (3, 40))],
    }


def test_kernel_kinds_follow_table_limit():
    for kind, fields in _kernel_fields().items():
        for field in fields:
            tabled = field.m > 1 and field.q <= TABLE_LIMIT
            assert tabled == (kind in ("byte", "xor", "zech")), field
            assert (tabled and field.q <= PACKED_LIMIT) == (kind == "byte"), field


def vector_route(field):
    """Reference arithmetic on indices, independent of the extension kernels:
    digitwise sums and differences mod p, the schoolbook product, and powers
    by the prime field's list core on digit vectors mod M."""
    p, pack, unpack = field.p, field.pack, field.unpack
    Fp, M = prime_field(p), list(field.modulus or (0, 1))

    def power(a, e):
        return pack(_pow_mod(Fp, _trim(list(unpack(a))), e, M))

    return {
        "add": lambda a, b: pack([(x + y) % p for x, y in zip(unpack(a), unpack(b))]),
        "sub": lambda a, b: pack([(x - y) % p for x, y in zip(unpack(a), unpack(b))]),
        "neg": lambda a: pack([-x % p for x in unpack(a)]),
        "mul": lambda a, b: _schoolbook_mul(field, a, b),
        "pow": power,
    }


def test_int_kernels_match_vector_arithmetic():
    rng = random.Random(20261018)
    for kind, fields in _kernel_fields().items():
        for field in fields:
            ref = vector_route(field)
            add, mul = ref["add"], ref["mul"]
            q = field.q
            if q <= 64:
                pairs = [(a, b) for a in range(q) for b in range(q)]
            else:
                # a few hundred on the packed fields: the reference powers
                # are slow in F_{3^40}
                count = 300 if kind == "kronecker" else 2000
                pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]
            for a, b in pairs:
                assert field.add(a, b) == add(a, b), (field, a, b)
                assert field.sub(a, b) == ref["sub"](a, b), (field, a, b)
                assert field.neg(a) == ref["neg"](a), (field, a)
                assert field.mul(a, b) == mul(a, b), (field, a, b)
                if b:
                    assert mul(field.inv(b), b) == 1, (field, b)
                e = rng.randrange(3 * q)
                assert field.pow(a, e) == ref["pow"](a, e), (field, a, e)
                # acc[1 + j] += c * row[j] for a nonzero c, next to untouched slots
                c = a or 1
                acc = [b, a, 0, b, a]
                field.addmul(acc, c, [b, 0, a], 1)
                assert acc == [b, add(a, mul(c, b)), 0, add(b, mul(c, a)), a], (field, a, b)


def _schoolbook_mul(field, a, b):
    """a * b as digit vectors: the full product over F_p, then long division
    by the monic modulus M."""
    p, m, modulus = field.p, field.m, field.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(field.unpack(a)):
        for j, y in enumerate(field.unpack(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        for t, mt in enumerate(modulus):
            prod[k - m + t] = (prod[k - m + t] - c * mt) % p
    return field.pack(prod[:m])


def test_plain_kernels_match_schoolbook():
    # the table-free kernels every table is built from, on tabled fields
    # too; a slot of the packed product must hold (2m - 1)(p - 1)^2, which
    # only 99 * 99 reaches in F_125 and (q - 1)^2 in F_{3^7}
    for p, m in ((2, 5), (7, 2), (5, 3), (3, 7)):
        field = extension_field(p, degree=m)
        mul, power = _plain_kernels(p, field.modulus)
        q = field.q
        rows = range(q) if q <= 125 else [q - 1]
        for a in rows:
            for b in range(q):
                assert mul(a, b) == _schoolbook_mul(field, a, b), (field, a, b)
        for a in range(q):
            for e in (0, 1, q - 2, 2 * q + 1):
                assert power(a, e) == field.pow(a, e), (field, a, e)


def test_odd_kernels_above_table_limit():
    # odd characteristic above the table limit: the product is packed, and
    # sums unpack digits; the reference here is written out digit by digit
    rng = random.Random(311)
    for p, m in ((3, 11), (5, 7), (7, 6)):
        field = extension_field(p, degree=m)
        q = field.q
        assert q > TABLE_LIMIT
        pack, unpack = field.pack, field.unpack

        def add(a, b):
            return pack([(x + y) % p for x, y in zip(unpack(a), unpack(b))])

        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert field.mul(a, b) == _schoolbook_mul(field, a, b), (field, a, b)
            assert field.add(a, b) == add(a, b), (field, a, b)
            assert field.sub(a, b) == pack([(x - y) % p for x, y in zip(unpack(a), unpack(b))])
            assert field.neg(a) == pack([-x % p for x in unpack(a)]), (field, a)
            if a:
                assert field.mul(a, field.inv(a)) == 1, (field, a)
                assert field.pow(a, q - 1) == 1, (field, a)
            c = c or 1
            acc = [b, a, 0, c]
            field.addmul(acc, c, [a, 0, b], 1)
            assert acc == [b, add(a, _schoolbook_mul(field, c, a)), 0,
                           add(c, _schoolbook_mul(field, c, b))], (field, a, b, c)


def test_inverse_is_q_minus_2_power():
    for field in (extension_field(2, degree=2), extension_field(3, degree=2),
                  extension_field(3, degree=5), extension_field(2, degree=10)):
        power = vector_route(field)["pow"]
        for i in range(1, field.q):
            assert field.from_index(i).inverse().index == power(i, field.q - 2), (field, i)


def test_char2_inverse_above_table_limit():
    # the carry-less kind inverts by an extended Euclid on bit patterns;
    # the (q - 2)-th power is the independent reference
    rng = random.Random(17)
    for m in (17, 20):
        field = extension_field(2, degree=m)
        q = field.q
        assert q > TABLE_LIMIT
        samples = [1, 2, q - 1] + [rng.randrange(1, q) for _ in range(200)]
        for a in samples:
            b = field.inv(a)
            assert 0 < b < q, (field, a)
            assert field.mul(a, b) == 1, (field, a)
            assert b == field.pow(a, q - 2), (field, a)
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


def test_fields_freed_by_refcount():
    # no kernel, element or table may tie a field into a reference cycle,
    # so that a residue field's tables are freed as soon as its prime is done.
    # FiniteField returns a field that is still held, so every key is one no
    # other test holds: each modulus is the reciprocal x^m M(1/x), made
    # monic, of the canonical M of its degree, also irreducible
    kinds = {
        "prime": (7, None),
        "tables": (2, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
        "bytes": (3, (1, 0, 0, 0, 2, 1)),
        "packed": (2, (1, 0, 0, 0, 1, 1, 0, 1, 1)),
        "clmul": (2, (1,) + (0,) * 13 + (1, 0, 0, 1)),
        "kronecker": (3, (2,) + (0,) * 8 + (2, 0, 1)),
    }
    gc.collect()
    gc.disable()
    try:
        for kind, (p, modulus) in kinds.items():
            assert (p, modulus) not in _FIELD_CACHE, kind
            field = FiniteField(p, modulus)
            x = field.from_index(field.q - 1)
            assert (x * x.inverse() + field.zero).is_one
            assert field.mul(field.add(x.index, 1), 1) == (x + field.one).index
            # c*y^2 + c*y + c = c*y * (y + 1) + c for c of index 2; the
            # packed kernel builds the table of c here
            assert field.divrem([2, 2, 2], [1, 1]) == ([0, 2], [2])
            del field, x
            assert gc.collect() == 0, kind
            assert (p, modulus) not in _FIELD_CACHE, kind
    finally:
        gc.enable()


def test_smallest_generator_is_least_of_full_order():
    for field in sample_fields() + [extension_field(5, degree=2), extension_field(3, degree=5)]:
        g = field.from_index(_least_primitive(field.p, field.q, field.pow))
        assert g.multiplicative_order() == field.q - 1
        for i in range(1, g.index):
            assert field.from_index(i).multiplicative_order() < field.q - 1


def _order_by_walk(e):
    # multiply by e until the product is 1
    mul, a = e.field.mul, e.index
    n, acc = 1, a
    while acc != 1:
        acc = mul(acc, a)
        n += 1
    return n


def test_multiplicative_order_matches_walk():
    f7, f9 = prime_field(7), extension_field(3, modulus=[1, 0, 1])
    big = extension_field(2, degree=17)
    rng = random.Random(17)
    cases = [e for f in (f7, f9) for e in f.elements() if not e.is_zero]
    cases += [big.one, big.gen] + [big.from_index(rng.randrange(2, big.q)) for _ in range(2)]
    for e in cases:
        assert e.multiplicative_order() == _order_by_walk(e), e
    assert sorted({e.multiplicative_order() for e in f9.elements() if e}) == [1, 2, 4, 8]
    for field in (f7, f9, big):
        with pytest.raises(ValueError, match="zero"):
            field.zero.multiplicative_order()
