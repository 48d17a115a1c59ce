"""Tests for the free-algebra layer: arithmetic, canonical form, text form."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest

from ncomplex.complexes import NodeSet
from ncomplex.free_algebra import (
    MIN_SLICE_CHARGE,
    MONOMIAL_CAP,
    Poly,
    Symbol,
    _check_word_count,
    commutator,
    exact,
    poly_text,
    substitute,
    symbol_key,
    u,
    z,
)
from ncomplex.parsing import parse_poly
from ncomplex.presentations import all_u_symbols, all_z_symbols


def us(*elems, n=3):
    return Poly.from_symbol(u(NodeSet.of(elems, n)))


def random_poly(rng, n=3, max_terms=4, max_degree=3):
    letters = [u(s) for s in NodeSet.full(n).subsets() if not s.is_empty]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_degree)))
        terms[w] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(terms)


class TestSymbols:
    def test_invariants(self):
        with pytest.raises(ValueError, match="requires 2 not in"):
            z(NodeSet.of((2,), 3), 2)
        with pytest.raises(ValueError, match="unit"):
            u(NodeSet.of((), 3))
        with pytest.raises(ValueError, match="z generator needs an index i"):
            z(NodeSet.of((1,), 3), None)
        with pytest.raises(ValueError, match="^u generator takes no index$"):
            Symbol("u", NodeSet.of((1,), 3), 2)
        with pytest.raises(ValueError, match="^unknown generator kind 'w'$"):
            Symbol("w", NodeSet.of((1,), 3))

    # a bool passed as the int it equals, and a float failed inside a shift
    @pytest.mark.parametrize("make, text", [
        (lambda a: z(a, True), "True"),
        (lambda a: Symbol("z", a, True), "True"),
        (lambda a: z(a, 3.0), "3.0"),
        (lambda a: Symbol("z", a, 3.0), "3.0"),
        (lambda a: z(a, Fraction(3)), "Fraction(3, 1)"),
    ])
    def test_index_must_be_an_int(self, make, text):
        a = NodeSet.of((2,), 3)
        z(a, 1), z(a, 3)  # held letters an equal key would find
        with pytest.raises(ValueError, match=rf"^index {re.escape(text)} is not an integer$"):
            make(a)

    def test_canonical_order(self):
        a = NodeSet.of((1,), 3)
        b = NodeSet.of((2,), 3)
        ab = NodeSet.of((1, 2), 3)
        assert symbol_key(u(a)) < symbol_key(u(b)) < symbol_key(u(ab))
        assert symbol_key(z(a, 2)) < symbol_key(u(a))
        assert symbol_key(z(a, 2)) < symbol_key(z(a, 3))


def old_symbol_key(s):
    """The tuple the canonical order was first written as."""
    if s.kind == "z":
        return (0, s.a.size, s.a.elements, s.i)
    return (1, s.a.size, s.a.elements, 0)


class TestSymbolIdentity:
    def test_equal_symbols_built_apart(self):
        a, b = Symbol("z", NodeSet(4, 0b101), 2), Symbol("z", NodeSet.of((3, 1), 4), 2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert Symbol("u", NodeSet(3, 0b11)) == u(NodeSet.of((2, 1), 3))
        assert len({a, b, z(NodeSet.of((1, 3), 4), 2)}) == 1

    def test_one_object_per_letter(self):
        # the held letter is found from any equal set, also one built directly
        a = NodeSet.of((1, 3), 4)
        assert z(a, 2) is z(NodeSet(4, 0b101), 2) is z(NodeSet.of((3, 1), 4), 2)
        assert u(a) is u(NodeSet(4, 0b101)) is u(NodeSet.of((1,), 4) | a.plus(2).minus(2))
        assert z(a, 2) is not z(a, 4) and u(a) is not u(NodeSet.of((1, 3), 5))
        letters = all_z_symbols(3) + all_u_symbols(3)
        assert all(s is t for s, t in zip(letters, all_z_symbols(3) + all_u_symbols(3)))

    def test_threads_that_miss_together_get_one_object(self):
        # every z letter on 8 nodes, built at once by more threads than cores
        start = threading.Barrier(8, timeout=60)

        def build(out):
            start.wait()
            out.extend(z(a, i) for a in NodeSet.full(8).subsets() for i in range(1, 9)
                       if i not in a)
        results = [[] for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(r,)) for r in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results[0]) == 8 * 2 ** 7
        assert all(s is t for r in results[1:] for s, t in zip(r, results[0], strict=True))

    def test_a_verify_sweep_holds_only_its_universe(self):
        # in a fresh process, whose tables start empty
        code = ("import contextlib, io\n"
                "from ncomplex import cli\n"
                "from ncomplex.complexes import _NODE_SETS\n"
                "from ncomplex.free_algebra import _LETTERS\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['verify', '--n', '4']) == 0\n"
                "print(len(_NODE_SETS), len(_LETTERS),"
                " *sorted({key[0] for key in [*_NODE_SETS, *_LETTERS]}))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        sets, letters, *universes = map(int, proc.stdout.split())
        assert 0 < sets <= 16 and 0 < letters <= 15 + 32 and universes == [4]

    def test_unequal_symbols(self):
        a = NodeSet.of((1,), 3)
        assert z(a, 2) != u(a) and z(a, 2) != u(NodeSet.of((1, 2), 3))
        assert z(a, 2) != z(a, 3)
        # the same bits under another universe
        assert u(a) != u(NodeSet.of((1,), 4))
        assert z(a, 2) != z(NodeSet.of((1,), 4), 2)
        assert u(a) != "u({1})" and u(a) != a

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orders_unchanged(self, n):
        syms = all_z_symbols(n) + all_u_symbols(n)
        random.Random(n).shuffle(syms)
        assert sorted(syms, key=symbol_key) == sorted(syms, key=old_symbol_key)

    def test_orders_unchanged_at_the_universe_cap(self):
        rng = random.Random(16)
        syms = set()
        while len(syms) < 400:
            a = NodeSet(16, rng.randrange(1, 1 << 16) & rng.randrange(1 << 16) or 1)
            outside = [i for i in range(1, 17) if i not in a]
            syms.add(z(a, rng.choice(outside)) if outside and rng.random() < 0.5 else u(a))
        syms = list(syms)
        assert sorted(syms, key=symbol_key) == sorted(syms, key=old_symbol_key)


class TestSymbolContract:
    """A Symbol is its canonical int key, and nothing else about it changes:
    its fields are read-only, copies and pickles are equal Symbols, it is
    never taken for a coefficient, and it refuses arithmetic."""

    SYMS = [z(NodeSet.of((1, 3), 4), 2), u(NodeSet.of((2,), 3)), u(NodeSet.full(16)),
            z(NodeSet.of((), 1), 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hash_is_the_key(self, n):
        for s in all_z_symbols(n) + all_u_symbols(n):
            assert hash(s) == symbol_key(s)

    @pytest.mark.parametrize("field", ["kind", "a", "i"])
    def test_fields_are_read_only(self, field):
        s = z(NodeSet.of((1,), 3), 2)
        with pytest.raises(AttributeError):
            setattr(s, field, u(NodeSet.of((1,), 3)).a)
        with pytest.raises(AttributeError):
            delattr(s, field)
        assert (s.kind, s.a, s.i) == ("z", NodeSet.of((1,), 3), 2)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        *(lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_copies_are_equal_symbols(self, clone):
        for s in self.SYMS:
            t = clone(s)
            assert type(t) is type(s) and t == s and hash(t) == hash(s)
            assert (t.kind, t.a, t.i, str(t), repr(t)) == (s.kind, s.a, s.i, str(s), repr(s))
            # a copy's set finds the held letter
            assert (z(t.a, t.i) if t.kind == "z" else u(t.a)) is s

    def test_refuses_arithmetic(self):
        s, t = u(NodeSet.of((1,), 3)), u(NodeSet.of((2,), 3))
        for make in (lambda: s * t, lambda: s + 1, lambda: 1 + s, lambda: s - 1,
                     lambda: 1 - s, lambda: 2 * s, lambda: s * 2, lambda: s / 2,
                     lambda: 2 / s, lambda: s ** 2, lambda: 2 ** s, lambda: -s):
            with pytest.raises(TypeError, match=r"u\(\{1\}\) is a generator, not a number"):
                make()

    def test_refused_as_a_coefficient(self):
        s = u(NodeSet.of((1,), 3))
        p = us(1) + us(2)
        for make in (lambda: exact(s), lambda: Poly({(s,): s}), lambda: Poly.term(s, (s,)),
                     lambda: p.scale(s), lambda: p * s, lambda: s * p):
            with pytest.raises(TypeError):
                make()


class TestArithmetic:
    def test_add_to_zero(self):
        assert us(1) + (-1 * us(1)) == Poly.zero()

    def test_single_word_product(self):
        p = us(1) * us(2)
        assert p.terms == {(u(NodeSet.of((1,), 3)), u(NodeSet.of((2,), 3))): Fraction(1)}

    def test_distributivity_example(self):
        assert (us(1) + us(2)) * us(3) == us(1) * us(3) + us(2) * us(3)

    def test_ring_axioms_randomized(self):
        rng = random.Random(42)
        for _ in range(60):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (q + r) * p == q * p + r * p
            assert Poly.one() * p == p == p * Poly.one()

    def test_exactness(self):
        rng = random.Random(5)
        for _ in range(40):
            p, q = random_poly(rng), random_poly(rng)
            assert (p + q) - q == p

    def test_scale(self):
        p = us(1) + 2 * us(2)
        assert p.scale(Fraction(1, 2)) == Fraction(1, 2) * us(1) + us(2)

    def test_integral_coefficients_are_ints(self):
        assert Poly.one().terms == {(): 1} and type(Poly.one().terms[()]) is int
        assert type(Poly({(): Fraction(6, 3)}).terms[()]) is int
        assert type(Poly.term(True, ()).terms[()]) is int
        half = us(1).scale(Fraction(1, 2))
        # two words with coefficient 1/2 that substitute sends to one word
        halves = substitute(half + us(2).scale(Fraction(1, 2)),
                            {u(NodeSet.of((v,), 3)): us(1) for v in (1, 2)})
        for p in (half + half, half * 2, 2 * half, half.scale(Fraction(4, 2)),
                  (Fraction(1, 2) * Poly.one()) * (2 * us(1)), halves):
            assert p == us(1)
            assert_canonical(p)

    @pytest.mark.parametrize("bad", [0.1, 0.25, "1/3", Decimal("0.5"), None],
                             ids=["float", "float-exact", "str", "Decimal", "None"])
    def test_non_rational_coefficients_rejected(self, bad):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            Poly({(): bad})
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            Poly.term(bad, ())
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            us(1).scale(bad)
        # Poly declines the operand; a str then names its own operation
        with pytest.raises(TypeError):
            us(1) * bad
        with pytest.raises(TypeError):
            bad * us(1)

    def test_mixed_universe_rejected(self):
        with pytest.raises(ValueError, match="mixed universes"):
            us(1, n=2) * us(1, n=3)
        with pytest.raises(ValueError, match="mixed universes"):
            us(1, n=2) + us(1, n=3)


    def test_mixed_universe_after_cancellation(self):
        # a result left with only the unit word forgets its universe, as a
        # Poly built by the checking constructor does
        only_constant = (us(1) + Poly.one()) - us(1)
        assert only_constant + us(1, n=4) == Poly.one() + us(1, n=4)
        with pytest.raises(ValueError, match="mixed universes: n=3 vs n=4"):
            (us(1) + Poly.one()) - us(1, n=4)
        with pytest.raises(ValueError, match="mixed universes: n=4 vs n=3"):
            (3 * us(1, n=4)).graded_component(1) * us(2)


def assert_canonical(p):
    """p equals the same map rebuilt through the checking constructor, and
    each coefficient is nonzero, an int exactly when it is integral and a
    Fraction otherwise."""
    rebuilt = Poly(p.terms)
    assert rebuilt.terms == p.terms
    assert rebuilt._n == p._n
    for c in p.terms.values():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


class TestTrustedResults:
    """Arithmetic builds its results without re-checking them; each must be
    what the checking constructor would have made."""

    LETTERS = all_z_symbols(3) + all_u_symbols(3)

    def small_poly(self, rng, max_degree=2):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            w = tuple(rng.choice(self.LETTERS) for _ in range(rng.randint(0, max_degree)))
            terms[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Poly(terms)

    def test_random_operation_sequences(self):
        rng = random.Random(2024)
        pool = [Poly.zero(), Poly.one(), us(1), self.small_poly(rng)]
        for _ in range(600):
            p, q = rng.choice(pool), rng.choice(pool)
            op = rng.randrange(7)
            if op == 0:
                r = p + q
            elif op == 1:
                r = p - q
            elif op == 2:
                r = -p
            elif op == 3:
                r = p * q
            elif op == 4:
                r = p.scale(rng.choice([0, 1, -2, Fraction(3, 4), Fraction(-1, 5)]))
            elif op == 5:
                r = p.graded_component(rng.randint(0, 4))
            else:
                images = {s: self.small_poly(rng, max_degree=1) for s in self.LETTERS}
                r = substitute(p, images)
            assert_canonical(r)
            # a cancellation must leave the zero polynomial behind, and a
            # doubled half an int
            assert_canonical(r - r)
            assert_canonical(r + r)
            assert r - r == Poly.zero()
            if len(r.terms) <= 12 and max(r.degrees(), default=0) <= 4:
                pool.append(r)

    def test_mixing_universes_still_raises(self):
        p3 = us(1) * us(2) + us(3)
        p4 = us(1, n=4) + 1 * us(4, n=4)
        for op in (lambda: p3 + p4, lambda: p3 - p4, lambda: p3 * p4,
                   lambda: p4 * p3, lambda: p4 - p3):
            with pytest.raises(ValueError, match="mixed universes"):
                op()

    def test_substitute_into_two_universes_raises(self):
        s1, s2 = u(NodeSet.of((1,), 3)), u(NodeSet.of((2,), 3))
        p = Poly.from_symbol(s1) + Poly.from_symbol(s2)
        with pytest.raises(ValueError, match="mixed universes"):
            substitute(p, {s1: us(1), s2: us(1, n=4)})
        # images that cancel away leave no universe to clash with
        s3 = u(NodeSet.of((3,), 3))
        q = p - Poly.from_symbol(s3)
        assert substitute(q, {s1: us(1), s2: us(1, n=4), s3: us(1, n=4)}) == us(1)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        assert commutator(us(1), us(1)) == Poly.zero()

    def test_example(self):
        assert commutator(us(1), us(2)) == us(1) * us(2) - us(2) * us(1)

    def test_antisymmetry_randomized(self):
        rng = random.Random(9)
        for _ in range(40):
            p, q = random_poly(rng), random_poly(rng)
            assert commutator(p, q) + commutator(q, p) == Poly.zero()


class TestSubstitute:
    def test_single_symbol(self):
        zs = z(NodeSet.of((), 3), 1)
        assert substitute(Poly.from_symbol(zs), {zs: us(1)}) == us(1)

    def test_word_image(self):
        s1 = z(NodeSet.of((2,), 3), 1)
        s2 = z(NodeSet.of((), 3), 2)
        p = Poly.from_symbol(s1) * Poly.from_symbol(s2)
        images = {s1: us(1) + us(1, 2), s2: us(2)}
        assert substitute(p, images) == us(1) * us(2) + us(1, 2) * us(2)

    def test_homomorphism_randomized(self):
        rng = random.Random(13)
        letters = {u(s): random_poly(rng, max_degree=1)
                   for s in NodeSet.full(3).subsets() if not s.is_empty}
        for _ in range(30):
            p, q = random_poly(rng), random_poly(rng)
            assert (substitute(p * q, letters)
                    == substitute(p, letters) * substitute(q, letters))
            assert (substitute(p + q, letters)
                    == substitute(p, letters) + substitute(q, letters))

    def test_missing_image(self):
        with pytest.raises(ValueError, match="no image"):
            substitute(us(1), {})


class TestGrading:
    def test_components(self):
        p = us(1) + us(1) * us(2)
        assert p.graded_component(1) == us(1)
        assert p.graded_component(2) == us(1) * us(2)
        assert p.graded_component(0) == Poly.zero()

    def test_components_sum_back(self):
        rng = random.Random(21)
        for _ in range(30):
            p = random_poly(rng)
            total = Poly.zero()
            for d in p.degrees():
                total = total + p.graded_component(d)
            assert total == p

    def test_degree_of_inhomogeneous_raises(self):
        with pytest.raises(ValueError, match="not homogeneous"):
            (us(1) + us(1) * us(2)).degree()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            us(1).graded_component(-1)


class TestWordCount:
    def test_cap(self):
        assert 15 ** 7 > MONOMIAL_CAP
        with pytest.raises(ValueError, match="cap"):
            _check_word_count(15, 7)

    def test_cap_counts_every_degree(self):
        # one letter has one word per degree, so a huge degree is refused, at
        # once, without a loop over its degrees
        with pytest.raises(ValueError, match="1\\^100000000 words exceed"):
            _check_word_count(1, 10 ** 8)

    def test_one_letter_charged_per_degree(self):
        last = (MONOMIAL_CAP - 1) // MIN_SLICE_CHARGE
        _check_word_count(1, last)
        with pytest.raises(ValueError, match=f"1\\^{last + 1} words exceed"):
            _check_word_count(1, last + 1)

    def test_minimum_slice_charge_moves_no_refusal_from_two_letters(self):
        # the largest degree whose plain word count fits stays accepted and
        # the next stays refused; from MIN_SLICE_CHARGE letters on every
        # degree >= 1 already has that many words, so nothing changes there
        for k in range(2, MIN_SLICE_CHARGE + 1):
            d, total = 0, 1
            while total + k ** (d + 1) <= MONOMIAL_CAP:
                d += 1
                total += k ** d
            _check_word_count(k, d)
            with pytest.raises(ValueError, match=f"{k}\\^{d + 1} words exceed"):
                _check_word_count(k, d + 1)


class TestTextForm:
    def test_edge_cases(self):
        assert poly_text(Poly.zero()) == "0"
        assert poly_text(Poly.one()) == "1"
        assert poly_text(Poly({(): -3})) == "-3"
        assert poly_text(-1 * us(1)) == "-u({1})"
        assert poly_text(Fraction(3, 2) * us(1)) == "3/2*u({1})"

    def test_term_order_is_canonical(self):
        p = us(1, 2) + us(2) - us(1) * us(2)
        assert poly_text(p) == "u({2}) + u({1,2}) - u({1})*u({2})"

    def test_round_trip_randomized(self):
        rng = random.Random(31)
        for _ in range(80):
            p = random_poly(rng)
            assert parse_poly(poly_text(p), 3) == p

    def test_stability(self):
        p = us(2) * us(1) - us(1) * us(2)
        assert poly_text(p) == poly_text(Poly(p.terms))
