import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liefusion import linalg
from liefusion.chevalley import (
    SHORT_ROOT_WORDS,
    EmbeddedSubalgebra,
    VerificationError,
    branch,
    build_simply_laced,
    construction_bracket,
    dynkin_embedding_g2_f4,
    dynkin_index,
    dynkin_raising,
    embed_so_odd,
    embed_sp,
    g2_seven_dim_pairing_witness,
    nested_bracket,
    orthogonal_complement_witness,
    spin_chain_pairing_witness,
    unitary_closure,
    zero_weight_split_witness,
)
from liefusion.highmod import full_character
from liefusion.lattice import sign_cocycle_exponent
from liefusion.rootsys import AlgebraId, Weight
from structure_reference import ref_bracket, ref_star


def test_su2_relations():
    alg = build_simply_laced(AlgebraId("A", 1))
    x = alg.x((1,))
    y = alg.star(x)
    h = alg.bracket(x, y)
    assert h == {("h", 0): Fraction(1)}
    assert alg.bracket(h, x) == {("x", (1,)): Fraction(2)}
    assert alg.inner(x, x) == 1


def test_non_simply_laced_rejected():
    with pytest.raises(ValueError, match="not simply laced"):
        build_simply_laced(AlgebraId("B", 2))


@pytest.mark.parametrize("aid", [AlgebraId("A", 3), AlgebraId("D", 4)], ids=str)
def test_structure_identities_exhaustive(aid):
    alg = build_simply_laced(aid)
    labels = alg.basis_labels()
    one = Fraction(1)
    for la in labels:
        for lb in labels:
            for lc in labels:
                a, b, c = {la: one}, {lb: one}, {lc: one}
                lhs = alg.bracket(a, alg.bracket(b, c))
                mid = alg.bracket(b, alg.bracket(a, c))
                rhs = alg.bracket(alg.bracket(a, b), c)
                total = dict(rhs)
                for l2, v in mid.items():
                    total[l2] = total.get(l2, Fraction(0)) + v
                for l2, v in lhs.items():
                    total[l2] = total.get(l2, Fraction(0)) - v
                assert not any(total.values())
                assert alg.inner(alg.bracket(a, b), c) == alg.inner(
                    b, alg.bracket(alg.star(a), c)
                )


def test_e8_construction_randomized():
    alg = build_simply_laced(AlgebraId("E", 8))
    assert alg.dim == 248
    assert len(alg.roots) == 240
    rng = random.Random(3)
    assert alg.check_jacobi(3000, rng)
    assert alg.check_invariance(3000, rng)


def test_star_is_involutive_antihomomorphism():
    alg = build_simply_laced(AlgebraId("D", 4))
    rng = random.Random(8)
    labels = alg.basis_labels()
    one = Fraction(1)
    for _ in range(300):
        la, lb = rng.choices(labels, k=2)
        a, b = {la: one}, {lb: one}
        assert alg.star(alg.star(a)) == a
        assert alg.star(alg.bracket(a, b)) == alg.bracket(alg.star(b), alg.star(a))


def test_nested_bracket_basics():
    alg = build_simply_laced(AlgebraId("E", 8))
    # a generator bracketed with itself vanishes
    assert nested_bracket(alg, (1, 1)) == {}
    # single letter: the unit raising generator
    p2 = dynkin_raising(alg, 2)
    assert alg.inner(p2, p2) == 1
    # the two-letter witness brackets
    z1 = construction_bracket(alg, (2, 4))
    z2 = construction_bracket(alg, (2, 6))
    assert z1 and not z2


def test_embedding_dims_cartans_commutation():
    pair = dynkin_embedding_g2_f4()
    assert pair.g2.dim == 14
    assert pair.f4.dim == 52
    assert pair.g2.recovered_cartan() == [[2, -1], [-3, 2]]
    amb = pair.ambient
    # the joint span is a direct sum of dimension 66
    labels = amb.basis_labels()
    joint = [[v.get(lbl, 0) for lbl in labels]
             for v in pair.g2.span_basis + pair.f4.span_basis]
    assert linalg.rank(joint) == 66
    for x in pair.g2.span_basis:
        for y in pair.f4.span_basis:
            assert not amb.bracket(x, y)
    # both raising generators carry the right root-space data
    assert amb.inner(pair.g2.generators[1], pair.g2.generators[1]) == 1
    assert amb.inner(pair.g2.generators[0], pair.g2.generators[0]) == 3


def test_embedding_signs_recorded():
    pair = dynkin_embedding_g2_f4()
    assert pair.signs in {(1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)} | {
        (-1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)
    }
    # the recorded signs rebuild the g2 raising generator from the short-root
    # words
    assert _signed_short_root_sum(pair) == pair.g2.generators[0]


def _signed_short_root_sum(pair):
    total = {}
    for s, w in zip(pair.signs, SHORT_ROOT_WORDS):
        for lbl, c in construction_bracket(pair.ambient, w).items():
            total[lbl] = total.get(lbl, 0) + s * c
    return {lbl: c for lbl, c in total.items() if c}


def test_dynkin_indices_are_one():
    pair = dynkin_embedding_g2_f4()
    assert dynkin_index(pair.g2) == 1
    assert dynkin_index(pair.f4) == 1
    for n in (2, 3):
        _, sub = embed_so_odd(n)
        assert dynkin_index(sub) == 1
        _, sub = embed_sp(n)
        assert dynkin_index(sub) == 1


def test_diagonal_embedding_index_adds():
    # the diagonal rank-1 subalgebra across n orthogonal block copies has
    # embedding index n: the restricted form is n times the normalized one
    for n, ambient in ((2, AlgebraId("A", 3)), (3, AlgebraId("A", 5))):
        alg = build_simply_laced(ambient)
        rank = ambient.rank
        gen: dict = {}
        for node in range(0, rank, 2):  # pairwise orthogonal nodes 1, 3, 5
            root = tuple(1 if k == node else 0 for k in range(rank))
            gen[("x", root)] = Fraction(1)
        sub = EmbeddedSubalgebra.generate(alg, [gen])
        assert sub.dim == 3
        assert dynkin_index(sub) == n
        # matrix identity: Gram of the closure equals n times the rank-1 Gram
        a1 = build_simply_laced(AlgebraId("A", 1))
        small = [a1.x((1,)), a1.star(a1.x((1,))), a1.h(0)]
        big = [gen, alg.star(gen), alg.bracket(gen, alg.star(gen))]
        for u, bu in zip(small, big):
            for v, bv in zip(small, big):
                assert alg.inner(bu, bv) == n * a1.inner(u, v)


def test_adjoint_branch():
    pair = dynkin_embedding_g2_f4()
    dec = branch(pair.g2, AlgebraId("G", 2))
    assert {tuple(int(x) for x in k): v for k, v in dec.items()} == {
        (0, 0): 52,
        (1, 0): 26,
        (0, 1): 1,
    }


def test_branch_of_characters_through_folding():
    for n in (2, 3):
        d_aid = AlgebraId("D", n + 1)
        _, sub = embed_so_odd(n)
        # half-spin restricts to the spin module once
        for f in ([0] * (n - 1) + [1, 0], [0] * n + [1]):
            ch = full_character(Weight.from_fundamental(d_aid, f))
            dec = branch(sub, AlgebraId("B", n), ch)
            assert {tuple(int(x) for x in k): v for k, v in dec.items()} == {
                tuple([0] * (n - 1) + [1]): 1
            }
        # vector restricts to standard plus trivial
        ch = full_character(Weight.from_fundamental(d_aid, [1] + [0] * n))
        dec = branch(sub, AlgebraId("B", n), ch)
        assert {tuple(int(x) for x in k): v for k, v in dec.items()} == {
            tuple([1] + [0] * (n - 1)): 1,
            tuple([0] * n): 1,
        }


def test_branch_refuses_a_module_of_another_algebra():
    # the folded so_5 sits in D3: an A2 weight is too short to restrict, and
    # A3, isomorphic to D3 but another labelling, peels to a negative residue
    _, sub = embed_so_odd(2)
    for aid in (AlgebraId("A", 2), AlgebraId("A", 3)):
        ch = full_character(Weight.from_fundamental(aid, [1] + [0] * (aid.rank - 1)))
        with pytest.raises(ValueError, match=rf"a {aid} module is not a module of the ambient D3"):
            branch(sub, AlgebraId("B", 2), ch)


def test_dynkin_index_refuses_a_disconnected_diagram():
    # x(alpha_1) and x(alpha_3) of D4 generate A1 + A1, which has no one index
    alg = build_simply_laced(AlgebraId("D", 4))
    sub = EmbeddedSubalgebra.generate(alg, [alg.x((1, 0, 0, 0)), alg.x((0, 0, 1, 0))])
    assert sub.recovered_cartan() == [[2, 0], [0, 2]]
    with pytest.raises(ValueError, match=r"\[\[2, 0\], \[0, 2\]\] has a disconnected Dynkin"):
        dynkin_index(sub)


def test_complement_witness():
    wit = orthogonal_complement_witness()
    assert wit["pairing"] != 0
    pair = dynkin_embedding_g2_f4()
    amb = pair.ambient
    for key in ("X", "Y", "Z"):
        v = wit[key]
        for b in pair.g2.span_basis + pair.f4.span_basis:
            assert amb.inner(v, b) == 0


def test_pairing_witnesses():
    assert g2_seven_dim_pairing_witness()["nonzero"]
    for n in (2, 3):
        z = zero_weight_split_witness(n)
        assert z["submodule_dim"] == 2 * n + 1
        assert z["components_both_nonzero"]
        assert z["nonzero_blocks_match"]
    sc = spin_chain_pairing_witness()
    assert sc["k=1"]["pairing_nonzero"]
    assert sc["k=2"]["pairing_nonzero"]


def test_closure_of_non_eigen_generators_fails_loudly():
    alg = build_simply_laced(AlgebraId("A", 2))
    bad = {("x", (1, 0)): Fraction(1), ("h", 0): Fraction(1)}
    with pytest.raises(VerificationError):
        EmbeddedSubalgebra.generate(alg, [bad])


def test_unitary_closure_of_full_generator_set():
    alg = build_simply_laced(AlgebraId("A", 2))
    gens = [alg.x((1, 0)), alg.x((0, 1))]
    basis = unitary_closure(alg, gens)
    assert len(basis) == 8


@st.composite
def _int_elements(draw):
    alg = build_simply_laced(draw(st.sampled_from(
        [AlgebraId("A", 2), AlgebraId("D", 4), AlgebraId("E", 6), AlgebraId("E", 8)])))
    labels = alg.basis_labels()

    def element():
        picked = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
        return {lbl: draw(st.integers(-3, 3).filter(bool)) for lbl in picked}

    return alg, element(), element()


@settings(max_examples=300, deadline=None)
@given(_int_elements())
def test_int_coefficients_match_fraction_coefficients(case):
    alg, u, v = case
    fu = {lbl: Fraction(c) for lbl, c in u.items()}
    fv = {lbl: Fraction(c) for lbl, c in v.items()}
    br = alg.bracket(u, v)
    assert all(type(c) is int for c in br.values())
    assert br == alg.bracket(fu, fv)
    star = alg.star(u)
    assert all(type(c) is int for c in star.values())
    assert star == alg.star(fu)
    ip = alg.inner(u, v)
    assert type(ip) is int and ip == alg.inner(fu, fv)
    assert alg.inner(br, br) == alg.inner(alg.bracket(fu, fv), alg.bracket(fu, fv))


# ---------------------------------------------------------------------------
# the per-root tables against the structure constants they replaced


def _items(d):
    """A bracket or star result in key order, with the type of each coefficient."""
    return [(lbl, c, type(c)) for lbl, c in d.items()]


@pytest.mark.parametrize("aid", [AlgebraId("D", 4), AlgebraId("E", 8)], ids=str)
def test_table_eps_matches_the_sign_engine_on_every_root_pair(aid):
    alg = build_simply_laced(aid)
    bad = [
        (a, b) for a in alg.roots for b in alg.roots
        if alg.eps(a, b) != (-1) ** (sign_cocycle_exponent(alg.cartan, a, b) % 2)
    ]
    assert not bad


@pytest.mark.parametrize(
    "aid", [AlgebraId("A", 3), AlgebraId("D", 4), AlgebraId("E", 6)], ids=str)
def test_bracket_and_star_match_the_reference_on_every_basis_pair(aid):
    alg = build_simply_laced(aid)
    labels = alg.basis_labels()
    for la in labels:
        a = {la: 1}
        assert _items(alg.star(a)) == _items(ref_star(alg, a))
        for lb in labels:
            b = {lb: 1}
            assert _items(alg.bracket(a, b)) == _items(ref_bracket(alg, a, b))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_bracket_and_star_match_the_reference_on_e8_elements(kind):
    alg = build_simply_laced(AlgebraId("E", 8))
    labels = alg.basis_labels()
    rng = random.Random(5)

    def coefficient():
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        return c if kind == "int" else Fraction(c, rng.randint(1, 4))

    def element():
        return {lbl: coefficient() for lbl in rng.sample(labels, rng.randint(1, 40))}

    nonzero = cancelled = 0
    for _ in range(300):
        u, v = element(), element()
        got = alg.bracket(u, v)
        assert _items(got) == _items(ref_bracket(alg, u, v))
        assert _items(alg.star(u)) == _items(ref_star(alg, u))
        nonzero += bool(got)
        # a cancelled sum: some label of [u, v] is reached by more terms
        # than the result keeps
        cancelled += len(got) < len({
            lbl for la in u for lb in v for lbl in alg.bracket({la: 1}, {lb: 1})})
    assert nonzero > 250 and cancelled > 10


# sha256 of every bracket of two basis elements and every star of one, on
# the basis labels in order, recorded before the per-root tables replaced
# the per-pair sign computation
TABLE_SHA256 = {
    AlgebraId("D", 4): "c143be1852d1984722c0e4f17a609aeddb4c7bc3df86af9f6c17a124d590df7c",
    AlgebraId("E", 6): "06e82bb76adaddc694de8ff89b8083b100e88525e3731275de313a0235ff46e4",
    AlgebraId("E", 8): "ec2bceef3896506ffdf077a091b3fc3a653e030e6038c2741e9a1968f8d61582",
}


@pytest.mark.parametrize("aid", list(TABLE_SHA256), ids=str)
def test_structure_tables_match_their_recorded_hash(aid):
    alg = build_simply_laced(aid)
    labels = alg.basis_labels()
    h = hashlib.sha256()
    for la in labels:
        star = sorted((lbl, str(c)) for lbl, c in alg.star({la: 1}).items())
        h.update(repr((la, star)).encode())
        for lb in labels:
            out = sorted((lbl, str(c)) for lbl, c in alg.bracket({la: 1}, {lb: 1}).items())
            h.update(repr((la, lb, out)).encode())
    assert h.hexdigest() == TABLE_SHA256[aid]
