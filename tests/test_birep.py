import pytest

from minorrel.birep import (
    BiRep,
    character_A,
    character_from_weight_dims,
    dim_at,
    gr_components_bivariate,
    predicted_character,
    transpose_duality,
)
from minorrel.partitions import conjugate, dim_schur, partitions_of
from minorrel.symfunc import kostka
from oracles import pieri


def test_transpose_duality_involution():
    P = BiRep({((2, 1), (3,)): 2, ((1, 1), (2, 2)): 1})
    assert transpose_duality(transpose_duality(P)).terms == P.terms


def test_birep_drops_zero_and_refuses_negative_multiplicities():
    P = BiRep({((2, 1, 0), (3,)): 2, ((1, 1), (2,)): 0})
    assert P.terms == {((2, 1), (3,)): 2} and P == BiRep(terms={((2, 1), (3,)): 2})
    with pytest.raises(ValueError):
        BiRep({((1,), (1,)): -1})
    with pytest.raises(AttributeError):
        P.terms = {}
    empty = BiRep()
    assert empty.terms == {} and empty.terms is not BiRep().terms


def test_dim_at_transpose_symmetry():
    # swapping the two tensor factors mirrors the evaluation sizes
    P = predicted_character("thm-1.1", 3)
    swapped = BiRep({(mu, lam): mult for (lam, mu), mult in P.terms.items()})
    for m, n in [(3, 3), (3, 4), (4, 5), (2, 6)]:
        assert dim_at(P, m, n) == dim_at(swapped, n, m)
    # transpose duality relabels every diagram by its conjugate
    Q = transpose_duality(P)
    assert Q.terms == {
        (conjugate(lam), conjugate(mu)): mult for (lam, mu), mult in P.terms.items()
    }


def test_character_A_degree_two_minors():
    assert character_A(2, "minors").terms == {
        ((1, 1, 1, 1), (1, 1, 1, 1)): 1,
        ((2, 1, 1), (2, 1, 1)): 1,
        ((2, 2), (2, 2)): 1,
    }


def test_character_A_degree_two_permanents():
    assert character_A(2, "permanents").terms == {
        ((4,), (4,)): 1,
        ((3, 1), (3, 1)): 1,
        ((2, 2), (2, 2)): 1,
    }


def test_character_A_dimension_reconciles_with_sym_power():
    # dim Sym^2(W) at (3,3) = C(9+1, 2) = 45 splits as A_2 + relations
    assert dim_at(character_A(2, "minors"), 3, 3) == 45
    # permanents: dim Sym^2 of the 36-dimensional space is 666
    assert dim_at(character_A(2, "permanents"), 3, 3) == 666 - 180


def test_character_A_refuses_a_negative_degree():
    for variant in ("minors", "permanents"):
        with pytest.raises(ValueError, match="need d >= 0"):
            character_A(-1, variant)
    assert character_A(0).terms == {((), ()): 1}


def test_registry_degree_two_and_three():
    assert predicted_character("thm-1.1", 2).terms == {
        ((1, 1, 1, 1), (2, 2)): 1,
        ((2, 2), (1, 1, 1, 1)): 1,
    }
    assert predicted_character("thm-1.1", 3).terms == {
        ((3, 1, 1, 1), (2, 2, 2)): 1,
        ((2, 2, 2), (3, 1, 1, 1)): 1,
    }
    assert predicted_character("thm-1.2", 2).terms == {
        ((4,), (2, 2)): 1,
        ((2, 2), (4,)): 1,
    }
    assert predicted_character("thm-1.2", 3).terms == {
        ((4, 1, 1), (3, 3)): 1,
        ((3, 3), (4, 1, 1)): 1,
    }


def test_registry_transposes_are_consistent():
    for j in (2, 3):
        assert (
            transpose_duality(predicted_character("thm-1.1", j)).terms
            == predicted_character("thm-1.2", j).terms
        )
        assert (
            transpose_duality(predicted_character("thm-3.1", j)).terms
            == predicted_character("thm-3.2", j).terms
        )


def test_sec_6_tbar_is_the_stored_table():
    # the characters stated for Section 6's functor T-bar, which the registry
    # reads from thm-1.2
    table = {
        2: {((4,), (2, 2)): 1, ((2, 2), (4,)): 1},
        3: {((4, 1, 1), (3, 3)): 1, ((3, 3), (4, 1, 1)): 1},
        4: {},
        5: {},
    }
    for j, terms in table.items():
        assert predicted_character("sec-6-Tbar", j).terms == terms, j
        assert predicted_character("thm-1.2", j).terms == terms, j


def test_koszul_character_stable_range():
    for d in (5, 6, 7):
        a = (d - 2, 1, 1)
        b = (d - 1, 1)
        assert predicted_character("thm-3.1", d).terms == {
            (a, a): 1,
            (a, b): 1,
            (b, a): 1,
        }


def test_koszul_character_low_degrees():
    assert predicted_character("thm-3.1", 2).terms == {}
    assert predicted_character("thm-3.1", 3).terms == {
        ((2, 1), (1, 1, 1)): 1,
        ((1, 1, 1), (2, 1)): 1,
    }
    assert len(predicted_character("thm-3.1", 4).terms) == 5


def test_unknown_statement_raises():
    with pytest.raises(KeyError):
        predicted_character("thm-9.9", 2)


def test_gr_components_bivariate_eight_labels():
    # the label list, largest first, as `decompose gr` prints it
    assert gr_components_bivariate((1, 1, 1), (2, 1), 8) == [
        ((3, 1, 1), (2, 2, 1)),
        ((2, 1, 1, 1), (2, 2, 1)),
        ((2, 1, 1), (2, 2)),
        ((2, 1, 1), (2, 1, 1)),
        ((1, 1, 1, 1), (3, 1)),
        ((1, 1, 1, 1), (2, 2)),
        ((1, 1, 1, 1), (2, 1, 1)),
        ((1, 1, 1), (2, 1)),
    ]


def test_gr_components_bivariate_swapped_is_mirror():
    labels = gr_components_bivariate((2, 1), (1, 1, 1), 8)
    mirror = [(b, a) for (a, b) in gr_components_bivariate((1, 1, 1), (2, 1), 8)]
    assert labels == sorted(mirror, reverse=True)


def _gr_labels_by_pieri(lam, mu, cap):
    """gr_components_bivariate's label list, with the strips from the Pieri oracle."""
    labels = set()
    for k in range(cap - sum(lam) + 1):
        for alpha in pieri(lam, k):
            for beta in pieri(mu, k):
                if alpha[:1] == lam[:1] or beta[:1] == mu[:1]:
                    labels.add((alpha, beta))
    return sorted(labels, reverse=True)


def test_gr_components_bivariate_matches_pieri_oracle():
    for size in range(6):
        for lam in partitions_of(size):
            for mu in partitions_of(size):
                for cap in range(size, size + 5):
                    expected = _gr_labels_by_pieri(lam, mu, cap)
                    assert gr_components_bivariate(lam, mu, cap) == expected, (lam, mu, cap)


def test_gr_components_bivariate_size_mismatch():
    with pytest.raises(ValueError):
        gr_components_bivariate((2,), (1,), 4)


def _weight_dims_of(P, m, n):
    """Torus-weight dimensions of a bivariate character via Kostka numbers."""
    out = {}

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for (lam, mu), mult in P.terms.items():
        d = sum(lam)
        for w1 in compositions(d, m):
            k1 = kostka(lam, tuple(sorted(w1, reverse=True)))
            if not k1:
                continue
            for w2 in compositions(d, n):
                k2 = kostka(mu, tuple(sorted(w2, reverse=True)))
                if not k2:
                    continue
                out[(w1, w2)] = out.get((w1, w2), 0) + mult * k1 * k2
    return out


def test_character_from_weight_dims_inverts():
    P = BiRep({((2, 2), (2, 1, 1)): 2, ((3, 1), (2, 2)): 1, ((2, 1, 1), (4,)): 1})
    dims = _weight_dims_of(P, 3, 3)
    assert character_from_weight_dims(dims, 3, 3).terms == P.terms
