
import json
import math
from pathlib import Path

import pytest

from ncgeode.coeffring import (EPOLY_RING, INT_RING, POLYT_RING, EPoly, _part,
                               binomial_polynomial, epoly_evaluate)
from ncgeode.combinat import enumerate_lukasiewicz, iter_tree_codes
from ncgeode.lagrange import free_cumulant_routes, solve_g
from ncgeode.ncsf import annihilate, unit_series
from ncgeode.schroeder import (SystemState, _arity, _forest, _tree_table,
                               delta_e_coefficient, elementary, enumerate_prime_schroeder,
                               enumerate_schroeder, g_e, gamma_e, iter_prime_schroeder,
                               right_branch_partition, root_children, solve_xy_system)
from ncgeode.verify import system_tables_hold
from ncgeode import combinat, fixtures as fx, schroeder
from oracles import (LiftedState, chain_monomials, g_e_by_prime_trees, is_lukasiewicz,
                     is_schroeder_code, lifted_xy_system, lukasiewicz_root_children,
                     prime_tree_weight, project_placeholder, projected, series_power,
                     tree_weight)

LITTLE_SCHROEDER = [1, 3, 11, 45, 197, 903]


def test_enumerate_schroeder_counts():
    assert [len(enumerate_schroeder(n)) for n in range(1, 7)] == LITTLE_SCHROEDER
    assert enumerate_schroeder(0) == ((0,),)
    assert enumerate_schroeder(1) == ((1, 0, 0),)
    with pytest.raises(ValueError):
        enumerate_schroeder(-1)


def test_schroeder_codes_are_valid_and_sorted():
    for n in range(0, 6):
        codes = enumerate_schroeder(n)
        assert len(set(codes)) == len(codes)
        assert list(codes) == sorted(codes, reverse=True)
        for code in codes:
            assert is_schroeder_code(code)
            assert sum(code) == n


def test_schroeder_leaf_count():
    for n in range(1, 6):
        for code in enumerate_schroeder(n):
            leaves = sum(1 for x in code if x == 0)
            assert leaves == n + 1


def test_prime_schroeder_counts_and_codes():
    assert [len(enumerate_prime_schroeder(n)) for n in range(1, 6)] == \
        [fx.PRIME_SCHROEDER_COUNTS[n] for n in range(1, 6)]
    assert set(enumerate_prime_schroeder(3)) == set(fx.PRIME_SCHROEDER_3_CODES)


def test_prime_schroeder_codes_stream_one_at_a_time():
    # the first of the r_39 (about 10^27) prime trees of size 40 comes at once
    assert next(iter_prime_schroeder(40)) == (40,) + (0,) * 41
    assert tuple(iter_prime_schroeder(6)) == enumerate_prime_schroeder(6)
    # a size below 1 is refused at the call, before any code is asked for
    with pytest.raises(ValueError, match="at least 1"):
        iter_prime_schroeder(0)


def test_prime_schroeder_matches_filter_definition():
    for n in range(1, 9):
        assert enumerate_prime_schroeder(n) == tuple(
            code for code in enumerate_schroeder(n) if root_children(code)[-1] == (0,)), n


def test_root_children():
    assert root_children((2, 1, 0, 0, 0, 0)) == [(1, 0, 0), (0,), (0,)]
    assert root_children((0,)) == []
    with pytest.raises(ValueError):
        root_children((2, 0, 0))


def test_negative_letters_are_rejected():
    # a negative letter would count as a leaf if only its arity were read
    assert not is_schroeder_code((-1,))
    assert not is_schroeder_code((1, -1, 0))
    assert not is_lukasiewicz((1, -1, 1, 0))
    for split in (root_children, right_branch_partition):
        with pytest.raises(ValueError):
            split((1, -1, 0))
    with pytest.raises(ValueError):
        lukasiewicz_root_children((1, -1, 1, 0))


FAMILIES = {
    "plane": (enumerate_lukasiewicz, is_lukasiewicz, lukasiewicz_root_children,
              lambda letter: letter),
    "schroeder": (enumerate_schroeder, is_schroeder_code, root_children,
                  lambda letter: letter + 1 if letter else 0),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tree_codes_split_and_extend_by_family(family):
    enumerate_codes, is_code, children_of, arity = FAMILIES[family]
    for n in range(7):
        for code in enumerate_codes(n):
            assert is_code(code)
            assert not any(is_code(code[:j]) for j in range(len(code))), code
            assert not any(is_code(code + (x,)) for x in range(-1, n + 2)), code
            kids = children_of(code)
            assert tuple(x for kid in kids for x in kid) == code[1:]
            assert all(is_code(kid) for kid in kids)
            assert len(kids) == arity(code[0])


def test_right_branch_partition_examples():
    assert right_branch_partition((1, 1, 0, 0, 0)) == (1, 1)
    assert right_branch_partition((1, 0, 1, 0, 0)) == (2,)
    assert right_branch_partition((2, 0, 0, 0)) == (1,)
    assert right_branch_partition((0,)) == ()


def test_right_branch_parts_sum_to_internal_nodes():
    for n in range(1, 6):
        for code in enumerate_schroeder(n):
            internal = sum(1 for x in code if x)
            assert sum(right_branch_partition(code)) == internal


def test_system_matches_displayed_solution():
    state = lifted_xy_system(3)
    for n, expected in fx.SYSTEM_Y_TABLE.items():
        assert chain_monomials(state.y[n]) == expected, n
    for n, expected in fx.SYSTEM_X_TABLE.items():
        assert chain_monomials(state.x[n]) == expected, n
    assert chain_monomials(state.g[3]) == fx.SYSTEM_G3_TABLE


def _printed_term(text: str) -> tuple[tuple[int, ...], EPoly]:
    """A term such as "e_1 S^{20000}" as (word, coefficient)."""
    *monomial, word = text.split()
    parts = tuple(int(m.removeprefix("e_")) for m in monomial)
    return tuple(map(int, word[3:-1])), EPoly({parts: 1})


@pytest.mark.parametrize("name, table, degree", [("system-y-2", "y", 2),
                                                   ("system-g-3", "g", 3)])
def test_system_check_fails_on_each_printed_typo(name, table, degree):
    assert system_tables_hold(fx.SYSTEM_Y_TABLE, fx.SYSTEM_X_TABLE, fx.SYSTEM_G3_TABLE)
    # the typo replaces a derived term of a displayed table by the printed one
    deviations = json.loads((Path(__file__).parent / "data" / "golden"
                             / "deviations.json").read_text())["deviations"]
    deviation = next(d for d in deviations if d["id"] == name)
    tables = {"y": dict(fx.SYSTEM_Y_TABLE), "x": fx.SYSTEM_X_TABLE,
              "g": {3: fx.SYSTEM_G3_TABLE}}
    comp = tables[table][degree] = dict(tables[table][degree])
    derived_word, derived = _printed_term(deviation["derived"])
    printed_word, printed = _printed_term(deviation["printed"])
    assert comp.pop(derived_word) == derived
    comp[printed_word] = printed
    assert not system_tables_hold(tables["y"], tables["x"], tables["g"][3])


def test_cached_system_state_is_read_only():
    state = solve_xy_system(3, EPOLY_RING, elementary)
    with pytest.raises(TypeError):
        state.x.component(1)[(1,)] = EPoly()
    with pytest.raises(AttributeError):
        state.x = ()
    assert g_e(3, "system") == g_e(3, "trees")


def test_system_g_is_read_off_x():
    # G = (1 + X) S0: each X word, which lacks its final leaf, gets the
    # placeholder appended; only X and Y are stored
    assert LiftedState._fields == SystemState._fields == ("order", "x", "y")
    state = lifted_xy_system(6)
    assert state.x[1] == {(1, 0): ()}
    assert len(state.g) == len(state.x) == 7
    assert state.g[0] == {(0,): ()}
    for n in range(1, 7):
        assert state.g[n] == {w + (0,): c for w, c in state.x[n].items()}, n
    with pytest.raises(TypeError):
        state.g[6][(6, 0, 0, 0, 0, 0, 0, 0)] = ()
    with pytest.raises(AttributeError):
        state.g = ()


def test_projection_of_x_equals_projection_of_g():
    for order in range(1, 7):
        state = lifted_xy_system(order)
        assert project_placeholder(state.x) == project_placeholder(state.g), order


def test_system_is_the_projection_of_the_lifted_system():
    # setting the placeholder to 1 is an algebra morphism, so it carries the
    # lifted solution over tree codes onto the solution over compositions
    # x is solved through the order and y one degree short, all that x reads
    lifted = lifted_xy_system(7)
    state = solve_xy_system(8, EPOLY_RING, elementary)
    assert (state.order, state.x.order, state.y.order) == (8, 8, 7)
    assert solve_xy_system(0, EPOLY_RING, elementary).y.order == 0
    assert state.y.component(0) == {(): EPoly.one()} and state.x.component(0) == {}
    for n in range(8):
        assert state.x.component(n) == projected(lifted.x[n]), n
        assert state.y.component(n) == projected(lifted.y[n]), n


def _binomial(k: int):
    return lambda m: math.prod(range(k, k - m, -1)) // math.factorial(m)


@pytest.mark.parametrize("ring, c, orders", [
    (EPOLY_RING, elementary, range(8)),
    *((INT_RING, _binomial(k), range(9)) for k in (-2, -1, 0, 1, 2, 3)),
    (POLYT_RING, lambda m: binomial_polynomial(1, m), [6]),
])
def test_system_y_is_the_sum_of_the_powers_of_x(ring, c, orders):
    # y = 1 + sum_m c_m x^m, read off the returned x by chained products,
    # through one degree below the order
    for order in orders:
        state = solve_xy_system(order, ring, c)
        x = state.x.truncate(max(order - 1, 0))
        y = unit_series(ring, x.order)
        for m in range(1, order):
            y = y + series_power(x, m).scale(c(m))
        assert state.y == y, order


def test_system_y_equals_tree_enumeration():
    state = lifted_xy_system(5)
    for n in range(6):
        expected = {code: tree_weight(code) for code in enumerate_schroeder(n)}
        assert chain_monomials(state.y[n]) == expected, n


def test_system_g_equals_prime_tree_enumeration():
    state = lifted_xy_system(5)
    for n in range(1, 6):
        expected = {code: prime_tree_weight(code)
                    for code in enumerate_prime_schroeder(n)}
        assert chain_monomials(state.g[n]) == expected, n


def test_g_e_tables():
    ge = g_e(4)
    for n, expected in fx.G_E_TABLE.items():
        assert ge.component(n) == expected


def test_g_e_routes_agree():
    assert g_e(6, "delta") == g_e(6, "system") == g_e(6, "trees")


def test_g_e_routes_agree_through_degree_8():
    assert g_e(8, "delta") == g_e(8, "system") == g_e(8, "trees")


def test_g_e_system_route_agrees_at_degree_9():
    system = g_e(9, "system")
    assert system == g_e(9, "delta")
    # the system route builds g^[e] without the tree-code walk, so its words
    # ending in 1 check the geode read off the walk
    expected = annihilate(system, 1)
    assert expected.order == 8
    for n in range(9):
        assert gamma_e(n) == expected.truncate(n), n


def test_g_e_system_route_agrees_at_degree_10():
    assert g_e(10, "system") == g_e(10, "delta")


def test_g_e_trees_route_equals_the_per_tree_sum():
    # the route counts classes of trees; the oracle adds up one tree at a time
    assert g_e(8, "trees") == g_e_by_prime_trees(8)
    assert g_e(10, "trees") == g_e(10, "system")


def test_tree_classes_count_every_tree():
    little = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]
    memo = {}
    for n, count in enumerate(little):
        assert sum(sum(keys.values()) for keys in _tree_table(n, memo).values()) == count, n
    # a prime tree of size n is root r over a forest of r trees, then the
    # leaf; they are counted by the large Schroeder number r_(n-1)
    large = fx.A006318_LARGE_SCHROEDER + [8558, 41586]
    for n, count in enumerate(large, 1):
        assert sum(sum(keys.values()) for r in range(1, n + 1)
                   for keys in _forest(r, n - r, memo).values()) == count, n


def test_tree_classes_keep_every_internal_node_on_one_chain():
    # each internal node lies on one chain: the closed ones, decoded, and the
    # open root chain add up to the letters; the table holds one entry per
    # word and open chain, (n + 1) 2^(n - 2) of them, and their classes of
    # one closed key are merged, so they coarsen far below 3^(n - 1)
    memo = {}
    for n in range(10):
        for (letters, chain), keys in _tree_table(n, memo).items():
            for closed in keys:
                assert sum(_part(closed)) + chain == len(letters), (n, letters)
    assert [len(_tree_table(n, memo)) for n in range(1, 10)] == [
        1, 3, 8, 20, 48, 112, 256, 576, 1280]
    assert [sum(map(len, _tree_table(n, memo).values())) for n in range(1, 10)] == [
        1, 3, 9, 26, 73, 200, 537, 1418, 3692]


def test_forest_classes_count_every_forest():
    # the forest table against the odometer's codes of forests of r trees
    memo = {}
    for r in range(1, 5):
        for s in range(8):
            count = sum(1 for _ in iter_tree_codes(s, _arity, r))
            assert sum(sum(keys.values()) for keys in _forest(r, s, memo).values()) == count, \
                (r, s)
    # a forest of size s holds every word of the 2^(s - 1) compositions of
    # s, and its classes merge to a count that does not depend on r
    assert [[len(_forest(r, s, memo)) for s in range(6)] for r in range(1, 5)] == [
        [1, 1, 2, 4, 8, 16]] * 4
    assert [[sum(map(len, _forest(r, s, memo).values())) for s in range(6)]
            for r in range(1, 5)] == [[1, 1, 3, 8, 21, 54]] * 4


def _refuse(what):
    def refused(*args):
        raise AssertionError(f"{what} was built")
    return refused


def test_trees_route_builds_no_codes(monkeypatch):
    expected = g_e(9, "system")
    monkeypatch.setattr(schroeder, "iter_tree_codes", _refuse("a tree code"))
    monkeypatch.setattr(combinat, "iter_tree_codes", _refuse("a tree code"))
    assert g_e(9, "trees") == expected


def test_enumerations_build_no_tree_classes(monkeypatch):
    # the codes come off the odometer, not off the classes of the trees route
    for name in ("_tree_table", "_forest", "_grown_trees"):
        monkeypatch.setattr(schroeder, name, _refuse("a tree class"))
    for n, little, large in zip(range(1, 7), LITTLE_SCHROEDER, fx.A006318_LARGE_SCHROEDER):
        assert len(enumerate_schroeder(n)) == little
        assert len(enumerate_prime_schroeder(n)) == large


def test_trees_route_builds_no_table_above_order_minus_two(monkeypatch):
    # prime trees read the forests, whose one-tree classes close grown trees:
    # the largest open-chain table is that of a last subtree, of size n - 2
    table, sizes = schroeder._tree_table, []
    monkeypatch.setattr(schroeder, "_tree_table",
                        lambda n, memo: sizes.append(n) or table(n, memo))
    for order in range(2, 10):
        sizes.clear()
        g_e(order, "trees")
        assert max(sizes) == order - 2, order


def test_trees_route_keeps_nothing_between_calls(monkeypatch):
    # every table and one-tree forest grows its trees once per call: a memo
    # kept from the first call would leave the second fewer to grow
    grown, built = schroeder._grown_trees, []
    monkeypatch.setattr(schroeder, "_grown_trees",
                        lambda n, memo: built.append(n) or grown(n, memo))
    first = g_e(8, "trees")
    calls, built[:] = list(built), []
    assert g_e(8, "trees") == first
    assert built == calls and max(calls) == 7


def test_trees_route_grows_each_size_once(monkeypatch):
    # the tables of sizes through n - 2 are read by the one-tree forests
    # too, and only size n - 1 is grown without being kept
    grown, built = schroeder._grown_trees, []
    monkeypatch.setattr(schroeder, "_grown_trees",
                        lambda n, memo: built.append(n) or grown(n, memo))
    assert g_e(12, "trees") == g_e(12, "delta")
    assert sorted(built) == list(range(12))


def test_projection_refuses_collided_words():
    # two codes meeting on one word would concatenate their chain tuples
    graded = [dict(comp) for comp in lifted_xy_system(3).g]
    code = (1, 1, 0, 0, 0)
    assert graded[2][code] == (1,)
    graded[2][code] += graded[2][code]
    with pytest.raises(ValueError, match="collided"):
        project_placeholder(graded)


def test_cached_epoly_coefficients_are_read_only():
    coeff = g_e(3).components[3][(1, 1, 1)]
    with pytest.raises(TypeError):
        coeff.terms[(1,)] = 5
    with pytest.raises(AttributeError):
        coeff.terms = {}
    assert delta_e_coefficient((1, 1, 1)) == EPoly({(2,): 1, (1, 1): 1})


def test_delta_e_examples():
    assert delta_e_coefficient((2, 1)) == EPoly({(1,): 2})
    assert delta_e_coefficient((1, 1, 1)) == EPoly({(2,): 1, (1, 1): 1})
    assert delta_e_coefficient((4,)) == EPoly.one()


def test_gamma_e_tables():
    gme = gamma_e(4)
    for n, expected in fx.GAMMA_E_TABLE.items():
        assert gme.component(n) == expected


def test_gamma_e_corolla_independence():
    # the system route builds g^[e] without the prefix walk of gamma_e
    system = g_e(8, "system")
    for k in (1, 2, 3):
        assert annihilate(system, k) == gamma_e(8 - k), k


def test_e_sign_specialization_gives_free_cumulants():
    ge = g_e(6)
    spec = ge.map_coefficients(lambda c: epoly_evaluate(c, "sign"),
                               free_cumulant_routes(6)["direct-recursion"].ring)
    assert spec == free_cumulant_routes(6)["direct-recursion"]


def test_sign_of_tree_coefficient_counts_internal_nodes():
    for n in range(1, 5):
        for code in enumerate_prime_schroeder(n):
            internal = sum(1 for x in code if x)
            assert epoly_evaluate(prime_tree_weight(code), "sign") == \
                (-1) ** (internal - 1)


def test_e1_specialization_collapses_to_plane_trees():
    # e_1 -> 1 and e_n -> 0 for n >= 2 keeps only binary right branches,
    # reducing the e-series to the plain Lagrange series
    ge = g_e(6)
    from ncgeode.coeffring import INT_RING
    spec = ge.map_coefficients(lambda c: epoly_evaluate(c, "e1"), INT_RING)
    assert spec == solve_g(6)


def test_coefficient_sums_are_schroeder_numbers():
    ge = g_e(5)
    for n in range(1, 6):
        total = sum(ge.component(n).values(), start=EPoly())
        assert epoly_evaluate(total, "one") == fx.PRIME_SCHROEDER_COUNTS[n]


def test_project_placeholder():
    state = lifted_xy_system(2)
    series = project_placeholder(state.g)
    assert series.component(2) == {(2,): EPoly.one(), (1, 1): EPoly({(1,): 1})}
