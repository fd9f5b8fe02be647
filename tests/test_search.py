"""The forward-checking search engine: raw-search guard, node budget, leaf
cross-check, and the carrier sizes it makes reachable."""

import ast
import gc
import inspect
import random
from itertools import product
from pathlib import Path

import pytest

import osr
import osr.homs
import osr.ideals
import osr.morphisms
import osr.recheck
import osr.search
from osr.cli import main
from osr.errors import InternalMismatch, SizeLimit
from osr.report import run_checks
from osr.search import SearchSource, SearchTarget, forward_search

from .oracle import sub_submul_maps_bruteforce, subadditive_maps_bruteforce

ORACLE_FAMILY_SIZE = 6  # raw search is |B|^|A|; 6^6 per source at the top


def oracle_targets():
    return [
        osr.two(),
        osr.build_chain_lattice(3),
        osr.build_from_quantale(osr.diamond_frame()),
        osr.build_from_quantale(osr.downset_frame(3, [(0, 1)], name="grid2x3")),
    ]


def test_both_enumerators_match_raw_search_over_the_family():
    targets = oracle_targets()
    for A in osr.builtin_family(ORACLE_FAMILY_SIZE):
        for B in targets:
            got = [t.values for t in osr.enumerate_subadditive(A, B)]
            assert got == subadditive_maps_bruteforce(A, B), (A.name, B.name)
            got = [t.values for t in osr.enumerate_sub_submul(A, B)]
            assert got == sub_submul_maps_bruteforce(A, B), (A.name, B.name)


def test_node_budget_refusal_names_layer_budget_and_nodes(monkeypatch):
    monkeypatch.setattr(osr.search, "NODE_BUDGET", 5)
    A, B = osr.build_chain_lattice(6), osr.build_chain_lattice(3)
    with pytest.raises(SizeLimit) as exc:
        osr.enumerate_subadditive(A, B)
    assert str(exc.value) == (
        "morphism search chain6 -> chain3: node budget of 5 exhausted "
        "(6 nodes visited)"
    )
    with pytest.raises(SizeLimit) as exc:
        osr.enumerate_quantale_homs(osr.chain_frame(6), osr.diamond_frame())
    assert str(exc.value) == (
        "hom search chain6 -> diamond: node budget of 5 exhausted "
        "(6 nodes visited)"
    )


def _random_order(rng, size, allowed):
    """Bitmask rows of a random reflexive, transitively closed relation made
    of pairs ``(i, j)`` that ``allowed`` accepts (a transitive predicate)."""
    rows = [
        1 << i
        | sum(1 << j for j in range(size) if allowed(i, j) and rng.random() < 0.3)
        for i in range(size)
    ]
    for k in range(size):
        for i in range(size):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def _random_problem(rng, commutative):
    """A random problem on n <= 5 variables and m <= 4 values, its tables
    ``S`` and ``T`` commutative when ``commutative``, else each ``T`` only
    by a coin toss and ``S`` by chance.  Most are built around a random map
    ``g`` that satisfies them, so that a fault shows as a lost or an extra
    solution instead of hiding among problems that have none."""
    n, m = rng.randint(1, 5), rng.randint(1, 4)
    leq = _random_order(rng, m, lambda i, j: True)
    g = [rng.randrange(m) for _ in range(n)]
    planted = rng.random() < 0.8

    def fits(z, t, equal):  # whether g keeps "f(z) R t"
        return not planted or (g[z] == t if equal else leq[g[z]] >> t & 1)

    order = _random_order(rng, n, lambda i, j: fits(i, g[j], False))
    pins = []
    for _ in range(rng.randint(0, 2)):
        v, equal = rng.randrange(n), rng.random() < 0.5
        pins.append((v, rng.choice([c for c in range(m) if fits(v, c, equal)]), equal))
    laws = []
    for _ in range(rng.randint(0, 2)):
        T = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
        if commutative or rng.random() < 0.5:
            T = [[T[min(a, b)][max(a, b)] for b in range(m)] for a in range(m)]
        T = tuple(map(tuple, T))
        equal = rng.random() < 0.5
        S = [
            [
                rng.choice(
                    [z for z in range(n) if fits(z, T[g[x]][g[y]], equal)]
                    or range(n)
                )
                for y in range(n)
            ]
            for x in range(n)
        ]
        if commutative:
            S = [[S[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
        laws.append((tuple(map(tuple, S)), T, equal))
    return n, m, leq, pins, order, laws


def _brute_force(n, m, leq, pins, order, laws, mirrored=True):
    """Every value array, in lexicographic order, satisfying the pins, the
    order pairs and the table laws, each checked as written: for all
    ``x, y``, or only for ``x <= y`` when not ``mirrored``."""

    def le(a, b):
        return leq[a] >> b & 1

    return [
        f
        for f in product(range(m), repeat=n)
        if all(f[v] == c if equal else le(f[v], c) for v, c, equal in pins)
        and all(
            le(f[i], f[j]) for i in range(n) for j in range(n) if order[i] >> j & 1
        )
        and all(
            f[S[x][y]] == T[f[x]][f[y]] if equal else le(f[S[x][y]], T[f[x]][f[y]])
            for S, T, equal in laws
            for x in range(n)
            for y in range(0 if mirrored else x, n)
        )
    ]


def _rank_pattern(s, x, y):
    """How s, x and y are ordered: (0, 0, 1) for s = x < y, and so on."""
    distinct = sorted({s, x, y})
    return tuple(distinct.index(v) for v in (s, x, y))


def _search(n, m, leq, pins, order, laws):
    got = []
    source, target = SearchSource(order), SearchTarget(leq)
    forward_search(source, target, pins, laws, got.append, layer="random")
    return got


def test_engine_matches_brute_force_on_commutative_problems():
    # every way s = S[x][y] can be ordered against x <= y: five with x < y
    # and three with x = y
    all_patterns = {
        _rank_pattern(s, x, y) for s in range(3) for x in range(3) for y in range(x, 3)
    }
    assert len(all_patterns) == 8
    reached = set()
    with_solutions = 0
    rng = random.Random(15)
    for _ in range(500):
        problem = _random_problem(rng, commutative=True)
        n, m, leq, pins, order, laws = problem
        for S, T, _ in laws:
            assert all(S[x][y] == S[y][x] for x in range(n) for y in range(n))
            assert all(T[a][b] == T[b][a] for a in range(m) for b in range(m))
            reached.update(
                _rank_pattern(S[x][y], x, y) for x in range(n) for y in range(x, n)
            )
        expected = _brute_force(*problem)
        assert _search(*problem) == expected, problem
        with_solutions += bool(expected)
    assert reached == all_patterns
    assert 50 < with_solutions < 450


def test_engine_loses_no_solution_on_non_commutative_problems():
    # only the instances x <= y are constraints, so a table that is not
    # commutative can add solutions, never remove one
    with_solutions = with_extra = 0
    rng = random.Random(15)
    for _ in range(500):
        problem = _random_problem(rng, commutative=False)
        got = _search(*problem)
        expected = _brute_force(*problem)
        assert got == _brute_force(*problem, mirrored=False), problem
        assert set(got) >= set(expected), problem
        with_solutions += bool(expected)
        with_extra += len(got) > len(expected)
    assert 50 < with_solutions < 450
    assert with_extra > 0


def test_a_table_that_is_not_commutative_fails_the_leaf_check():
    # chain3 with one product changed, built without validate: 2 * 1 is 0
    # but 1 * 2 is 1, so the instance at (2, 1) is a dropped constraint
    A = osr.build_chain_lattice(3)
    mul = (A.mul[0], A.mul[1], (0, 0, 2))
    assert A.mul[2][1] == A.mul[1][2] == 1
    A = A._replace(name="noncomm", mul=mul)
    B = osr.two()
    problem = (
        A.n,
        B.n,
        B.leq,
        ((A.zero, B.zero, False), (A.one, B.one, True)),
        A.leq,
        ((A.add, B.add, False), (A.mul, B.mul, True)),
    )
    full, upper = _brute_force(*problem), _brute_force(*problem, mirrored=False)
    assert set(upper) - set(full) == {(0, 1, 1)}
    with pytest.raises(InternalMismatch, match=r"map \[0, 1, 1\] from noncomm"):
        osr.enumerate_subadditive(A, B)


def test_a_search_deeper_than_the_recursion_limit():
    # 1,500 unordered variables into a one-element target: one solution,
    # reached through 1,500 levels of the walk
    out = []
    source = SearchSource([1 << i for i in range(1500)])
    forward_search(source, SearchTarget([1]), (), (), out.append, layer="deep")
    assert out == [(0,) * 1500]


def test_run_checks_leaves_no_cyclic_garbage():
    # every search, leaf and cache entry is freed by reference counting
    instances = [osr.from_builder_spec(s) for s in ("zmod:6", "chain:9", "bool:3")]
    for A in instances:
        run_checks(A)
    gc.collect()
    gc.disable()
    try:
        for A in instances:
            run_checks(A)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _consistent_prefixes(A, B):
    """Value arrays for A's first k elements, k >= 1, breaking none of the
    subadditive-morphism constraints whose elements are all among them."""
    count = 0
    for k in range(1, A.n + 1):
        for f in product(range(B.n), repeat=k):
            pins = (A.zero >= k or B.le(f[A.zero], B.zero)) and (
                A.one >= k or f[A.one] == B.one
            )
            monotone = all(
                B.le(f[i], f[j]) for i in range(k) for j in range(k) if A.le(i, j)
            )
            laws = all(
                (A.add[x][y] >= k or B.le(f[A.add[x][y]], B.add[f[x]][f[y]]))
                and (A.mul[x][y] >= k or f[A.mul[x][y]] == B.mul[f[x]][f[y]])
                for x in range(k)
                for y in range(k)
            )
            count += pins and monotone and laws
    return count


@pytest.mark.parametrize("source", ["chain:6", "zmod:6"])
def test_a_node_is_a_value_that_passes_every_constraint(monkeypatch, source):
    # into chain3, zmod:6 has 14 consistent prefixes; counting every value
    # tried, as the per-value tests did, takes 25 nodes
    A, B = osr.from_builder_spec(source), osr.build_chain_lattice(3)
    nodes = _consistent_prefixes(A, B)
    monkeypatch.setattr(osr.search, "NODE_BUDGET", nodes)
    got = [t.values for t in osr.enumerate_subadditive(A, B)]
    assert got == subadditive_maps_bruteforce(A, B)
    monkeypatch.setattr(osr.search, "NODE_BUDGET", nodes - 1)
    with pytest.raises(SizeLimit) as exc:
        osr.enumerate_subadditive(A, B)
    assert str(exc.value) == (
        f"morphism search {A.name} -> chain3: node budget of {nodes - 1} "
        f"exhausted ({nodes} nodes visited)"
    )


def test_support_tables_are_built_once_per_target_structure(monkeypatch):
    built = []
    real = SearchTarget._build

    def counting(self, T, equal, shape):
        built.append(self)
        return real(self, T, equal, shape)

    monkeypatch.setattr(SearchTarget, "_build", counting)
    A, B = osr.build_chain_lattice(6), osr.build_chain_lattice(3)
    first = osr.enumerate_subadditive(A, B)
    assert built and set(built) == {B.search_target}
    count = len(built)
    assert osr.enumerate_subadditive(A, B) == first
    assert len(built) == count  # the same target builds no new table
    fresh = osr.build_chain_lattice(3)
    assert fresh == B and fresh is not B
    assert osr.enumerate_subadditive(A, fresh) == first
    # an equal but fresh target builds its own: nothing is kept per process
    assert len(built) == 2 * count
    assert set(built[count:]) == {fresh.search_target}


def test_a_quantale_target_is_searched_through_its_semiring(monkeypatch):
    built = []
    real = SearchTarget._build

    def counting(self, T, equal, shape):
        built.append((self, T, equal, shape))
        return real(self, T, equal, shape)

    A, Q = osr.build_chain_lattice(6), osr.chain_frame(3)
    L = osr.enumerate_ideals(A).lattice
    monkeypatch.setattr(SearchTarget, "_build", counting)
    osr.enumerate_subadditive(A, Q.semiring)
    osr.enumerate_quantale_homs(L, Q)
    # one set of support tables: the product's "=" tables, which both
    # searches post, are built once
    assert {target for target, *_ in built} == {Q.semiring.search_target}
    laws = [(T, equal, shape) for _, T, equal, shape in built]
    assert len(laws) == len(set(laws))
    assert any(T == Q.mul and equal for T, equal, _ in laws)


def test_a_second_search_from_the_same_source_builds_no_new_source(monkeypatch):
    made, grouped = [], []
    real_init, real_missing = SearchSource.__init__, SearchSource.__missing__

    def init(self, order):
        made.append(self)
        real_init(self, order)

    def missing(self, S):
        grouped.append((self, S))
        return real_missing(self, S)

    monkeypatch.setattr(SearchSource, "__init__", init)
    monkeypatch.setattr(SearchSource, "__missing__", missing)
    A = osr.build_chain_lattice(6)
    for B in (osr.two(), osr.build_chain_lattice(3), osr.two()):
        osr.enumerate_subadditive(A, B)
        osr.enumerate_sub_submul(A, B)
    assert made == [A.search_source]
    assert grouped == [(A.search_source, A.add), (A.search_source, A.mul)]
    L = osr.enumerate_ideals(A).lattice
    for Q in (osr.chain_frame(2), osr.chain_frame(3)):
        osr.enumerate_quantale_homs(L, Q)
    # a quantale is searched out of as its semiring, whose tables are L's
    S = L.semiring
    assert made == [A.search_source, S.search_source]
    assert grouped[2:] == [(S.search_source, L.join), (S.search_source, L.mul)]
    assert not hasattr(L, "search_source")


def _chain_of(n):
    """An n-element chain as a semiring (max, min) and as a quantale,
    built from its tables without validation."""
    leq = tuple(-1 << i & (1 << n) - 1 for i in range(n))
    join = tuple(tuple(map(max, [i] * n, range(n))) for i in range(n))
    meet = tuple(tuple(map(min, [i] * n, range(n))) for i in range(n))
    labels = tuple(map(str, range(n)))
    A = osr.FiniteOrderedSemiring(f"chain{n}", labels, leq, 0, n - 1, join, meet)
    L = osr.FiniteLattice(f"chain{n}", labels, leq, join, meet, 0, n - 1, meet, n - 1)
    return A, L


def test_byte_lanes_refuse_a_structure_above_256_elements(monkeypatch):
    A, L256 = _chain_of(256)
    shuffled = (0, 2, 1, *range(3, 256))  # not monotone, nor additive
    ident, other = osr.classify(A, A, [range(256), shuffled])  # at the limit
    assert ident.is_homomorphism and not other.monotone and not other.additive
    assert osr.homs.is_quantale_hom(L256, L256, [range(256), shuffled]) == [True, False]
    osr.classify(osr.two(), osr.two(), [(0, 1)])  # two's own tables, built here
    built = []  # from here on, nothing that reads a lane or a table is reached
    for name in ("BatchSides", "IntCodes", "_order", "pair_codes"):
        monkeypatch.setattr(osr.recheck, name, lambda *args: built.append(args))
    big, L = _chain_of(257)
    for check in (
        lambda: osr.classify(big, big, [range(257)]),
        lambda: osr.classify(osr.two(), big, [(0, 256)]),
        lambda: osr.homs.is_quantale_hom(L, L, [range(257)]),
    ):
        with pytest.raises(SizeLimit) as exc:
            check()
        assert str(exc.value) == (
            "leaf check: chain257 has 257 elements; byte lanes hold 256"
        )
    assert built == []
    for S in (big, L):
        assert not [key for key in vars(S) if key.startswith("_recheck")]


def test_morphism_leaf_failing_classification_raises(monkeypatch):
    real = osr.morphisms.classify

    def broken(A, B, maps):
        return [t._replace(multiplicative=False) for t in real(A, B, maps)]

    monkeypatch.setattr(osr.morphisms, "classify", broken)
    with pytest.raises(InternalMismatch, match=r"map \[0, 1, 0, 1, 0, 1\]"):
        osr.enumerate_subadditive(osr.build_zmod(6), osr.two())


def test_hom_leaf_failing_exhaustive_check_raises(monkeypatch):
    monkeypatch.setattr(osr.homs, "is_quantale_hom", lambda L, Q, maps: [False] * len(maps))
    with pytest.raises(InternalMismatch, match=r"\[0, 0, 1\] from chain3 to chain2"):
        osr.enumerate_quantale_homs(osr.chain_frame(3), osr.chain_frame(2))


def test_the_first_map_failing_the_recheck_is_named(monkeypatch):
    # the re-check runs once over every map found; the mismatch names the
    # first failing map in lexicographic order, in the per-map message
    A, B = osr.build_chain_lattice(6), osr.build_chain_lattice(3)
    found = [t.values for t in osr.enumerate_subadditive(A, B)]
    rng = random.Random(3)
    failing = set(rng.sample(found[1:], 5))
    real = osr.morphisms.classify

    def broken(A, B, maps):
        return [
            t._replace(monotone=False) if t.values in failing else t
            for t in real(A, B, maps)
        ]

    monkeypatch.setattr(osr.morphisms, "classify", broken)
    with pytest.raises(InternalMismatch) as exc:
        osr.enumerate_subadditive(A, B)
    assert str(exc.value) == (
        f"map {list(min(failing))} from chain6 to chain3 passed forward "
        f"checking but fails the exhaustive classification"
    )
    L, Q = osr.chain_frame(6), osr.diamond_frame()
    homs = osr.enumerate_quantale_homs(L, Q)
    failing = set(rng.sample(homs[1:], 2))
    real_hom = osr.homs.is_quantale_hom
    monkeypatch.setattr(
        osr.homs,
        "is_quantale_hom",
        lambda L, Q, maps: [v not in failing and ok for v, ok in zip(maps, real_hom(L, Q, maps))],
    )
    with pytest.raises(InternalMismatch) as exc:
        osr.enumerate_quantale_homs(L, Q)
    assert str(exc.value) == (
        f"map {list(min(failing))} from chain6 to diamond passed forward "
        f"checking but is not a quantale homomorphism"
    )


def test_a_failing_map_found_before_the_budget_runs_out_is_reported(monkeypatch):
    # the maps found before the node budget runs out are re-checked before
    # SizeLimit is raised, so a failing one raises InternalMismatch, as it
    # would have at its own leaf; with none failing, SizeLimit stands
    A, B = osr.build_chain_lattice(6), osr.build_chain_lattice(3)
    L, Q = osr.chain_frame(6), osr.diamond_frame()
    monkeypatch.setattr(osr.search, "NODE_BUDGET", 12)
    found = []
    monkeypatch.setattr(
        osr.morphisms, "forward_search",
        lambda *args, **kw: osr.search.forward_search(*args[:4], found.append, **kw),
    )
    with pytest.raises(SizeLimit):
        osr.enumerate_subadditive(A, B)
    leaves = found[:]
    with pytest.raises(SizeLimit):
        osr.enumerate_quantale_homs(L, Q)
    assert leaves and found[len(leaves) :]  # both walks reached leaves
    monkeypatch.undo()
    monkeypatch.setattr(osr.search, "NODE_BUDGET", 12)
    real = osr.morphisms.classify
    seen = []

    def broken(A, B, maps):
        seen.append(list(maps))
        return [t._replace(multiplicative=False) for t in real(A, B, maps)]

    monkeypatch.setattr(osr.morphisms, "classify", broken)
    with pytest.raises(InternalMismatch, match=r"from chain6 to chain3 passed forward"):
        osr.enumerate_subadditive(A, B)
    assert seen == [leaves]
    monkeypatch.setattr(osr.homs, "is_quantale_hom", lambda L, Q, maps: [False] * len(maps))
    with pytest.raises(InternalMismatch, match=r"from chain6 to diamond passed forward"):
        osr.enumerate_quantale_homs(L, Q)


@pytest.mark.parametrize("spec", ["chain:12", "zmod:12"])
def test_run_checks_passes_above_nine_elements(spec):
    # chain:12 was refused by the old raw-space guard (6^11 assignments)
    assert run_checks(osr.from_builder_spec(spec)).all_passed


def test_primes_at_the_carrier_cap(capsys):
    assert main(["primes", "--builder", "zmod:24", "--json"]) == 0
    assert '"count": 2' in capsys.readouterr().out


def test_engine_and_oracles_do_not_use_the_leaf_gathers():
    # classify and is_quantale_hom read whole tables as byte strings of pair
    # codes through osr.recheck, join_extension through core.gather, and the
    # closure and ideal products through slice_images; the engine whose
    # leaves they re-check, the raw oracles and the raw ideal routes that
    # check the closure must not, or one fault there could hide in both
    leaf_names = {"gather", "image", "gathers", "member_gathers", "order_pairs"}
    leaf_names |= {"translate", "slice_images", "recheck"}
    leaf_names |= {
        name
        for name, value in vars(osr.recheck).items()
        if getattr(value, "__module__", None) == "osr.recheck"
        and not name.startswith("_")
    }
    assert {"law_columns", "pair_codes", "BatchSides", "each_true"} <= leaf_names
    raw_routes = (osr.ideals.is_ideal, osr.ideals.generated_ideal_by_sums)
    raw_routes += (osr.ideals.product_set,)
    sources = [Path(osr.search.__file__).read_text()]
    sources.append(Path(__file__).with_name("oracle.py").read_text())
    sources += [inspect.getsource(f) for f in raw_routes]
    for source in sources:
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        assert not names & leaf_names, source.splitlines()[0]


def _imports(path) -> set[str]:
    """The last name of every module a source file imports, and of every
    package module it imports by name (``from . import x``)."""
    out = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.split(".")[-1])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[-1] for alias in node.names)
    return out


def test_the_recheck_module_reads_the_data_model_only():
    # the re-check is the one module that builds or reads byte lanes; the
    # engine whose leaves it re-checks and the oracles do not import it,
    # and it imports none of the modules whose results it checks
    assert "recheck" not in _imports(osr.search.__file__)
    assert "recheck" not in _imports(Path(__file__).with_name("oracle.py"))
    checked = {"search", "ideals", "morphisms", "homs", "analysis"}
    assert not checked & _imports(osr.recheck.__file__)
    # it reads semirings by their fields alone, a quantale as its semiring
    assert "errors" in _imports(osr.recheck.__file__)
    assert "core" not in _imports(osr.recheck.__file__)
    moved = {"BatchSides", "IntCodes", "pair_codes", "value_batches", "_flat"}
    moved |= {"each_equal", "each_true", "each_within", "_BYTES"}
    assert not moved & set(vars(osr.core))
    for cls in (osr.FiniteOrderedSemiring, osr.FiniteLattice):
        assert not {"flat", "codes"} & set(dir(cls))
