"""Corner-removal chains: construction, per-step verification,
certificates and replay, and the localization maps."""

import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laddergb import (
    BudgetExceeded,
    Chain,
    LadderError,
    MaxMinors,
    OneSidedLadder,
    PfaffianLadder,
    PreconditionError,
    PrimeField,
    QQ,
    chain_certificate,
    conventional_order,
    field_by_name,
    ladder_from_json,
    localization_maps,
    natural_generators,
    replay_chain,
    verify_family,
    verify_localization,
)
from laddergb.linkage import (
    _hilbert_identity,
    _is_double_link,
    localized_ideal_generators,
    substitute,
    verify_node_groebner,
    verify_node_initial,
    verify_step,
)
from laddergb.monomials import MonomialIdeal, check_double_link, hilbert_numerator
from laddergb.monomials import series_add, series_mul
from laddergb.poly import (
    buchberger_reduced,
    freeze,
    leading_term,
    normal_form,
    p_mul,
    p_sub,
    p_term_mul,
    p_var,
)

from laddergb import linkage, matrices, mono, monomials, poly
from laddergb.families import RegionTable
from laddergb.complexes import SimplicialComplex, is_vertex_decomposable

from brute import hilbert_function_brute, localization_complete_first
from tupleref import decode, encode
from corpus import CORPUS, NEGATIVE_INSTANCES, ONESIDED


def by_name(checks):
    out = {}
    for c in checks:
        out.setdefault(c["name"], []).append(c)
    return out


# ---------------------------------------------------------------------------
# one matrix shape per chain


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["qq", "gf32003"])
def test_shared_shape_gives_the_same_generators(field):
    for data in CORPUS + NEGATIVE_INSTANCES:
        chain = Chain(ladder_from_json(data), field)
        for canon in chain.sequence:
            ladder = chain.nodes[canon].ladder
            fresh = natural_generators(ladder, field, chain.order)
            assert natural_generators(ladder, field, chain.order, chain.shape) == fresh
            assert chain.generators(canon) == fresh


def test_chain_expands_each_index_set_once(monkeypatch):
    # Expanding a minor on k columns reads k entries (one for k = 1), a
    # pfaffian on k indices reads k - 1; so the entry reads of a chain add
    # up to one expansion per memo key exactly when no key is expanded twice.
    reads = [0]
    entry_poly = matrices.entry_poly

    def counting(*args):
        reads[0] += 1
        return entry_poly(*args)

    monkeypatch.setattr(matrices, "entry_poly", counting)
    field = PrimeField(32003)
    for data in CORPUS + NEGATIVE_INSTANCES:
        chain = Chain(ladder_from_json(data), field)
        reads[0] = 0
        for canon in chain.sequence:
            chain.generators(canon)
        shape = chain.shape
        # the memos hold one table per term order; the chain reads one
        once = sum(len(cols) for _, cols, _ in shape._minors.get(chain.order, {}))
        pf = getattr(shape, "_pf", {}).get(chain.order, {})
        once += sum(max(len(idx) - 1, 0) for idx, _ in pf)
        assert reads[0] > 0 and reads[0] == once


def test_chain_enumerates_each_region_once(monkeypatch):
    # pfaffian n=8 unfolds into 263 nodes holding 1009 regions, but only
    # 36 distinct (corner, t); building a chain walks it, and the region
    # table enumerates a region's generators once for the build, its
    # certificate and every check of verify_family together.  The splits
    # read the same table, so outside RegionTable.region the build
    # enumerates each region once to see whether it holds a generator
    # and once per absorption key.  After the build nothing enumerates a
    # region at all.
    top = PfaffianLadder(8, [(1, 8)], [2])
    inside, built, by_table, by_split, late = [False], [False], [0], [0], [0]
    region, region_keys = RegionTable.region, PfaffianLadder.region_keys

    def in_table(self, *args):
        inside[0] = True
        try:
            return region(self, *args)
        finally:
            inside[0] = False

    def counting(self, corner, t):
        by_table[0] += inside[0]
        by_split[0] += not (inside[0] or built[0])
        late[0] += built[0]
        return region_keys(self, corner, t)

    monkeypatch.setattr(RegionTable, "region", in_table)
    monkeypatch.setattr(PfaffianLadder, "region_keys", counting)
    chain = Chain(top)
    built[0] = True
    region_ids, absorption_keys = len(chain.regions._facts), len(chain.regions._absorbed)
    assert absorption_keys > 0
    assert 0 < by_split[0] <= region_ids + absorption_keys
    chain_certificate(chain)
    verify_node_groebner(chain, chain.top_canon)
    for canon in chain.sequence:
        verify_node_initial(chain, canon)
    for canon in chain.steps():
        verify_step(chain, canon)
    ladders = [chain.nodes[canon].ladder for canon in chain.sequence]
    assert sum(len(l.sizes()) for l in ladders) == 1009
    assert len({r for l in ladders for r in l.sizes()}) == 36
    assert by_table[0] == 36
    assert late[0] == 0


# ---------------------------------------------------------------------------
# chain construction


# chains that drop regions absorbed by a size-one region
ABSORBING = [
    {"family": "onesided", "m": 5, "n": 5, "points": [[3, 1], [5, 3]], "t": [1, 2]},
    {"family": "pfaffian", "n": 7, "corners": [[1, 5], [2, 7]], "t": [1, 2]},
    {"family": "symmetric", "n": 5, "points": [[2, 5], [5, 5]], "t": [1, 2]},
]


def _alone(top):
    """(sequence, {canon: (cell, cells, middle, reduced)}) of the chain
    of top, each ladder split with a region table of its own."""
    sequence, rows = [], {}

    def build(ladder):
        canon = ladder.canon()
        if canon in rows:
            return
        split = ladder.split()
        rows[canon] = (split and split.cell, ladder.cells(), None, None)
        sequence.append(canon)
        if split is not None:
            build(split.middle)
            build(split.reduced)
            rows[canon] = rows[canon][:2] + (split.middle.canon(), split.reduced.canon())

    build(top)
    return sequence, rows


def test_chain_splits_with_its_table_as_each_ladder_alone():
    dropped = 0
    for data in CORPUS + NEGATIVE_INSTANCES + ABSORBING:
        top = ladder_from_json(data)
        chain = Chain(top)
        sequence, rows = _alone(top)
        assert chain.sequence == sequence, data
        for canon in sequence:
            node = chain.nodes[canon]
            row = (node.cell, node.ladder.cells(), node.middle, node.reduced)
            assert row == rows[canon], (data, canon)
        if data in ABSORBING:
            # some region with a generator had no term free of the
            # size-one cells, so normalization dropped it
            dropped += any(not keys for keys in chain.regions._absorbed.values())
    assert dropped == len(ABSORBING)


def test_chain_structure_maxminors():
    chain = Chain(MaxMinors(2, 3))
    assert chain.sequence == [
        "maxminors:m=2,n=3",
        "maxminors:m=2,n=2",
        "maxminors:m=2,n=1",
        "maxminors:m=1,n=1",
        "maxminors:m=1,n=2",
    ]
    assert chain.steps() == ["maxminors:m=2,n=3", "maxminors:m=2,n=2"]
    top = chain.nodes["maxminors:m=2,n=3"]
    assert top.cell == (2, 3)
    assert top.middle == "maxminors:m=2,n=2"
    assert top.reduced == "maxminors:m=1,n=2"


def test_chain_shares_repeated_nodes():
    chain = Chain(PfaffianLadder(5, [(1, 5)], [2]))
    assert len(chain.sequence) == len(set(chain.sequence))
    # every non-terminal child is itself a node
    for canon in chain.steps():
        node = chain.nodes[canon]
        assert node.middle in chain.nodes and node.reduced in chain.nodes


def test_chain_terminates_everywhere():
    for data in (
        {"family": "symmetric", "n": 4, "points": [[4, 4]], "t": [2]},
        {"family": "onesided", "m": 4, "n": 4, "points": [[3, 2]], "t": [2]},
    ):
        chain = Chain(ladder_from_json(data))
        for canon in chain.sequence:
            node = chain.nodes[canon]
            if node.cell is None:
                assert node.ladder.is_terminal()


def test_oracle_basis_is_cached():
    chain = Chain(MaxMinors(2, 3))
    canon = chain.top.canon()
    assert chain.oracle_basis(canon) is chain.oracle_basis(canon)


def _count_calls(monkeypatch, name, modules):
    # the real poly function, counted wherever it is looked up
    calls = []
    real = getattr(poly, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counting)
    return calls


def test_verify_family_computes_each_basis_once(monkeypatch):
    # one completion per touched node, every node's, the top's included,
    # through the one completion entry
    calls = _count_calls(monkeypatch, "complete", (poly, linkage))
    top = PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2])
    report, chain, _ = verify_family(top)
    assert report["pass"]
    touched = {top.canon()}
    for canon in chain.steps():
        node = chain.nodes[canon]
        touched |= {canon, node.middle, node.reduced}
    assert len(calls) == len(touched)


def test_generator_store_makes_each_generator_monic_once(monkeypatch):
    # every completion of a chain reads its monic generators and their
    # reducer entries from the chain's store, which makes each nonzero
    # generator monic once; on these instances every S-pair reduces to
    # zero, so no completion appends a remainder to make monic either
    calls = _count_calls(monkeypatch, "_monic_entry", (poly, linkage))
    for top in (
        PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]),
        MaxMinors(3, 5),
        OneSidedLadder(4, 4, [(2, 1), (4, 3)], [2, 2]),
    ):
        calls.clear()
        report, chain, _ = verify_family(top)
        assert report["pass"]
        made = [g for g, _, _ in calls]
        assert len(made) == len(chain._store) > 0
        assert len({freeze(g) for g in made}) == len(made)
        assert all(entry is not None for entry in chain._store)


def test_verify_family_interreduces_once_per_chain(monkeypatch):
    # only the top instance's reduced basis is read; every other node's
    # oracle initial ideal comes from its completion alone
    calls = _count_calls(monkeypatch, "_interreduce", (poly,))
    steps = 0
    for data in CORPUS + NEGATIVE_INSTANCES:
        calls.clear()
        _, chain, _ = verify_family(ladder_from_json(data))
        assert len(calls) == 1, data
        steps += len(chain.steps())
    assert steps > len(CORPUS + NEGATIVE_INSTANCES)


def _count_chain_ideals(monkeypatch):
    """Record (gens, ambient) of every ideal a chain builds from its
    region sets (MonomialIdeal._minimal)."""
    built = []
    real = MonomialIdeal._minimal.__func__

    def counting(cls, gens, ambient, squarefree=None):
        built.append((gens, ambient))
        return real(cls, gens, ambient, squarefree)

    monkeypatch.setattr(MonomialIdeal, "_minimal", classmethod(counting))
    return built


def test_verify_family_builds_each_node_ideal_once(monkeypatch):
    # every ideal lives in the chain's one ring, so a node's initial ideal
    # is built once and shared by its steps; the oracle reuses it when its
    # completion's leading monomials are the node's, as they are here
    built = _count_chain_ideals(monkeypatch)
    report, chain, _ = verify_family(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]))
    assert report["pass"]
    assert len(built) == len(chain.sequence)
    assert all(ambient is chain.ambient for _, ambient in built)


X1, X2, X3 = encode((1, 1)), encode((2, 1)), encode((3, 1))
X13, X91, X92, X93 = (
    encode(t) for t in ((3, 1, 1, 1), (9, 1, 1, 1), (9, 1, 2, 1), (9, 1, 3, 1))
)


@pytest.mark.parametrize(
    "c, a, b, want",
    [
        # A inside B by divisibility: x1 divides x1*x3
        ((X13, X91, X92), (X13,), (X1, X2), True),
        ((X13, X91), (X13,), (X1, X2), False),  # f*x2 is missing
        ((X3, X91), (X3,), (X1,), False),  # A is not inside B
        ((X93, X91), (X93,), (X1, X3), False),  # f in a generator of A
        ((X13, X91, encode((9, 2, 2, 1))), (X13,), (X1, X92), False),  # f in one of B
        ((X3, encode((9, 1))), (X3,), (encode(()),), True),  # B is the unit ideal
    ],
)
def test_double_link_guard_needs_every_condition(c, a, b, want):
    assert _is_double_link(c, a, b, 9) is want


def double_link_reference(c, a, b, fvar):
    """Brute force: check_double_link accepts A, B and f, f is in no
    generator of B, each generator of A has a divisor among B's, and
    gens(C) are those of A + f*B."""
    ambient = range(6)
    a_ideal, b_ideal = MonomialIdeal(a, ambient), MonomialIdeal(b, ambient)
    f = mono.var(fvar)
    try:
        check_double_link(a_ideal, b_ideal, f)
    except PreconditionError:
        return False
    return (
        b_ideal.is_colon_stable(f)
        and all(b_ideal.contains_monomial(g) for g in a_ideal.gens)
        and set(c) == set(a_ideal.plus([mono.mul(f, g) for g in b_ideal.gens]).gens)
    )


SQUAREFREE = st.sets(st.integers(min_value=0, max_value=4), max_size=3).map(
    mono.from_vars
)


@settings(max_examples=200)
@given(
    st.lists(SQUAREFREE, max_size=4),
    st.lists(SQUAREFREE, max_size=4),
    st.booleans(),
    st.integers(min_value=3, max_value=5),
    st.lists(SQUAREFREE, max_size=2),
    st.integers(min_value=0, max_value=5),
)
def test_double_link_guard_matches_the_reference(a, extra, nested, fvar, c_extra, drop):
    # B holds A when nested; C is A + f*B, with a few generators more or
    # one fewer; f is x3, x4 or x5, and only x5 occurs in no generator
    a_gens = MonomialIdeal(a, range(6)).gens
    b_gens = MonomialIdeal(extra + (a if nested else []), range(6)).gens
    f = mono.var(fvar)
    linked = [mono.mul(f, g) for g in b_gens] + list(a_gens) + c_extra
    c_gens = MonomialIdeal(linked, range(6)).gens
    c_gens = c_gens[:drop] + c_gens[drop + 1 :] if drop < 3 else c_gens
    want = double_link_reference(c_gens, a_gens, b_gens, fvar)
    assert _is_double_link(c_gens, a_gens, b_gens, fvar) is want


@pytest.mark.parametrize(
    "top, built",
    [
        # 132 terminals read off as simplices; all 131 steps derive theirs
        (PfaffianLadder(8, [(1, 8)], [2]), 0),
        # 43 terminals; one of the 48 steps falls back to Berge's algorithm
        (OneSidedLadder(5, 5, [(3, 1), (5, 3)], [2, 3]), 1),
    ],
)
def test_shedding_walk_runs_berge_only_at_fallback_steps(monkeypatch, top, built):
    calls = []
    real = SimplicialComplex.from_squarefree.__func__

    def counting(cls, ideal, *args, **kwargs):
        calls.append(ideal)
        return real(cls, ideal, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "from_squarefree", classmethod(counting))
    chain = Chain(top)
    for canon in chain.steps():
        chain.shedding(canon)
    assert len(calls) == built


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(32003)], ids=["qq", "gf2", "gf32003"]
)
def test_oracle_basis_equals_a_fresh_completion(field):
    # the completions of a chain share one S-pair record; each node's basis
    # must still be the one a completion of its generators alone gives, and
    # its oracle initial ideal, read off its completion, the ideal of that
    # basis's leading monomials
    recorded = 0
    for data in CORPUS + NEGATIVE_INSTANCES:
        _, chain, _ = verify_family(ladder_from_json(data), field)
        for canon in chain.sequence:
            fresh = buchberger_reduced(chain.generators(canon), chain.order, field)
            lead = MonomialIdeal(
                {leading_term(g, chain.order)[0] for g in fresh}, chain.ambient
            )
            assert chain.oracle_initial(canon) == lead, canon
            got = chain.oracle_basis(canon)
            assert {freeze(g) for g in got} == {freeze(g) for g in fresh}, canon
        recorded += len(chain.spair_record)
    assert recorded


def test_chain_ids_intern_index_sets(corpus_reports):
    # equal ids must mean equal index sets, and so equal generators, or the
    # record would settle a pair of other generators; the record the
    # oracle fills holds the ids alone
    recorded = 0
    for canon, (_, chain, _) in corpus_reports.items():
        named = {}
        for node in chain.sequence:
            for key, i in zip(chain.names(node), chain.ids(node)):
                assert named.setdefault(i, key) == key, canon
        assert len(set(named.values())) == len(named), canon
        assert sorted(named) == list(range(len(named))), canon
        for pair, used in chain.spair_record.items():
            a, b = pair
            assert type(a) is int and type(b) is int and a <= b, canon
            assert all(type(n) is int for n in used) and {a, b} <= used, canon
        recorded += len(chain.spair_record)
    assert recorded


def _count_spairs(monkeypatch):
    calls = [0]
    real = poly.s_polynomial

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(poly, "s_polynomial", counting)
    return calls


@pytest.mark.parametrize("m, n, performed", [(4, 7, 149), (3, 7, 145)])
def test_verify_family_spair_count(monkeypatch, m, n, performed):
    # a pair settled in one node is not reduced again in another, and the
    # reduced-basis predicate repeats none of the top completion's pairs
    # (289 and 343 reductions when every node is completed on its own)
    calls = _count_spairs(monkeypatch)
    report, _, _ = verify_family(MaxMinors(m, n))
    assert report["pass"]
    assert calls[0] == performed


def test_top_completion_spair_count_is_unchanged(monkeypatch):
    # the record is empty when the top instance is completed, so its own
    # reductions, and so its budget outcome, are those of a lone completion
    calls = _count_spairs(monkeypatch)
    chain = Chain(MaxMinors(4, 7))
    root = chain.top_canon
    chain.oracle_basis(root)
    assert calls[0] == 84
    calls[0] = 0
    buchberger_reduced(chain.generators(root), chain.order, chain.field)
    assert calls[0] == 84
    calls[0] = 0
    assert all(c["pass"] for c in verify_node_groebner(chain, root))
    assert calls[0] == 0
    with pytest.raises(BudgetExceeded):
        Chain(MaxMinors(4, 7)).oracle_basis(root, max_spairs=83)


# ---------------------------------------------------------------------------
# node and step checks


def test_node_checks_pass_on_a_sample():
    chain = Chain(PfaffianLadder(5, [(1, 5)], [2]))
    canon = chain.top.canon()
    for c in verify_node_groebner(chain, canon):
        assert c["pass"], c
    for c in verify_node_initial(chain, canon):
        assert c["pass"], c


def test_step_checks_pass_and_cover_all_claims(subtests=None):
    chain = Chain(OneSidedLadder(3, 3, [(3, 1)], [2]))
    checks = verify_step(chain, chain.top.canon())
    names = [c["name"] for c in checks]
    assert names == [
        "initial-split-identity",
        "corner-avoids-middle",
        "height-step",
        "basic-double-link",
        "hilbert-identity-combinatorial",
        "oracle-initial-match",
        "hilbert-identity-oracle",
        "shedding-at-corner",
    ]
    for c in checks:
        assert c["pass"], c


NUMERATORS = st.lists(st.integers(min_value=-30, max_value=30), max_size=6).map(tuple)


@given(NUMERATORS, NUMERATORS)
@example((), ())
@example((1, -2, 1), ())
@settings(max_examples=200, deadline=None)
def test_linked_numerator_is_the_series_combination(k_a, k_b):
    # K_A + z (K_B - K_A) is z K_B + (1 - z) K_A as the series products
    # form it, trailing zeros trimmed; () is the zero numerator
    want = series_add(series_mul((0, 1), k_b), series_mul((1, -1), k_a))
    assert linkage._linked_numerator(k_a, k_b) == want


def test_hilbert_identity_holds_in_every_degree_not_up_to_a_cutoff():
    # In k[x,y], C = A = (x) and B = (x, y^10): H(R/C, d) = H(R/B, d-1)
    # + H(R/A, d) - H(R/A, d-1) holds in degrees 0..10 and fails from
    # degree 11 on, so a per-degree check with a small cutoff passes.
    x, y10 = encode((0, 1)), encode((1, 10))
    ring = (0, 1)
    a = c = MonomialIdeal([x], ring)
    b = MonomialIdeal([x, y10], ring)

    def holds(d):
        h = hilbert_function_brute
        return h(c, d) == h(b, d - 1) + h(a, d) - h(a, d - 1)

    assert all(holds(d) for d in range(11))
    assert not holds(11) and not holds(12)
    k_a, k_b, k_c = (hilbert_numerator(i.gens) for i in (a, b, c))
    assert _hilbert_identity(k_c, k_a, k_b) == (False, "fails at degree 11")
    assert _hilbert_identity(k_c, k_a, k_a) == (True, "every degree")


# sha256 of the sort_keys JSON of every corpus report over QQ, in corpus
# order: a change of representation must leave the reports byte-identical.
CORPUS_REPORTS_SHA = "51a78a4bdc8ed957116c97a8a2526b9f91e20e5e0e764f936ca8b7f04a19b172"


def test_corpus_reports_are_pinned(corpus_reports):
    h = hashlib.sha256()
    for report, _, _ in corpus_reports.values():
        h.update(json.dumps(report, sort_keys=True).encode("utf-8"))
    assert h.hexdigest() == CORPUS_REPORTS_SHA


def test_step_on_terminal_node_raises():
    chain = Chain(MaxMinors(2, 3))
    with pytest.raises(PreconditionError):
        verify_step(chain, "maxminors:m=1,n=2")
    with pytest.raises(PreconditionError, match="terminal instance has no removal step"):
        chain.shedding("maxminors:m=1,n=2")
    # the walk keeps no complex but the top's
    with pytest.raises(PreconditionError):
        chain.node_complex("maxminors:m=1,n=2")


def test_is_double_link_on_a_terminal_raises():
    # a terminal takes no step, so it has no double-link verdict: asking
    # for one raises as shedding and verify_step do, never reads a blank
    for data in CORPUS:
        chain = Chain(ladder_from_json(data))
        terminals = [c for c in chain.sequence if chain.nodes[c].cell is None]
        assert terminals
        for canon in terminals:
            for ask in (chain.is_double_link, chain.shedding):
                with pytest.raises(
                    PreconditionError, match="terminal instance has no removal step"
                ):
                    ask(canon)
        for canon in chain.steps():
            assert chain.is_double_link(canon) in (True, False)


def test_verify_family_full_pass():
    report, chain, cert = verify_family(MaxMinors(2, 4))
    assert report["pass"]
    assert report["schema"] == "laddergb-report/1"
    assert cert is not None
    names = {c["name"] for c in report["checks"]}
    assert "vertex-decomposable" in names and "certificate-replay" in names
    # reduced-basis claims are asserted for the top instance only
    gb_checks = by_name(report["checks"])["groebner-fixed-point"]
    assert [c["instance"] for c in gb_checks] == [chain.top.canon()]


@pytest.mark.parametrize(
    "data", NEGATIVE_INSTANCES, ids=lambda d: d["family"]
)
def test_negative_instances_fail_only_reducedness(data):
    """A nested size-one region puts single variables into the ideal;
    the larger minors then have reducible tails, so the natural
    generators are a Groebner basis but not the reduced one.  Every
    chain-level claim still holds."""
    top = ladder_from_json(data)
    report, chain, _ = verify_family(top)
    assert not report["pass"]
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failing == {"groebner-fixed-point", "reduced-basis-predicate"}
    # the oracle still recognizes their span as the full initial ideal
    for c in by_name(report["checks"])["oracle-initial-match"]:
        assert c["pass"]


# ---------------------------------------------------------------------------
# certificates and replay


def build_cert(top):
    report, chain, cert = verify_family(top)
    assert report["pass"]
    return chain_certificate(chain, cert)


def build_tree_cert(top):
    """A certificate carrying the decomposability search's tree, as one
    is written for a chain that is not itself a certificate."""
    chain = Chain(top)
    ok, tree = is_vertex_decomposable(chain.node_complex(chain.top_canon))
    assert ok
    return chain_certificate(chain, tree)


def test_certificate_round_trips_and_replays():
    cert = build_cert(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]))
    blob = json.dumps(cert, sort_keys=True)
    again = json.loads(blob)
    assert again == json.loads(json.dumps(again, sort_keys=True))
    report = replay_chain(again)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


def test_replay_detects_edited_initial_ideal():
    cert = build_cert(MaxMinors(2, 3))
    cert["nodes"][0]["initial"][0] = "x[1,1]"
    report = replay_chain(cert)
    assert not report["pass"]
    assert any(
        c["name"] == "node-initial" and not c["pass"] for c in report["checks"]
    )


def test_replay_detects_edited_height():
    cert = build_cert(MaxMinors(2, 3))
    cert["nodes"][1]["height"] += 1
    report = replay_chain(cert)
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failing == {"node-height"}


def test_replay_detects_edited_instance():
    cert = build_cert(MaxMinors(2, 3))
    assert cert["nodes"][1]["instance"] != cert["nodes"][0]["instance"]
    cert["nodes"][1]["instance"] = cert["nodes"][0]["instance"]
    report = replay_chain(cert)
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failing == {"node-structure"}


def test_replay_detects_missing_node():
    cert = build_cert(MaxMinors(2, 3))
    cert["nodes"] = cert["nodes"][:-1]
    report = replay_chain(cert)
    assert any(
        c["name"] == "node-set" and not c["pass"] for c in report["checks"]
    )


def test_replay_checks_a_repeated_node_id():
    # a second record under an id already recorded must not hide the
    # first one: the node set counts every record, not every id
    cert = build_cert(MaxMinors(2, 3))
    copy = json.loads(json.dumps(cert["nodes"][0]))
    copy["initial"], copy["height"] = ["x[1,1]"], copy["height"] + 1
    cert["nodes"].insert(1, copy)
    report = replay_chain(cert)
    node_set = [c for c in report["checks"] if c["name"] == "node-set"]
    detail = "%d recorded, %d recomputed" % (len(cert["nodes"]), len(cert["nodes"]) - 1)
    assert node_set == [{"name": "node-set", "pass": False, "detail": detail}]
    assert not report["pass"]


@pytest.mark.parametrize(
    "cell",
    [[True, 1], [1.0, 2], [1, 2, 3], "12", None],
    ids=["bool", "float", "triple", "string", "null"],
)
def test_replay_fails_a_certificate_cell_that_is_not_an_int_pair(cell):
    cert = build_tree_cert(OneSidedLadder(3, 3, [(3, 1)], [2]))
    cert["vd"]["vertex"] = cell
    report = replay_chain(cert)
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing == [{"name": "vd-replay", "pass": False, "detail": "malformed node"}]


def test_replay_detects_edited_shedding_vertex():
    cert = build_tree_cert(OneSidedLadder(3, 3, [(3, 1)], [2]))
    assert replay_chain(cert)["pass"]
    cert["vd"]["vertex"] = [1, 1]
    report = replay_chain(cert)
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failing == {"vd-replay"}


def test_a_certifying_chain_records_chain_and_replays_it():
    # every step of the one-sided 3x3 chain is a double link that sheds
    # at its corner, so the chain is the certificate and no search runs
    top = OneSidedLadder(3, 3, [(3, 1)], [2])
    report, chain, cert = verify_family(top)
    assert cert == "chain" and chain.certifies_vd() == (True, "ok")
    top_checks = by_name([c for c in report["checks"] if c["instance"] == top.canon()])
    assert [c["detail"] for c in top_checks["certificate-replay"]] == ["ok"]
    cert = chain_certificate(chain, cert)
    assert cert["schema"] == "laddergb-chain/2" and cert["vd"] == "chain"
    vd = [c for c in replay_chain(cert)["checks"] if c["name"] == "vd-replay"]
    assert vd == [{"name": "vd-replay", "pass": True, "detail": "ok"}]


ONESIDED_4x4_T3 = OneSidedLadder(4, 4, [(4, 1)], [3])


def test_replay_of_chain_fails_where_the_chain_is_not_a_certificate():
    # a step of this chain fails shedding at its corner, so the chain
    # certifies nothing; its top is still decomposable, by the search
    report, chain, cert = verify_family(ONESIDED_4x4_T3)
    step = "onesided:m=4,n=4;points=(2,2),(3,2),(4,3);t=2,3,3"
    why = "step %s: shedding conditions fail: cone point" % step
    assert chain.certifies_vd() == (False, why)
    assert isinstance(cert, dict)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == {
        "height-step",
        "shedding-at-corner",
    }
    assert replay_chain(chain_certificate(chain, cert))["checks"][-1] == {
        "name": "vd-replay",
        "pass": True,
        "detail": "ok",
    }
    forged = chain_certificate(chain, "chain")
    vd = [c for c in replay_chain(forged)["checks"] if c["name"] == "vd-replay"]
    assert vd == [{"name": "vd-replay", "pass": False, "detail": why}]


def test_replay_fails_an_unknown_vd_string():
    cert = build_cert(OneSidedLadder(3, 3, [(3, 1)], [2]))
    cert["vd"] = "tree"
    failing = [c for c in replay_chain(cert)["checks"] if not c["pass"]]
    assert failing == [{"name": "vd-replay", "pass": False, "detail": "malformed node"}]


def test_every_corpus_chain_certifies_what_the_search_finds():
    # the chain's verdict is a proof (Chain.certifies_vd); the search
    # must agree with it
    for data in CORPUS + NEGATIVE_INSTANCES:
        chain = Chain(ladder_from_json(data))
        assert chain.certifies_vd() == (True, "ok"), data
        assert is_vertex_decomposable(chain.node_complex(chain.top_canon))[0], data


def test_region_squarefree_flag_matches_a_scan_on_corpus_nodes():
    # a node's ideal takes its squarefree flag from its regions' sets
    for data in CORPUS + NEGATIVE_INSTANCES:
        chain = Chain(ladder_from_json(data))
        for canon in chain.sequence:
            ideal = chain.initial_ideal(canon)
            assert ideal.is_squarefree() == monomials._squarefree(ideal.gens), canon


@pytest.mark.parametrize(
    "edit",
    [lambda cert: cert.update(schema="laddergb-chain/3"), lambda cert: [cert]],
    ids=["unknown-schema", "not-an-object"],
)
def test_replay_chain_refuses_a_document_that_is_not_a_chain_certificate(edit):
    # the library checks the schema itself, before it reads the top
    cert = chain_certificate(Chain(MaxMinors(2, 3)), "chain")
    doc = edit(cert) or cert
    with pytest.raises(LadderError, match="not a chain certificate") as e:
        replay_chain(doc)
    assert "laddergb-chain/1 or laddergb-chain/2" in str(e.value)


@pytest.mark.parametrize(
    "key, value, check",
    [
        ("field", "gf:7", "certificate-field"),
        ("order", "antidiagonal", "certificate-order"),
    ],
)
def test_replay_detects_edited_field_or_order(key, value, check):
    cert = build_cert(MaxMinors(2, 3))
    assert cert[key] != value
    cert[key] = value
    report = replay_chain(cert)
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failing == {check}


def test_replay_checks_the_field_it_runs_over():
    gf = field_by_name("gf:32003")
    report, chain, cert = verify_family(MaxMinors(2, 3), gf)
    cert = chain_certificate(chain, cert)
    assert replay_chain(cert, gf)["pass"]
    failing = {c["name"] for c in replay_chain(cert)["checks"] if not c["pass"]}
    assert failing == {"certificate-field"}


def test_replay_builds_each_initial_ideal_once(monkeypatch):
    cert = build_cert(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]))
    built = _count_chain_ideals(monkeypatch)
    report = replay_chain(cert)
    assert report["pass"]
    assert len(built) == len(cert["nodes"])
    chain = Chain(ladder_from_json(cert["top"]))
    assert {ambient for _, ambient in built} == {chain.ambient}
    canon = chain.top.canon()
    assert chain.initial_ideal(canon) is chain.initial_ideal(canon)


def test_replay_detects_rewired_structure():
    cert = build_cert(MaxMinors(2, 3))
    cert["nodes"][0]["middle"], cert["nodes"][0]["reduced"] = (
        cert["nodes"][0]["reduced"],
        cert["nodes"][0]["middle"],
    )
    report = replay_chain(cert)
    assert any(
        c["name"] == "node-structure" and not c["pass"] for c in report["checks"]
    )


# ---------------------------------------------------------------------------
# localization


FULL33 = OneSidedLadder(3, 3, [(3, 1)], [2])


def test_localization_maps_structure():
    phi, psi = localization_maps(FULL33, (2, 2))
    v = conventional_order(FULL33).var
    # row 2 and column 2 variables are fixed
    for (i, j) in FULL33.cells():
        x = v(i, j)
        if i == 2 or j == 2:
            assert phi[x] == (p_var(x, QQ), 0)
            assert psi[x] == (p_var(x, QQ), 0)
    # an affected variable picks up the rank-one correction
    num, e = phi[v(1, 1)]
    assert e == 1
    uv = v(2, 2)
    base = p_term_mul(p_var(v(1, 1), QQ), encode((uv, 1)), QQ.one, QQ)
    corr = p_term_mul(p_var(v(1, 2), QQ), encode((v(2, 1), 1)), QQ.one, QQ)
    from laddergb.poly import p_add

    assert num == p_add(base, corr, QQ)
    # psi carries the opposite sign
    num2, _ = psi[v(1, 1)]
    from laddergb.poly import p_sub

    assert num2 == p_sub(base, corr, QQ)


@pytest.mark.parametrize(
    "ladder,cell",
    [
        (FULL33, (2, 2)),
        (FULL33, (3, 1)),
        (OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2]), (2, 1)),
        (OneSidedLadder(4, 4, [(2, 1), (4, 3)], [2, 2]), (4, 3)),
    ],
    ids=["33-center", "33-corner", "two-regions", "44-corner"],
)
def test_inverse_pair_on_every_variable(ladder, cell):
    phi, psi = localization_maps(ladder, cell)
    v = conventional_order(ladder).var
    uv = v(*cell)
    for (i, j) in ladder.cells():
        x = v(i, j)
        for first, second in ((phi, psi), (psi, phi)):
            num, e = first[x]
            num2, e2 = substitute(num, second, uv)
            want = p_var(x, QQ)
            if e + e2:
                want = p_term_mul(want, encode((uv, e + e2)), QQ.one, QQ)
            assert freeze(num2) == freeze(want)


def test_verify_localization_full_33():
    report = verify_localization(FULL33, (2, 2))
    assert report["pass"], report["checks"]
    assert [c["name"] for c in report["checks"]] == [
        "inverse-pair",
        "forward-membership",
        "reverse-membership",
    ]
    assert report["cell"] == [2, 2]


def test_verify_localization_two_regions():
    ladder = OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2])
    report = verify_localization(ladder, (2, 1))
    assert report["pass"], report["checks"]


def test_verify_localization_interreduces_no_basis(monkeypatch):
    # the ladder's and the localized generators are Groebner bases, so
    # every image divides to zero by them: no completion runs, let alone
    # a reduced basis
    completions, interreductions = [], []
    complete, interreduce = linkage.groebner_basis, poly._interreduce
    monkeypatch.setattr(
        linkage, "groebner_basis", lambda *a: completions.append(1) or complete(*a)
    )
    monkeypatch.setattr(
        poly, "_interreduce", lambda *a: interreductions.append(1) or interreduce(*a)
    )
    for ladder, cell in [
        (OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2]), (2, 1)),
        (FULL33, (2, 2)),
        (OneSidedLadder(4, 4, [(4, 1)], [3]), (2, 2)),
    ]:
        report = verify_localization(ladder, cell)
        assert report["pass"], report["checks"]
    assert completions == [] and interreductions == []


def test_verify_localization_budget_bounds_only_completions_that_run():
    # completing the ladder's ideal here takes more than one S-pair reduction,
    # but every image divides to zero by the generators
    for ladder, cell in [
        (OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2]), (2, 1)),
        (OneSidedLadder(4, 4, [(2, 1), (4, 3)], [2, 2]), (4, 3)),
    ]:
        assert verify_localization(ladder, cell, max_spairs=1)["pass"]


# A target that is not a Groebner basis: a - b, a - c, a - d share their
# leading variable a, so b - c lies in the ideal but divides to b - c.
_ORDER22 = conventional_order(OneSidedLadder(2, 2, [(2, 1)], [2]))
_A, _B, _C, _D = (p_var(v, QQ) for v in (3, 2, 1, 0))
_NOT_A_BASIS = [p_sub(_A, _B, QQ), p_sub(_A, _C, QQ), p_sub(_A, _D, QQ)]


def _member(images, max_spairs=None):
    return linkage._memberships(images, _NOT_A_BASIS, _ORDER22, QQ, 0, max_spairs)


def test_membership_falls_back_to_the_completion_on_a_remainder(monkeypatch):
    inside = p_sub(_B, _C, QQ)
    assert normal_form(inside, _NOT_A_BASIS, _ORDER22, QQ)  # a remainder is left
    completions = []
    complete = linkage.groebner_basis
    monkeypatch.setattr(
        linkage, "groebner_basis", lambda *a: completions.append(1) or complete(*a)
    )
    assert _member([inside, p_mul(inside, _D, QQ)])
    assert completions == [1]  # once per check, not once per image
    assert not _member([_B])  # outside: a remainder modulo the completion too
    assert completions == [1, 1]


def test_membership_budget_binds_only_in_the_fallback():
    in_by_division = p_mul(p_sub(_A, _B, QQ), _C, QQ)
    assert _member([in_by_division], max_spairs=0)
    with pytest.raises(BudgetExceeded):
        _member([in_by_division, p_sub(_B, _C, QQ)], max_spairs=1)
    assert _member([p_sub(_B, _C, QQ)], max_spairs=2)


def _report_or_error(verify, ladder, cell, field):
    try:
        return verify(ladder, cell, field)
    except (LadderError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("field_name", ["q", "gf:2"])
def test_verify_localization_matches_complete_first_on_the_corpus(field_name):
    field = field_by_name(field_name)
    reports = 0
    for data in CORPUS + NEGATIVE_INSTANCES:
        if data["family"] != "onesided":
            continue
        ladder = ladder_from_json(data)
        for cell in ladder.cells():
            got = _report_or_error(verify_localization, ladder, cell, field)
            want = _report_or_error(localization_complete_first, ladder, cell, field)
            assert got == want, (data, cell)
            reports += isinstance(got, dict)
    assert reports == 48


def test_localized_generators_drop_one_size():
    gens = localized_ideal_generators(FULL33, (2, 2))
    # 1-minors on rows {1,3} x cols {1,3}: four variables
    assert len(gens) == 4
    degs = {max(len(decode(m)) for m in g) for g in gens}
    assert degs == {2}  # single-variable polynomials


def ref_localized_generators(ladder, cell, shape, order):
    """Each region's minors over its rows and columns, less the cell's
    row and column and one size down where the region holds the cell,
    deduplicated by polynomial."""
    u, v = cell
    seen, out = set(), []
    for (a, b), t in ladder.sizes():
        rows, cols = list(range(1, a + 1)), list(range(b, ladder.n + 1))
        if u <= a and v >= b:
            rows, cols, t = [i for i in rows if i != u], [j for j in cols if j != v], t - 1
        if t == 0:
            continue
        for rs in itertools.combinations(rows, t):
            for cs in itertools.combinations(cols, t):
                g = matrices.minor(shape, rs, cs, QQ, order)
                if freeze(g) not in seen:
                    seen.add(freeze(g))
                    out.append(g)
    return out


def test_localized_generators_match_a_reference_on_the_corpus():
    for data in ONESIDED + NEGATIVE_INSTANCES:
        ladder = ladder_from_json(data)
        if ladder.family != "onesided":
            continue
        shape, order = ladder.shape(), conventional_order(ladder)
        for cell in sorted(set().union(*(r.cells for r in ladder.regions()))):
            got = localized_ideal_generators(ladder, cell, QQ, shape, order)
            assert got == ref_localized_generators(ladder, cell, shape, order), (data, cell)


def test_localization_preconditions():
    with pytest.raises(PreconditionError):
        localization_maps(MaxMinors(3, 3), (2, 2))
    with pytest.raises(PreconditionError):
        localization_maps(OneSidedLadder(3, 3, [(3, 1)], [1]), (2, 2))
    with pytest.raises(LadderError):
        localization_maps(
            OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2]), (3, 1)
        )


def test_localization_over_prime_field():
    from laddergb import field_by_name

    gf = field_by_name("gf:32003")
    report = verify_localization(FULL33, (2, 2), field=gf)
    assert report["pass"]
