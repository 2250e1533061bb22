"""Corner-removal chains: construction, per-step verification,
certificates and replay, and the localization maps."""

import hashlib
import json

import pytest

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
    localized_ideal_generators,
    substitute,
    verify_node_groebner,
    verify_node_initial,
    verify_step,
)
from laddergb.monomials import MonomialIdeal, hilbert_function_brute
from laddergb.poly import (
    buchberger_reduced,
    freeze,
    leading_term,
    p_term_mul,
    p_var,
)

from laddergb import matrices, poly

from corpus import CORPUS, NEGATIVE_INSTANCES


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
    # 36 distinct (corner, t); once built, a chain enumerates a region's
    # generators once for its certificate and every check of
    # verify_family together
    top = PfaffianLadder(8, [(1, 8)], [2])
    chain = Chain(top)
    calls = [0]
    region_keys = PfaffianLadder.region_keys

    def counting(self, corner, t):
        calls[0] += 1
        return region_keys(self, corner, t)

    monkeypatch.setattr(PfaffianLadder, "region_keys", counting)
    chain_certificate(chain)
    verify_node_groebner(chain, chain.top_canon)
    for canon in chain.sequence:
        verify_node_initial(chain, canon)
    for canon in chain.steps():
        verify_step(chain, canon)
    ladders = [chain.nodes[canon].ladder for canon in chain.sequence]
    assert sum(len(l.sizes()) for l in ladders) == 1009
    assert len({r for l in ladders for r in l.sizes()}) == 36
    assert calls[0] == 36


# ---------------------------------------------------------------------------
# chain construction


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
    # one completion per touched node: the top's through buchberger_reduced,
    # every other node's directly
    from laddergb import linkage

    calls = _count_calls(monkeypatch, "groebner_basis", (poly, linkage))
    top = PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2])
    report, chain, _ = verify_family(top)
    assert report["pass"]
    touched = {top.canon()}
    for canon in chain.steps():
        node = chain.nodes[canon]
        touched |= {canon, node.middle, node.reduced}
    assert len(calls) == len(touched)


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


def test_verify_family_builds_each_node_ideal_once(monkeypatch):
    # every ideal lives in the chain's one ring, so a node's initial ideal
    # is built once and shared by its steps; the oracle reuses it when its
    # completion's leading monomials are the node's, as they are here
    from laddergb import linkage

    built = []
    real = linkage.MonomialIdeal

    def counting(gens, ambient):
        built.append(tuple(ambient))
        return real(gens, ambient)

    monkeypatch.setattr(linkage, "MonomialIdeal", counting)
    report, chain, _ = verify_family(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]))
    assert report["pass"]
    assert len(built) == len(chain.sequence)
    assert set(built) == {chain.ambient}


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
            assert all(type(n) is int for n in pair | used), canon
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


def test_hilbert_identity_holds_in_every_degree_not_up_to_a_cutoff():
    # In k[x,y], C = A = (x) and B = (x, y^10): H(R/C, d) = H(R/B, d-1)
    # + H(R/A, d) - H(R/A, d-1) holds in degrees 0..10 and fails from
    # degree 11 on, so a per-degree check with a small cutoff passes.
    x, y10 = (0, 1), (1, 10)
    ring = (0, 1)
    a = c = MonomialIdeal([x], ring)
    b = MonomialIdeal([x, y10], ring)

    def holds(d):
        h = hilbert_function_brute
        return h(c, d) == h(b, d - 1) + h(a, d) - h(a, d - 1)

    assert all(holds(d) for d in range(11))
    assert not holds(11) and not holds(12)
    assert _hilbert_identity(c, a, b, {}) == (False, "fails at degree 11")
    assert _hilbert_identity(c, a, a, {}) == (True, "every degree")


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


def test_replay_detects_edited_shedding_vertex():
    cert = build_cert(OneSidedLadder(3, 3, [(3, 1)], [2]))
    assert "vd" in cert
    cert["vd"]["vertex"] = [1, 1]
    report = replay_chain(cert)
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failing == {"vd-replay"}


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
    from laddergb import linkage

    cert = build_cert(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]))
    built = []
    real = linkage.MonomialIdeal

    def counting(gens, ambient):
        built.append(frozenset(gens))
        return real(gens, ambient)

    monkeypatch.setattr(linkage, "MonomialIdeal", counting)
    report = replay_chain(cert)
    assert report["pass"]
    assert len(built) == len(cert["nodes"])
    chain = Chain(ladder_from_json(cert["top"]))
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
    base = p_term_mul(p_var(v(1, 1), QQ), (uv, 1), QQ.one, QQ)
    corr = p_term_mul(p_var(v(1, 2), QQ), (v(2, 1), 1), QQ.one, QQ)
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
                want = p_term_mul(want, (uv, e + e2), QQ.one, QQ)
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
    # membership needs a Groebner basis, not the reduced one
    calls = []
    interreduce = poly._interreduce
    monkeypatch.setattr(
        poly, "_interreduce", lambda *args: calls.append(1) or interreduce(*args)
    )
    report = verify_localization(OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2]), (2, 1))
    assert report["pass"], report["checks"]
    assert calls == []


def test_localized_generators_drop_one_size():
    gens = localized_ideal_generators(FULL33, (2, 2))
    # 1-minors on rows {1,3} x cols {1,3}: four variables
    assert len(gens) == 4
    degs = {max(map(len, g)) for g in gens}
    assert degs == {2}  # single-variable polynomials


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
