"""Corner-removal chains: construction, per-step verification,
certificates and replay, and the localization maps."""

import json

import pytest

from laddergb import (
    Chain,
    LadderError,
    MaxMinors,
    OneSidedLadder,
    PfaffianLadder,
    PreconditionError,
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
    localized_ideal_generators,
    substitute,
    verify_node_groebner,
    verify_node_initial,
    verify_step,
)
from laddergb.poly import cell_id, freeze, p_term_mul, p_var

from corpus import NEGATIVE_INSTANCES


def by_name(checks):
    out = {}
    for c in checks:
        out.setdefault(c["name"], []).append(c)
    return out


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


def test_verify_family_computes_each_basis_once(monkeypatch):
    from laddergb import linkage

    calls = []
    real = linkage.buchberger_reduced

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linkage, "buchberger_reduced", counting)
    top = PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2])
    report, chain, _ = verify_family(top)
    assert report["pass"]
    touched = {top.canon()}
    for canon in chain.steps():
        node = chain.nodes[canon]
        touched |= {canon, node.middle, node.reduced}
    assert len(calls) == len(touched)


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
    # row 2 and column 2 variables are fixed
    for (i, j) in FULL33.cells():
        x = cell_id(i, j)
        if i == 2 or j == 2:
            assert phi[x] == (p_var(x, QQ), 0)
            assert psi[x] == (p_var(x, QQ), 0)
    # an affected variable picks up the rank-one correction
    num, e = phi[cell_id(1, 1)]
    assert e == 1
    uv = cell_id(2, 2)
    base = p_term_mul(p_var(cell_id(1, 1), QQ), (uv, 1), QQ.one, QQ)
    corr = p_term_mul(p_var(cell_id(1, 2), QQ), (cell_id(2, 1), 1), QQ.one, QQ)
    from laddergb.poly import p_add

    assert num == p_add(base, corr, QQ)
    # psi carries the opposite sign
    num2, _ = psi[cell_id(1, 1)]
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
    uv = cell_id(*cell)
    for (i, j) in ladder.cells():
        x = cell_id(i, j)
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
