"""Command-line interface: subcommands, exit codes, JSON contracts."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import laddergb
from laddergb import Chain, chain_certificate, cli, ladder_from_json, poly
from laddergb.complexes import is_vertex_decomposable

from conftest import write_instance
from corpus import CORPUS, MAXMINORS, NEGATIVE_INSTANCES, ONESIDED, PFAFFIAN, SYMMETRIC

MM23 = {"family": "maxminors", "m": 2, "n": 3}
MM34 = {"family": "maxminors", "m": 3, "n": 4}
ONESIDED_4x4_T3 = {"family": "onesided", "m": 4, "n": 4, "points": [[4, 1]], "t": [3]}
OS33 = {"family": "onesided", "m": 3, "n": 3, "points": [[3, 1]], "t": [2]}
BAD_CORNERS = {
    "family": "pfaffian",
    "n": 6,
    "corners": [[1, 5], [1, 5]],
    "t": [2, 2],
}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# happy paths


def test_validate_ok(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    assert "0 error(s)" in out


def test_generators_lists_minors(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["generators", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["order"] == "diagonal"
    texts = [g["text"] for g in doc["generators"]]
    assert "x[1,1]*x[2,2] - x[1,2]*x[2,1]" in texts


def test_groebner_check_passes(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["groebner-check", path])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_initial_matches_diagonals(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["initial", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["initial"] == [
        "x[1,1]*x[2,2]",
        "x[1,1]*x[2,3]",
        "x[1,2]*x[2,3]",
    ]


def test_height_closed_form(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["height", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["height"] == 2  # n - m + 1
    assert doc["codimension"] == 2


def test_height_reads_a_codimension_that_needs_no_squarefree_ideal(tmp_path, capsys):
    # under the anti-diagonal order this ideal is not squarefree; its
    # codimension is read off the Hilbert numerator all the same
    path = write_instance(
        tmp_path, {"family": "symmetric", "n": 3, "points": [[3, 3]], "t": [2]}
    )
    code, out, _ = run(capsys, ["initial", path, "--order", "antidiag", "--json"])
    assert code == 1
    assert not json.loads(out)["checks"][0]["pass"]
    code, out, _ = run(capsys, ["height", path, "--order", "antidiag", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["height"], doc["codimension"]) == (3, 3)
    assert doc["checks"][0]["detail"] == "codim 3, formula 3"


def test_vd_fails_an_initial_ideal_that_is_not_squarefree(tmp_path, capsys):
    # the instance is valid, so vd reports the claim it cannot check, as
    # initial does, and does not call the input invalid
    path = write_instance(
        tmp_path, {"family": "symmetric", "n": 3, "points": [[3, 3]], "t": [2]}
    )
    code, out, _ = run(capsys, ["vd", path, "--order", "antidiag"])
    assert (code, out) == (1, "FAIL initial-squarefree\n")
    code, out, _ = run(capsys, ["vd", path, "--order", "antidiag", "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"] == [
        {"name": "initial-squarefree", "pass": False, "detail": ""}
    ]
    assert "certificate" not in doc


def test_vd_emits_certificate(tmp_path, capsys):
    path = write_instance(tmp_path, OS33)
    code, out, _ = run(capsys, ["vd", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    names = {c["name"]: c["pass"] for c in doc["checks"]}
    assert names["vertex-decomposable"] is True
    assert names["certificate-replay"] is True
    assert "certificate" in doc


def test_chain_lists_nodes(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["chain", path])
    assert code == 0
    assert "maxminors:m=1,n=2" in out


def test_verify_passes_and_reports(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert "VERDICT: pass" in out


def test_chain_then_replay(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    cert_path = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, ["chain", path, "--json", "--out", cert_path])
    assert code == 0
    code, out, _ = run(capsys, ["replay", cert_path])
    assert code == 0
    assert "VERDICT: pass" in out


@pytest.mark.parametrize(
    "data",
    [MAXMINORS[4], PFAFFIAN[4], SYMMETRIC[5], ONESIDED[3]],
    ids=lambda d: d["family"],
)
def test_chain_and_replay_expand_no_generator(tmp_path, capsys, monkeypatch, data):
    # Under the conventional order both commands read every leading
    # monomial off its index set: no minor or pfaffian is expanded.
    calls = []
    entry_poly = laddergb.matrices.entry_poly

    def counted(*args):
        calls.append(args)
        return entry_poly(*args)

    monkeypatch.setattr(laddergb.matrices, "entry_poly", counted)
    path = write_instance(tmp_path, data)
    cert_path = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, ["chain", path, "--json", "--out", cert_path])
    assert code == 0
    code, _, _ = run(capsys, ["replay", cert_path])
    assert code == 0
    assert calls == []
    # the counter does see expansions: verify needs the polynomials
    run(capsys, ["verify", path])
    assert calls


def test_chain_builds_no_complex_by_berge(tmp_path, capsys, monkeypatch):
    # every step of this chain is a double link, so the walk, which
    # builds the top complex for the decomposability search, reads each
    # terminal's complex off its generators and derives every other one
    calls = []
    complex_cls = laddergb.complexes.SimplicialComplex
    real = complex_cls.from_squarefree.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(complex_cls, "from_squarefree", classmethod(counting))
    path = write_instance(
        tmp_path, {"family": "pfaffian", "n": 8, "corners": [[1, 8]], "t": [2]}
    )
    code, _, _ = run(capsys, ["chain", path, "--json"])
    assert code == 0
    assert calls == []


def test_chain_and_replay_do_no_hilbert_work(tmp_path, capsys, monkeypatch):
    # numerators are computed only where verify asks for one
    # (Chain.numerator); chain --out and replay ask for none
    calls = []
    real = laddergb.monomials.hilbert_numerator

    def counting(gens):
        calls.append(gens)
        return real(gens)

    for module in (laddergb.monomials, laddergb.linkage, laddergb.cli):
        monkeypatch.setattr(module, "hilbert_numerator", counting)
    path = write_instance(
        tmp_path, {"family": "pfaffian", "n": 8, "corners": [[1, 8]], "t": [2]}
    )
    cert = str(tmp_path / "cert.json")
    assert run(capsys, ["chain", path, "--out", cert])[0] == 0
    assert run(capsys, ["replay", cert])[0] == 0
    assert calls == []
    assert run(capsys, ["height", path])[0] == 0
    assert len(calls) == 1


def test_plain_chain_builds_no_certificate(tmp_path, capsys, monkeypatch):
    # without --json or --out, chain prints its node lines off the chain
    # itself: no node record, with its monomial texts, is built
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(cli, "chain_certificate")
    counting(laddergb.linkage, "chain_certificate")
    counting(laddergb.linkage, "node_records")
    for data in CORPUS:
        code, out, _ = run(capsys, ["chain", write_instance(tmp_path, data)])
        assert code == 0
        assert calls == []
        # the lines as they were read off the certificate's records
        chain = Chain(ladder_from_json(data))
        want = [
            "chain with %d nodes (%d steps)"
            % (len(chain.sequence), len(chain.steps()))
        ]
        for node in chain_certificate(chain)["nodes"]:
            tag = "terminal"
            if not node["terminal"]:
                tag = "corner (%d, %d)" % tuple(node["cell"])
            want.append(
                "  %s: height %d, %d initial monomials, %s"
                % (node["id"], node["height"], len(node["initial"]), tag)
            )
        assert out == "\n".join(want) + "\n"
        calls.clear()


# sha256 of the stdout of `chain --json` and of `replay --json` on its
# certificate: a change to the complexes or the search must leave both
# byte-identical.  The replay digests were recorded before complexes moved
# to bit masks; the chain digests when certificates became laddergb-chain/2
# and these chains, each its own decomposability certificate, began to
# record "chain" for their vd instead of the search's tree.
PINNED_OUTPUTS = [
    (
        MAXMINORS[4],
        "c9dbcbfc8dd2e3bb3e83259fb5b381f208f2f792c565cb566f421ed1dee9adea",
        "033f38f641ae8d3dc1577b28bfca3c2d67f03f5556f014aecb3a86de85e4f713",
    ),
    (
        PFAFFIAN[4],
        "cd6938c49bbc7e8bf29fa5218c28c414476347de8abe8f73bd4a1a66f9ab62f2",
        "2a80b394c304a2b2cc8b0001979f5fd3c316397446f8aa71c6852df7b9c3c172",
    ),
    (
        SYMMETRIC[5],
        "84da9d23a20484f7420ce0930c899164a4d054ed2c618063c88e09ee9ed64b7f",
        "78344453f13fe22a4ca3510b1e5a75725b1718f42c917667fa4dc9b77caa2588",
    ),
    (
        ONESIDED[3],
        "0b855f39b240da989e3a5a82d881819bfaf37dd792a8485b44e331d62f72b6db",
        "9a3653b3425569ff67b19c2ea1ce5734959a0f57340bb37d7d8b9fbe17474935",
    ),
]


@pytest.mark.parametrize(
    "data, chain_sha, replay_sha",
    PINNED_OUTPUTS,
    ids=[data["family"] for data, _, _ in PINNED_OUTPUTS],
)
def test_chain_and_replay_json_are_pinned(
    tmp_path, capsys, data, chain_sha, replay_sha
):
    path = write_instance(tmp_path, data)
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, ["chain", path, "--json", "--out", cert_path])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == chain_sha
    code, out, _ = run(capsys, ["replay", cert_path, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == replay_sha


@pytest.mark.parametrize(
    "data",
    [MAXMINORS[4], PFAFFIAN[4], SYMMETRIC[5], ONESIDED[3]],
    ids=lambda d: d["family"],
)
def test_cli_checks_match_verify_family(tmp_path, capsys, corpus_reports, data):
    path = write_instance(tmp_path, data)
    canon = ladder_from_json(data).canon()
    report = corpus_reports[canon][0]
    top = {c["name"]: c for c in report["checks"] if c["instance"] == canon}
    seen = set()
    for sub in ("groebner-check", "initial", "height", "vd"):
        code, out, _ = run(capsys, [sub, path, "--json"])
        assert code == 0
        for c in json.loads(out)["checks"]:
            seen.add(c["name"])
            assert c["pass"] == top[c["name"]]["pass"]
            # `initial` reports the generator count in its detail
            if c["name"] != "initial-squarefree":
                assert c["detail"] == top[c["name"]]["detail"]
    assert seen == {
        "groebner-fixed-point",
        "reduced-basis-predicate",
        "initial-squarefree",
        "codim-equals-height",
        "vertex-decomposable",
        "certificate-replay",
    }


# ---------------------------------------------------------------------------
# exit code 1: a verified claim fails


def test_replay_tampered_certificate(tmp_path, capsys):
    cert_path, cert = _tree_certificate(tmp_path, capsys, OS33)
    cert["vd"]["vertex"] = [1, 1]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["replay", str(cert_path)])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "initial",
    [[1, 2], [["x[1,1]*x[2,2]"]], [], ["x[1,1]*x[2,2]", 3], None, "missing"],
    ids=["ints", "nested", "empty", "mixed", "null", "missing"],
)
def test_replay_judges_initial_lists_it_cannot_read_as_texts(
    tmp_path, capsys, initial
):
    # loading holds each text of an initial list once and leaves every
    # other entry as it is: the node fails node-initial and nothing raises
    cert_path, cert = _certificate(tmp_path, capsys)
    node = cert["nodes"][1]
    if initial == "missing":
        del node["initial"]
    else:
        node["initial"] = initial
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["replay", str(cert_path), "--json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    failed = [(c["name"], c["detail"]) for c in checks if not c["pass"]]
    assert failed == [("node-initial", node["id"])]


def test_replay_holds_each_monomial_text_once(tmp_path, capsys):
    cert_path, _ = _certificate(tmp_path, capsys)
    cert = cli._load_json(str(cert_path), cli._one_text())
    texts = [t for node in cert["nodes"] for t in node["initial"]]
    assert len(texts) > len(set(texts))
    assert len({id(t) for t in texts}) == len(set(texts))


@pytest.mark.parametrize(
    "key, value", [("field", "gf:7"), ("order", "antidiagonal")]
)
def test_replay_rejects_edited_field_or_order(tmp_path, capsys, key, value):
    path = write_instance(tmp_path, MM23)
    cert_path = tmp_path / "cert.json"
    argv = ["chain", path, "--field", "gf:32003", "--json", "--out", str(cert_path)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    code, _, _ = run(capsys, ["replay", str(cert_path), "--field", "gf:32003"])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    cert[key] = value
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["replay", str(cert_path), "--field", "gf:32003"])
    assert code == 1
    assert "FAIL certificate-%s" % key in out


@pytest.mark.parametrize(
    "data", NEGATIVE_INSTANCES, ids=lambda d: d["family"]
)
def test_groebner_check_fails_on_reducible_tails(tmp_path, capsys, data):
    path = write_instance(tmp_path, data)
    code, out, _ = run(capsys, ["groebner-check", path])
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# exit code 2: invalid input


def test_validate_coincident_corners(tmp_path, capsys):
    path = write_instance(tmp_path, BAD_CORNERS)
    code, out, err = run(capsys, ["validate", path])
    assert code == 2
    assert "error" in (out + err)


def test_unknown_family(tmp_path, capsys):
    data = {"family": "twosided", "m": 3, "n": 3, "points": [[3, 1]], "t": [2]}
    code, _, err = run(capsys, ["validate", write_instance(tmp_path, data)])
    assert code == 2
    assert "laddergb:" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["generators", "/no/such/file.json"])
    assert code == 2
    assert "laddergb:" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["height", str(path)])
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "replay"])
def test_file_that_is_not_utf8(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"family": "maxminors", "m": 2, "n": 3, "note": "\xe9"}')
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("laddergb: ") and "utf-8" in err


def test_bad_field_spec(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, _, err = run(capsys, ["groebner-check", path, "--field", "gf:4"])
    assert code == 2


def test_replay_on_non_certificate(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, _, err = run(capsys, ["replay", path])
    assert code == 2


# malformed instance JSON, and the field a LadderError names
MALFORMED = [
    ({"family": "onesided", "m": 2, "n": 2, "points": [[1, "x"]], "t": [1]}, "points[0][1]"),
    ({"family": "onesided", "m": 2, "n": 2, "points": [[2, 1]], "t": ["2"]}, "t[0]"),
    ({"family": "onesided", "m": 2, "n": 2, "points": [3], "t": [1]}, "points[0]"),
    ({"family": "onesided", "m": 2, "n": 2, "points": [[2, 1]], "t": 1}, "t"),
    ({"family": "pfaffian", "n": 4, "corners": 5, "t": [1]}, "corners"),
    ({"family": "pfaffian", "n": 4, "corners": [[1, 2, 4]], "t": [1]}, "corners[0]"),
    ({"family": "maxminors", "m": 2.9, "n": 3}, "m"),
    ({"family": "maxminors", "m": True, "n": 3}, "m"),
    ({"family": "symmetric", "n": "3", "points": [[2, 3]], "t": [2]}, "n"),
    ({"family": "symmetric", "n": 3, "points": [[2, 3]], "t": [2], "cells": {"a": 1}}, "cells"),
    ({"family": "symmetric", "n": 3, "points": [[2, 3]], "t": [2], "cells": [[1, 1.5]]}, "cells[0][1]"),
]


@pytest.mark.parametrize(
    "data, field", MALFORMED, ids=[field for _, field in MALFORMED]
)
def test_malformed_instance_field_is_named(tmp_path, capsys, data, field):
    code, _, err = run(capsys, ["validate", write_instance(tmp_path, data)])
    assert code == 2
    assert "laddergb: %s must be" % field in err


INDEX_64 = {
    "maxminors": {"family": "maxminors", "m": 1, "n": 64},
    "onesided": {"family": "onesided", "m": 2, "n": 64, "points": [[2, 63]], "t": [2]},
    "pfaffian": {"family": "pfaffian", "n": 64, "corners": [[1, 4]], "t": [2]},
    "symmetric": {"family": "symmetric", "n": 64, "points": [[2, 3]], "t": [2]},
}


@pytest.mark.parametrize("family", sorted(INDEX_64))
def test_index_64_validates_clean(tmp_path, capsys, family):
    # a cell is its (i, j) pair everywhere, so no index bound applies
    code, out, err = run(capsys, ["validate", write_instance(tmp_path, INDEX_64[family])])
    assert code == 0 and err == ""
    assert "0 error(s), 0 warning(s)" in out


@pytest.mark.parametrize("family", sorted(INDEX_64))
def test_index_64_verifies_and_replays(tmp_path, capsys, family):
    path = write_instance(tmp_path, INDEX_64[family])
    assert run(capsys, ["verify", path])[0] == 0
    cert_path = str(tmp_path / "cert.json")
    assert run(capsys, ["chain", path, "--out", cert_path])[0] == 0
    assert run(capsys, ["replay", cert_path])[0] == 0


def test_index_63_is_accepted(tmp_path, capsys):
    path = write_instance(tmp_path, {"family": "maxminors", "m": 1, "n": 63})
    assert run(capsys, ["validate", path])[0] == 0
    code, out, _ = run(capsys, ["initial", path])
    assert code == 0
    assert "x[1,63]" in out


def _certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    argv = ["chain", write_instance(tmp_path, OS33), "--json", "--out", str(cert_path)]
    assert run(capsys, argv)[0] == 0
    return cert_path, json.loads(cert_path.read_text())


def _tree_certificate(tmp_path, capsys, data, schema=None):
    """A certificate file of data's chain carrying the decomposability
    search's tree, as chain writes one for a chain that is not itself a
    certificate, and one that replays; schema overrides the one
    recorded."""
    chain = Chain(ladder_from_json(data))
    ok, tree = is_vertex_decomposable(chain.node_complex(chain.top_canon))
    assert ok
    cert = chain_certificate(chain, tree)
    if schema is not None:
        cert["schema"] = schema
    cert_path = tmp_path / "tree-cert.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    assert run(capsys, ["replay", str(cert_path)])[0] == 0
    return cert_path, json.loads(cert_path.read_text())


@pytest.mark.parametrize(
    "edit",
    [
        lambda cert: cert.update(top=[1]),
        lambda cert: cert["nodes"][0].pop("id"),
        lambda cert: cert["nodes"][0].update(id=[1]),
        lambda cert: cert.update(nodes={"a": 1}),
        lambda cert: cert["nodes"].append(7),
    ],
    ids=["top-not-object", "node-without-id", "id-not-string", "nodes-not-list", "node-not-object"],
)
def test_replay_rejects_a_malformed_certificate(tmp_path, capsys, edit):
    cert_path, cert = _certificate(tmp_path, capsys)
    edit(cert)
    cert_path.write_text(json.dumps(cert))
    code, _, err = run(capsys, ["replay", str(cert_path)])
    assert code == 2
    assert err.startswith("laddergb: ")


@pytest.mark.parametrize(
    "top,message",
    [
        (
            {"family": "onesided", "m": 3, "n": 3, "points": [[5, 1]], "t": [2]},
            "point outside matrix at (5, 1)",
        ),
        (
            {"family": "pfaffian", "n": 6, "corners": [[1, 7]], "t": [2]},
            "corner outside matrix at (1, 7)",
        ),
    ],
    ids=["onesided-point-outside", "pfaffian-corner-outside"],
)
def test_replay_validates_the_top(tmp_path, capsys, top, message):
    # replay checks a certificate's top as chain checks its instance,
    # and stops with validate's own diagnostic
    cert_path, cert = _certificate(tmp_path, capsys)
    cert["top"] = top
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["replay", str(cert_path)])
    assert code == 2 and out == ""
    assert message in err
    _, _, diagnostic = run(capsys, ["validate", write_instance(tmp_path, top)])
    assert err == diagnostic


@pytest.mark.parametrize(
    "vd",
    [
        {"kind": "split"},
        {"kind": "frobnicate", "vertex": [1, 1]},
        {"kind": "split", "vertex": [1, 1], "deletion": {"kind": "leaf"}},
        {"kind": "split", "vertex": [1, "x"], "deletion": {}, "link": {}},
        {"kind": "leaf", "facet": [[1]]},
        [1],
    ],
)
def test_replay_fails_a_malformed_vd_node(tmp_path, capsys, vd):
    cert_path, cert = _tree_certificate(tmp_path, capsys, OS33)
    cert["vd"] = vd
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["replay", str(cert_path)])
    assert code == 1
    assert "FAIL vd-replay: malformed node" in out.splitlines()


def test_chain_writes_chain_for_a_certifying_chain(tmp_path, capsys):
    cert_path, cert = _certificate(tmp_path, capsys)
    assert cert["schema"] == "laddergb-chain/2" and cert["vd"] == "chain"
    code, out, _ = run(capsys, ["replay", str(cert_path)])
    assert code == 0
    assert "PASS vd-replay: ok" in out.splitlines()


def test_chain_writes_the_tree_where_the_chain_is_not_a_certificate(tmp_path, capsys):
    # a step of this chain fails shedding at its corner: chain searches
    # the top, and replay replays the tree, while "chain" fails there
    path = write_instance(tmp_path, ONESIDED_4x4_T3)
    cert_path = tmp_path / "cert.json"
    assert run(capsys, ["chain", path, "--out", str(cert_path)])[0] == 0
    cert = json.loads(cert_path.read_text())
    assert cert["vd"]["kind"] == "split"
    code, out, _ = run(capsys, ["replay", str(cert_path)])
    assert code == 1
    assert "PASS vd-replay: ok" in out.splitlines()
    cert["vd"] = "chain"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["replay", str(cert_path)])
    assert code == 1
    step = "onesided:m=4,n=4;points=(2,2),(3,2),(4,3);t=2,3,3"
    want = "FAIL vd-replay: step %s: shedding conditions fail: cone point" % step
    assert want in out.splitlines()


def test_replay_reads_a_version_1_certificate(tmp_path, capsys):
    # laddergb-chain/1 always carried the search's tree
    cert_path, cert = _tree_certificate(tmp_path, capsys, OS33, "laddergb-chain/1")
    assert cert["schema"] == "laddergb-chain/1" and cert["vd"]["kind"] == "split"
    code, out, _ = run(capsys, ["replay", str(cert_path)])
    assert code == 0
    assert "PASS vd-replay: ok" in out.splitlines()
    cert["schema"] = "laddergb-chain/3"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["replay", str(cert_path)])
    assert code == 2 and out == ""
    assert "laddergb-chain/1 or laddergb-chain/2" in err


# the benchmark chains that are not their own decomposability
# certificate, and one that is
FALLBACK_CHAINS = [
    {"family": "onesided", "m": 5, "n": 5, "points": [[3, 1], [5, 3]], "t": [2, 3]},
    ONESIDED_4x4_T3,
    {"family": "symmetric", "n": 5, "points": [[5, 5]], "t": [3]},
    {"family": "onesided", "m": 4, "n": 5, "points": [[4, 1]], "t": [3]},
]


@pytest.mark.parametrize(
    "data",
    FALLBACK_CHAINS + [OS33],
    ids=["os55-t23", "os44-t3", "sym5-t3", "os45-t3", "os33"],
)
def test_verify_and_chain_decide_and_replay_one_certificate(tmp_path, capsys, data):
    # verify_family returns the certificate CLI chain writes, and checks
    # it as replay does
    report, _, cert = laddergb.verify_family(ladder_from_json(data))
    code, out, _ = run(capsys, ["chain", write_instance(tmp_path, data), "--json"])
    assert code == 0
    written = json.loads(out)
    assert written["vd"] == json.loads(json.dumps(cert))
    assert (cert == "chain") == (data is OS33)
    replayed = laddergb.replay_chain(written)
    (vd_replay,) = [c for c in replayed["checks"] if c["name"] == "vd-replay"]
    (cert_replay,) = [c for c in report["checks"] if c["name"] == "certificate-replay"]
    assert vd_replay["pass"] and cert_replay["pass"]
    assert vd_replay["detail"] == cert_replay["detail"]


def test_nonpositive_budget(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    for flag in ("--budget-spairs", "--budget-faces"):
        code, _, err = run(capsys, ["verify", path, flag, "0"])
        assert code == 2
        assert "positive" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("replay", "--budget-faces"),
        ("height", "--budget-spairs"),
        ("validate", "--field"),
        ("validate", "--order"),
        ("replay", "--order"),
        ("chain", "--order"),
        ("verify", "--order"),
        ("verify", "--dmax"),
    ],
)
def test_flag_the_subcommand_does_not_read_is_rejected(tmp_path, capsys, command, flag):
    path = write_instance(tmp_path, MM23)
    value = {"--field": "gf:4", "--order": "antidiag"}.get(flag, "1")
    with pytest.raises(SystemExit) as info:
        cli.main([command, path, flag, value])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit code 3: budget exhausted


def test_spair_budget_exhausted(tmp_path, capsys):
    path = write_instance(tmp_path, MM34)
    code, _, err = run(capsys, ["groebner-check", path, "--budget-spairs", "1"])
    assert code == 3
    assert "laddergb:" in err


def test_groebner_check_predicate_reuses_the_completion(tmp_path, capsys, monkeypatch):
    # the completion of maxminors 4x7 performs 84 reductions and records
    # the pairs it settled, so the reduced-basis predicate performs none
    # (168 when the predicate kept no record)
    calls = [0]
    real = poly.s_polynomial

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(poly, "s_polynomial", counting)
    path = write_instance(tmp_path, {"family": "maxminors", "m": 4, "n": 7})
    assert run(capsys, ["groebner-check", path])[0] == 0
    assert calls[0] == 84


def test_spair_budget_outcome_of_verify(tmp_path, capsys):
    # the top completion of maxminors 4x7 performs 84 reductions; later
    # completions and the predicate reuse its settled pairs
    path = write_instance(tmp_path, {"family": "maxminors", "m": 4, "n": 7})
    code, _, err = run(capsys, ["verify", path, "--budget-spairs", "83"])
    assert code == 3
    assert "laddergb:" in err
    assert run(capsys, ["verify", path, "--budget-spairs", "84"])[0] == 0


PF6 = {"family": "pfaffian", "n": 6, "corners": [[1, 6]], "t": [2]}


@pytest.mark.parametrize("command", ["chain", "verify"])
def test_face_budget_bounds_only_the_fallback_search(tmp_path, capsys, command):
    # the pfaffian n=6 chain is its own certificate, so no search runs
    # and no budget is spent (both exited 3 when the search always ran);
    # the one-sided 4x4 chain is not, and its top's search visits 25
    # complexes
    assert run(capsys, [command, write_instance(tmp_path, PF6), "--budget-faces", "1"])[0] == 0
    path = write_instance(tmp_path, ONESIDED_4x4_T3, "fallback.json")
    code, _, err = run(capsys, [command, path, "--budget-faces", "24"])
    assert code == 3
    assert "face-budget exhausted" in err
    assert run(capsys, [command, path, "--budget-faces", "25"])[0] == (
        0 if command == "chain" else 1
    )


def test_face_budget_exhausted(tmp_path, capsys):
    # the outcome must not depend on history: an unbudgeted search in the
    # same process does not pre-pay a later budgeted one
    path = write_instance(tmp_path, MM34)
    code, _, err = run(capsys, ["vd", path, "--budget-faces", "1"])
    assert code == 3
    assert "laddergb:" in err
    assert run(capsys, ["vd", path])[0] == 0
    assert run(capsys, ["vd", path, "--budget-faces", "1"])[0] == 3


# ---------------------------------------------------------------------------
# output contracts


def test_json_round_trip_and_stable_keys(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["verify", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert out.strip() == json.dumps(
        doc, indent=2, sort_keys=True, ensure_ascii=False
    )
    assert doc == json.loads(json.dumps(doc))


def test_json_documents_are_the_bytes_of_json_dumps(tmp_path, capsys, monkeypatch):
    # cli writes its documents without json.dumps; every subcommand's
    # --json output and the --out file must still be exactly its bytes
    docs = []
    emit = cli._emit

    def recording(doc, args, lines):
        docs.append(doc)
        emit(doc, args, lines)

    monkeypatch.setattr(cli, "_emit", recording)
    cert_path = str(tmp_path / "cert.json")
    commands = [c for c in cli._COMMANDS if c != "replay"]
    for data in CORPUS:
        path = write_instance(tmp_path, data)
        for argv in [[c, path] for c in commands] + [["replay", cert_path]]:
            if argv[0] == "chain":
                argv += ["--out", cert_path]
            docs.clear()
            code, out, _ = run(capsys, argv + ["--json"])
            assert code == 0, argv
            (doc,) = docs
            want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
            assert out == want + "\n", argv
            if argv[0] == "chain":
                with open(cert_path, encoding="utf-8") as fh:
                    assert fh.read() == out


class _Writes:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize(
    "out, as_json", [(True, False), (False, True), (True, True)], ids=["out", "json", "both"]
)
def test_streamed_documents_are_the_bytes_of_json_dumps(
    tmp_path, monkeypatch, out, as_json
):
    # several chunks of text; a float and a non-ASCII string take the
    # json.dumps fallback
    doc = {
        "nodes": [
            {"id": "n%d" % k, "initial": ["x%d" % k, "y"], "name": "é%d" % k, "w": k / 7}
            for k in range(3 * cli._CHUNK // 8)
        ],
        "pass": True,
        "top": None,
    }
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)

    def lines():
        assert not as_json, "text lines are read under --json"
        yield "text"

    path = tmp_path / "doc.json"
    args = argparse.Namespace(out=str(path) if out else None, json=as_json)
    cli._emit(doc, args, lines())
    if out:
        assert path.read_text(encoding="utf-8") == want
    if not as_json:
        assert stdout.writes == ["text", "\n"]
        return
    assert "".join(stdout.writes) == want
    # each piece of this document holds one newline, but a float's text,
    # which follows the piece of its key; the buffer is checked after each
    # nested item, and at most 6 pieces come between two checks here
    pieces = [w.count("\n") + w.count('"w": ') for w in stdout.writes]
    assert len(pieces) >= 3
    assert max(pieces) <= cli._CHUNK + 6


def test_out_flag_matches_stdout_json(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    out_path = tmp_path / "report.json"
    code, stdout, _ = run(capsys, ["height", path, "--json"])
    assert code == 0
    code, _, _ = run(capsys, ["height", path, "--json", "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(stdout)


def test_runs_are_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path, OS33)
    first = run(capsys, ["verify", path, "--json"])
    second = run(capsys, ["verify", path, "--json"])
    assert first == second


def test_order_mismatch_warns_on_stderr(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, _, err = run(capsys, ["groebner-check", path, "--order", "antidiag"])
    assert code == 0  # both orders happen to give a basis here
    assert "conventional order" in err


def test_field_flag_reaches_report(tmp_path, capsys):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run(capsys, ["verify", path, "--json", "--field", "gf:32003"])
    assert code == 0
    assert json.loads(out)["field"] == "gf:32003"


# ---------------------------------------------------------------------------
# installed entry point and process state


def run_alone(argv):
    """(exit code, stdout, stderr) of the command in a fresh process."""
    # the child must import the same laddergb as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(laddergb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "laddergb.cli"] + argv,
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_console_script_smoke(tmp_path):
    path = write_instance(tmp_path, MM23)
    code, out, _ = run_alone(["height", path, "--json"])
    assert code == 0
    assert json.loads(out)["height"] == 2


def test_outputs_do_not_depend_on_the_orders_read_before(tmp_path, capsys):
    # each term order numbers its own ring's variables; one process reads
    # a one-sided instance under the diagonal order, the anti-diagonal
    # order and the diagonal order again, and every output is the one
    # the same command gives alone
    path = write_instance(tmp_path, ONESIDED[3])
    commands = [
        [cmd, path, "--json", "--order", order]
        for order in ("diag", "antidiag", "diag")
        for cmd in ("initial", "vd")
    ]
    outputs = [run(capsys, argv) for argv in commands]
    assert outputs[0] != outputs[2]  # the two orders do give different ideals
    for argv, got in zip(commands, outputs):
        assert got == run_alone(argv), argv
