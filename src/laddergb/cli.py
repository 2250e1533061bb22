"""Command line front end.

Every subcommand reads a ladder instance (or certificate) from a JSON
file, runs one pipeline, prints a human-readable summary to stdout (or
the JSON document itself with --json) and optionally writes the JSON
document to --out.  Diagnostics always go to stderr.

Subcommands:

* validate        structural diagnostics for an instance file
* generators      list the natural generators
* groebner-check  fixed-point and reduced-basis verdicts
* initial         minimalized initial ideal and squarefree flag
* height          closed height formula against the initial codimension
* vd              vertex-decomposability verdict plus certificate
* chain           corner-removal chain certificate
* verify          the full verification report for one instance
* replay          re-check a previously written chain certificate

Exit codes: 0 every check passed; 1 some claim check failed; 2 invalid
input or instance; 3 a configured budget ran out.
"""

import argparse
import json
import sys
from json.encoder import encode_basestring as _encode_str

from .complexes import SimplicialComplex, is_vertex_decomposable
from .errors import BudgetExceeded, LadderError, PreconditionError
from .families import natural_generators
from .fields import field_by_name
from .ladders import errors_of, ladder_from_json
from .linkage import (
    Chain,
    chain_certificate,
    groebner_checks,
    height_check,
    initial_ideal,
    replay_chain,
    squarefree_check,
    vd_cert_to_json,
    vd_checks,
    verify_family,
)
from .matrices import order_for
from .poly import leading_term, mono_text, p_degree, poly_text

_ORDER_KINDS = {"diag": "diagonal", "antidiag": "antidiagonal"}


def _warn(msg):
    print("laddergb: %s" % msg, file=sys.stderr)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_ladder(path):
    return ladder_from_json(_load_json(path))


def _checked_ladder(path):
    """Parse and validate; error diagnostics abort with a LadderError,
    warnings go to stderr."""
    ladder = _load_ladder(path)
    diags = ladder.validate()
    errs = errors_of(diags)
    for d in diags:
        if d not in errs:
            _warn(d.text())
    if errs:
        raise LadderError("; ".join(d.text() for d in errs))
    return ladder


def _resolve_order(ladder, flag):
    kind = ladder.order_kind if flag is None else _ORDER_KINDS[flag]
    if kind != ladder.order_kind:
        _warn(
            "order %s is not the conventional order for family %s; "
            "Groebner claims are stated for the %s order"
            % (kind, ladder.family, ladder.order_kind)
        )
    return order_for(ladder.shape(), kind)


def _instance(args):
    """Validated instance, term order and field named by the arguments."""
    ladder = _checked_ladder(args.instance)
    return ladder, _resolve_order(ladder, args.order), field_by_name(args.field)


def _initial(args):
    ladder, order, field = _instance(args)
    return ladder, order, initial_ideal(ladder, order, field)


def _report(ladder, checks):
    return {
        "schema": "laddergb-report/1",
        "instance": ladder.to_json(),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# exact types json writes without its encoder; other scalars (floats,
# subclasses) go through json.dumps
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(doc):
    """json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False), byte
    for byte, for a document whose keys are strings.  json.dumps falls
    back to its pure-Python encoder whenever indent is set; here the
    layout is written directly, strings go through the C string encoder
    and any scalar but a str, int, bool or None through json.dumps."""
    out = []
    _write_json(doc, "\n", out.append)
    return "".join(out)


def _write_json(value, pad, put):
    """Put value's text in pieces; pad is the newline and indent of its
    line.  A container writes its scalar items itself."""
    if isinstance(value, dict):
        items, open_, close = sorted(value.items()), "{", "}"
    elif isinstance(value, (list, tuple)):
        items, open_, close = value, "[", "]"
    else:
        scalar = _SCALARS.get(type(value))
        put(json.dumps(value) if scalar is None else scalar(value))
        return
    if not items:
        put(open_ + close)
        return
    inner = pad + "  "
    sep = open_ + inner
    for item in items:
        if open_ == "{":
            sep += _encode_str(item[0]) + ": "
            item = item[1]
        scalar = _SCALARS.get(type(item))
        if scalar is None:
            put(sep)
            _write_json(item, inner, put)
        else:
            put(sep + scalar(item))
        sep = "," + inner
    put(pad + close)


def _emit(doc, args, lines):
    """Write doc to --out and print it for --json, encoding it only then;
    print the text lines otherwise."""
    if args.out or args.json:
        text = _json_text(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        if args.json:
            print(text)
            return
    for line in lines:
        print(line)


def _check_lines(checks):
    out = []
    for c in checks:
        line = "%s %s" % ("PASS" if c["pass"] else "FAIL", c["name"])
        if c.get("instance"):
            line += " [%s]" % c["instance"]
        if c.get("detail"):
            line += ": %s" % c["detail"]
        out.append(line)
    return out


def _exit_from(doc):
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    ladder = _load_ladder(args.instance)
    diags = ladder.validate()
    for d in diags:
        _warn(d.text())
    doc = {
        "schema": "laddergb-report/1",
        "instance": ladder.to_json(),
        "diagnostics": [
            {
                "level": d.level,
                "message": d.message,
                "cell": list(d.cell) if d.cell else None,
            }
            for d in diags
        ],
        "pass": not errors_of(diags),
    }
    lines = [
        "instance %s: %d cells, %d variables, %d regions"
        % (
            ladder.canon(),
            len(ladder.cells()),
            len(ladder.variables()),
            len(ladder.regions()),
        ),
        "diagnostics: %d error(s), %d warning(s)"
        % (len(errors_of(diags)), len(diags) - len(errors_of(diags))),
    ]
    _emit(doc, args, lines)
    return 0 if doc["pass"] else 2


def _cmd_generators(args):
    ladder, order, field = _instance(args)
    gens = natural_generators(ladder, field, order)
    doc = {
        "schema": "laddergb-report/1",
        "instance": ladder.to_json(),
        "order": order.kind,
        "field": field.name,
        "count": len(gens),
        "generators": [
            {
                "degree": p_degree(g),
                "leading": mono_text(leading_term(g, order)[0], order),
                "terms": len(g),
                "text": poly_text(g, order, field),
            }
            for g in gens
        ],
    }
    lines = ["%d generators (%s order, field %s)" % (len(gens), order.kind, field.name)]
    for k, g in enumerate(gens):
        lines.append("g%d = %s" % (k + 1, poly_text(g, order, field)))
    _emit(doc, args, lines)
    return 0


def _cmd_groebner_check(args):
    ladder, order, field = _instance(args)
    gens = natural_generators(ladder, field, order)
    checks = groebner_checks(gens, order, field, args.budget_spairs)
    doc = _report(ladder, checks)
    _emit(doc, args, _check_lines(checks))
    return _exit_from(doc)


def _cmd_initial(args):
    ladder, order, ideal = _initial(args)
    check = squarefree_check(ideal)
    check["detail"] = "%d minimal generators" % len(ideal.gens)
    checks = [check]
    doc = _report(ladder, checks)
    doc["initial"] = sorted(mono_text(g, order) for g in ideal.gens)
    lines = ["initial ideal (%s order): %d minimal generators" % (order.kind, len(ideal.gens))]
    lines.extend("  " + t for t in doc["initial"])
    lines.extend(_check_lines(checks))
    _emit(doc, args, lines)
    return _exit_from(doc)


def _cmd_height(args):
    ladder, _, ideal = _initial(args)
    check, codim = height_check(ladder, ideal, {})
    checks = [check]
    doc = _report(ladder, checks)
    doc["height"] = ladder.height_formula()
    doc["codimension"] = codim
    _emit(doc, args, _check_lines(checks))
    return _exit_from(doc)


def _cmd_vd(args):
    ladder, order, ideal = _initial(args)
    cx = SimplicialComplex.from_squarefree(ideal, order.cell)
    checks, cert = vd_checks(cx, args.budget_faces)
    doc = _report(ladder, checks)
    if cert is not None:
        doc["certificate"] = vd_cert_to_json(cert)
    _emit(doc, args, _check_lines(checks))
    return _exit_from(doc)


def _cmd_chain(args):
    ladder = _checked_ladder(args.instance)
    field = field_by_name(args.field)
    chain = Chain(ladder, field)
    _, cert = is_vertex_decomposable(
        chain.node_complex(chain.top_canon), args.budget_faces
    )
    doc = chain_certificate(chain, cert)
    lines = ["chain with %d nodes (%d steps)" % (len(chain.sequence), len(chain.steps()))]
    for node in doc["nodes"]:
        tag = "terminal" if node["terminal"] else "corner (%d, %d)" % tuple(node["cell"])
        lines.append(
            "  %s: height %d, %d initial monomials, %s"
            % (node["id"], node["height"], len(node["initial"]), tag)
        )
    _emit(doc, args, lines)
    return 0


def _cmd_verify(args):
    ladder = _checked_ladder(args.instance)
    field = field_by_name(args.field)
    report, _, _ = verify_family(
        ladder,
        field,
        max_spairs=args.budget_spairs,
        max_faces=args.budget_faces,
    )
    lines = _check_lines(report["checks"])
    lines.append("VERDICT: %s" % ("pass" if report["pass"] else "FAIL"))
    _emit(report, args, lines)
    return _exit_from(report)


def _cmd_replay(args):
    cert = _load_json(args.instance)
    if not isinstance(cert, dict) or cert.get("schema") != "laddergb-chain/1":
        raise LadderError(
            "not a chain certificate (expected schema laddergb-chain/1)"
        )
    field = field_by_name(args.field)
    report = replay_chain(cert, field)
    lines = _check_lines(report["checks"])
    lines.append("VERDICT: %s" % ("pass" if report["pass"] else "FAIL"))
    _emit(report, args, lines)
    return _exit_from(report)


_COMMANDS = {
    "validate": _cmd_validate,
    "generators": _cmd_generators,
    "groebner-check": _cmd_groebner_check,
    "initial": _cmd_initial,
    "height": _cmd_height,
    "vd": _cmd_vd,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "replay": _cmd_replay,
}


# Options that some subcommands take, and the subcommands that read them;
# any other subcommand rejects them.
_FLAGS = {
    "--order": {
        "choices": sorted(_ORDER_KINDS),
        "help": "term order override (default: the family's conventional order)",
    },
    "--field": {
        "default": "q",
        "help": "coefficient field: q (rationals) or gf:P (prime field)",
    },
    "--budget-spairs": {
        "type": int,
        "help": "abort Buchberger passes after this many S-pair reductions",
    },
    "--budget-faces": {
        "type": int,
        "help": "abort decomposability search after visiting this many complexes",
    },
}
_INT_FLAGS = ("--budget-spairs", "--budget-faces")
_RING = ("--order", "--field")
_READS = {
    "validate": (),
    "generators": _RING,
    "groebner-check": _RING + ("--budget-spairs",),
    "initial": _RING,
    "height": _RING,
    "vd": _RING + ("--budget-faces",),
    "chain": ("--field", "--budget-faces"),
    "verify": ("--field", "--budget-spairs", "--budget-faces"),
    "replay": ("--field",),
}


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "instance", help="path to a JSON instance (or certificate, for replay)"
    )
    common.add_argument("--out", default=None, help="write the JSON document here")
    common.add_argument(
        "--json", action="store_true", help="print the JSON document to stdout"
    )
    p = argparse.ArgumentParser(
        prog="laddergb",
        description="Exact Groebner and liaison-chain verification "
        "for ladder determinantal and pfaffian ideals.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    helps = {
        "validate": "structural diagnostics for an instance file",
        "generators": "list the natural generators",
        "groebner-check": "fixed-point and reduced-basis verdicts",
        "initial": "minimalized initial ideal and squarefree flag",
        "height": "height formula against the initial codimension",
        "vd": "vertex-decomposability verdict plus certificate",
        "chain": "corner-removal chain certificate",
        "verify": "full verification report for one instance",
        "replay": "re-check a previously written chain certificate",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, parents=[common], help=helps[name])
        for flag in _READS[name]:
            cmd.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    for flag in _INT_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value <= 0:
            _warn("%s must be positive" % flag)
            return 2
    try:
        return _COMMANDS[args.subcommand](args)
    except BudgetExceeded as e:
        _warn(str(e))
        return 3
    except (LadderError, PreconditionError) as e:
        _warn(str(e))
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        _warn(str(e))
        return 2
    except ValueError as e:
        _warn(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
