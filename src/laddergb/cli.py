"""Command line front end.

Every subcommand reads a ladder instance (or certificate) from a JSON
file, runs one pipeline, prints a human-readable summary to stdout (or
the JSON document itself with --json) and optionally writes the JSON
document to --out, streaming it a chunk at a time (_stream).
Diagnostics always go to stderr.

The pipelines are the library's: this module handles arguments and
printing only.  linkage.initial_ideal builds initial, height and vd's
ideal under either order; linkage.vd_certificate decides chain's
decomposability certificate, as verify_family does; replay_chain checks
a certificate's schema; and linkage.report builds every report
document.

The subcommands, their help and the options each reads are the table
_COMMANDS.

Exit codes: 0 every check passed; 1 some claim check failed; 2 invalid
input or instance; 3 a configured budget ran out.
"""

import argparse
import itertools
import json
import sys
from json.encoder import encode_basestring as _encode_str
from types import GeneratorType

from .complexes import SimplicialComplex
from .errors import BudgetExceeded, LadderError
from .families import natural_generators
from .fields import field_by_name
from .ladders import errors_of, ladder_from_json
from .linkage import (
    Chain,
    chain_certificate,
    groebner_checks,
    height_check,
    initial_ideal,
    node_records,
    replay_chain,
    report,
    squarefree_check,
    vd_certificate,
    vd_checks,
    verify_family,
)
from .matrices import order_for
from .monomials import hilbert_numerator
from .poly import leading_term, mono_text, p_degree, poly_text

_ORDER_KINDS = {"diag": "diagonal", "antidiag": "antidiagonal"}


def _warn(msg):
    print("laddergb: %s" % msg, file=sys.stderr)


def _load_json(path, object_hook=None):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=object_hook)


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


# exact types json writes without its encoder; other scalars (floats,
# subclasses) go through json.dumps
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write_json(value, pad, put, spill):
    """Put value's text in pieces; pad is the newline and indent of its
    line.  A generator is written as the list of what it yields, each
    item as it comes.  A container writes its scalar items itself, and
    calls spill after each nested one."""
    if isinstance(value, dict):
        items, open_, close = sorted(value.items()), "{", "}"
    elif isinstance(value, (list, tuple, GeneratorType)):
        items, open_, close = value, "[", "]"
    else:
        scalar = _SCALARS.get(type(value))
        put(json.dumps(value) if scalar is None else scalar(value))
        return
    inner = pad + "  "
    first = sep = open_ + inner
    for item in items:
        if open_ == "{":
            sep += _encode_str(item[0]) + ": "
            item = item[1]
        scalar = _SCALARS.get(type(item))
        if scalar is None:
            put(sep)
            _write_json(item, inner, put, spill)
            spill()
        else:
            put(sep + scalar(item))
        sep = "," + inner
    put(open_ + close if sep == first else pad + close)


# pieces of JSON text _stream holds before it writes them out
_CHUNK = 4096


def _stream(doc, writes):
    """Write json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    and a newline through each of writes, byte for byte, for a document
    whose keys are strings.  json.dumps falls back to its pure-Python
    encoder whenever indent is set; here the layout is written directly,
    strings go through the C string encoder and any scalar but a str,
    int, bool or None through json.dumps.  The pieces are joined and
    written once more than _CHUNK of them wait, which is checked after
    each nested container, so the text is never held whole."""
    buf = []

    def spill(least=_CHUNK):
        if len(buf) > least:
            text = "".join(buf)
            buf.clear()
            for write in writes:
                write(text)

    _write_json(doc, "\n", buf.append, spill)
    buf.append("\n")
    spill(0)


def _emit(doc, args, lines):
    """Write doc to --out and print it for --json, encoding it only then;
    print the text lines, an iterable read only here, otherwise."""
    writes = [sys.stdout.write] if args.json else []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _stream(doc, [fh.write] + writes)
    elif writes:
        _stream(doc, writes)
    if not writes:
        for line in lines:
            print(line)


def _check_lines(checks):
    for c in checks:
        line = "%s %s" % ("PASS" if c["pass"] else "FAIL", c["name"])
        if c.get("instance"):
            line += " [%s]" % c["instance"]
        if c.get("detail"):
            line += ": %s" % c["detail"]
        yield line


def _exit_from(doc):
    return 0 if doc["pass"] else 1


def _emit_verdict(doc, args):
    """Emit a report with its check lines and a closing verdict line."""
    verdict = "VERDICT: %s" % ("pass" if doc["pass"] else "FAIL")
    _emit(doc, args, itertools.chain(_check_lines(doc["checks"]), [verdict]))
    return _exit_from(doc)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    ladder = _load_ladder(args.instance)
    diags = ladder.validate()
    for d in diags:
        _warn(d.text())
    doc = report(
        ladder.to_json(),
        None,
        diagnostics=[
            {
                "level": d.level,
                "message": d.message,
                "cell": list(d.cell) if d.cell else None,
            }
            for d in diags
        ],
    )
    doc["pass"] = not errors_of(diags)
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
    doc = report(
        ladder.to_json(),
        None,
        order=order.kind,
        field=field.name,
        count=len(gens),
        generators=[
            {
                "degree": p_degree(g),
                "leading": mono_text(leading_term(g, order)[0], order),
                "terms": len(g),
                "text": poly_text(g, order, field),
            }
            for g in gens
        ],
    )
    lines = ["%d generators (%s order, field %s)" % (len(gens), order.kind, field.name)]
    for k, g in enumerate(gens):
        lines.append("g%d = %s" % (k + 1, poly_text(g, order, field)))
    _emit(doc, args, lines)
    return 0


def _cmd_groebner_check(args):
    ladder, order, field = _instance(args)
    gens = natural_generators(ladder, field, order)
    checks = groebner_checks(gens, order, field, args.budget_spairs)
    doc = report(ladder.to_json(), checks)
    _emit(doc, args, _check_lines(checks))
    return _exit_from(doc)


def _cmd_initial(args):
    ladder, order, ideal = _initial(args)
    check = squarefree_check(ideal)
    check["detail"] = "%d minimal generators" % len(ideal.gens)
    checks = [check]
    initial = sorted(mono_text(g, order) for g in ideal.gens)
    doc = report(ladder.to_json(), checks, initial=initial)
    lines = ["initial ideal (%s order): %d minimal generators" % (order.kind, len(ideal.gens))]
    lines.extend("  " + t for t in initial)
    lines.extend(_check_lines(checks))
    _emit(doc, args, lines)
    return _exit_from(doc)


def _cmd_height(args):
    ladder, _, ideal = _initial(args)
    check, codim = height_check(ladder, hilbert_numerator(ideal.gens))
    checks = [check]
    doc = report(
        ladder.to_json(), checks, height=ladder.height_formula(), codimension=codim
    )
    _emit(doc, args, _check_lines(checks))
    return _exit_from(doc)


def _cmd_vd(args):
    ladder, order, ideal = _initial(args)
    # an ideal that is not squarefree has no complex: the instance is
    # valid, so the claim fails, as initial reports it
    if ideal.is_squarefree():
        cx = SimplicialComplex.from_squarefree(ideal, order.cell)
        checks, cert = vd_checks(cx, args.budget_faces)
    else:
        checks, cert = [squarefree_check(ideal)], None
    doc = report(ladder.to_json(), checks)
    if cert is not None:
        doc["certificate"] = cert
    _emit(doc, args, _check_lines(checks))
    return _exit_from(doc)


def _cmd_chain(args):
    ladder = _checked_ladder(args.instance)
    field = field_by_name(args.field)
    chain = Chain(ladder, field)
    vd = vd_certificate(chain, args.budget_faces)
    # the text lines read the chain itself: the certificate, every node's
    # record with its monomial texts, is built only to be written, and
    # its node records one at a time, as the writer takes them
    doc = None
    if args.json or args.out:
        doc = chain_certificate(chain, vd, node_records(chain))
    _emit(doc, args, _chain_lines(chain))
    return 0


def _chain_lines(chain):
    yield "chain with %d nodes (%d steps)" % (len(chain.sequence), len(chain.steps()))
    for canon in chain.sequence:
        node = chain.nodes[canon]
        tag = "terminal" if node.cell is None else "corner (%d, %d)" % node.cell
        yield "  %s: height %d, %d initial monomials, %s" % (
            canon,
            node.ladder.height_formula(),
            len(chain.initial_ideal(canon).gens),
            tag,
        )


def _cmd_verify(args):
    ladder = _checked_ladder(args.instance)
    field = field_by_name(args.field)
    doc, _, _ = verify_family(
        ladder,
        field,
        max_spairs=args.budget_spairs,
        max_faces=args.budget_faces,
    )
    return _emit_verdict(doc, args)


def _cmd_replay(args):
    cert = _load_json(args.instance, _one_text())
    return _emit_verdict(replay_chain(cert, field_by_name(args.field)), args)


def _one_text():
    """A json.load object_hook that holds each monomial text once, as a
    chain certificate renders each once: each string of an object's
    initial list becomes the first equal string it read.  Any other
    entry, or an initial that is not a list, is left as it is for replay
    to judge."""
    texts = {}

    def hook(obj):
        initial = obj.get("initial")
        if type(initial) is list:
            obj["initial"] = [
                texts.setdefault(t, t) if type(t) is str else t for t in initial
            ]
        return obj

    return hook


# Options that some subcommands take; _COMMANDS names the ones each reads,
# and any other subcommand rejects them.
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
        "help": "abort the decomposability search after visiting this many "
        "complexes; chain and verify search only where the chain is not "
        "itself a certificate",
    },
}
_RING = ("--order", "--field")
# subcommand -> (handler, help, the options of _FLAGS it reads)
_COMMANDS = {
    "validate": (_cmd_validate, "structural diagnostics for an instance file", ()),
    "generators": (_cmd_generators, "list the natural generators", _RING),
    "groebner-check": (_cmd_groebner_check, "fixed-point and reduced-basis verdicts",
                       _RING + ("--budget-spairs",)),
    "initial": (_cmd_initial, "minimalized initial ideal and squarefree flag", _RING),
    "height": (_cmd_height, "height formula against the initial codimension", _RING),
    "vd": (_cmd_vd, "vertex-decomposability verdict plus certificate",
           _RING + ("--budget-faces",)),
    "chain": (_cmd_chain, "corner-removal chain certificate",
              ("--field", "--budget-faces")),
    "verify": (_cmd_verify, "full verification report for one instance",
               ("--field", "--budget-spairs", "--budget-faces")),
    "replay": (_cmd_replay, "re-check a previously written chain certificate",
               ("--field",)),
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
    for name, (_, help_, reads) in _COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=help_)
        for flag in reads:
            cmd.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    for flag, spec in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if spec.get("type") is int and value is not None and value <= 0:
            _warn("%s must be positive" % flag)
            return 2
    try:
        return _COMMANDS[args.subcommand][0](args)
    except BudgetExceeded as e:
        _warn(str(e))
        return 3
    # LadderError, PreconditionError, json.JSONDecodeError and
    # UnicodeDecodeError are all ValueErrors: invalid input
    except (OSError, ValueError) as e:
        _warn(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
