"""Command-line front end: run any check or construction and emit
deterministic reports.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries the witness), 2 on usage or format errors (unknown files, malformed
JSON, guard violations).  JSON output is byte-stable for fixed inputs and
flags; the text format is human-oriented and not stability-guaranteed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .categories import (check_category, check_graph, coproduct, dual,
                         find_representation, product, reflect_R, separated,
                         structure_entries, structure_from_file, tensor)
from .exponential import (NotTransitive, check_exponentiability,
                          check_frame_criterion, check_universal_property,
                          curry, exponential_in_cats)
from .gallery import DATA_PATH, run_gallery
from .limits import GuardError
from .monads import check_bc_samples, check_monad_laws, monad_by_name, monad_from_dict
from .presheaf import (NotSeparated, build_presheaf_category, certify_injective,
                       check_yoneda, find_sup, weak_exponential)
from .quantale import (FormatError, Quantale, check_condition_inj,
                       check_quantale, quantale_by_name)
from .theory import LaxExtension, check_assumptions_bundle

SCHEMA = 1


# ---- input loading ----

def _load_monad(spec: str, max_word_len: int):
    if spec == "word":
        spec = "word:%d" % max_word_len
    if spec.endswith(".json") or os.path.sep in spec:
        with open(spec, "r", encoding="utf-8") as fh:
            return monad_from_dict(json.load(fh))
    return monad_by_name(spec)


def _load_map(spec: str) -> dict:
    """A map Z x X -> Y as JSON {'z;x': 'y'}, inline or from a file."""
    if spec.lstrip().startswith("{"):
        raw = json.loads(spec)
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    out = {}
    for key, val in raw.items():
        z, sep, x = key.partition(";")
        if not sep:
            raise FormatError("map key %r must look like 'z;x'" % key)
        out[(z, x)] = val
    return out


def _structure_payload(s, full: bool = True) -> dict:
    out = {"carrier": [str(x) for x in s.carrier],
           "carrier_size": len(s.carrier),
           "t_carrier_size": len(s.tx)}
    if full:
        out["structure"] = structure_entries(s)
    return out


# ---- subcommand bodies: each returns (exit_code, payload) ----

def _finish(reports: list, **extra):
    code = 0 if all(r.passed for r in reports) else 1
    payload = {"reports": [r.to_dict() for r in reports]}
    payload.update(extra)
    return code, payload


def cmd_quantale_check(args):
    q = quantale_by_name(args.quantale)
    return _finish([check_quantale(q), check_condition_inj(q)],
                   quantale=q.name, size=q.n)


def _chain_tensors(n: int):
    """All commutative monotone unital tensor tables on the n-chain
    0 < 1 < ... < n-1 (so joins are max and bottom is 0); associativity is
    checked afterwards."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    def fill(idx, table):
        if idx == len(cells):
            yield [row[:] for row in table]
            return
        i, j = cells[idx]
        for v in range(n):
            # monotone against the already-filled smaller cells
            if i > 0 and table[i - 1][j] > v:
                continue
            if j > i and table[i][j - 1] > v:
                continue
            table[i][j] = table[j][i] = v
            yield from fill(idx + 1, table)
        table[i][j] = table[j][i] = None
    yield from fill(0, [[None] * n for _ in range(n)])


def cmd_quantale_search(args):
    """Exhaust small chain quantales and report their condition verdicts."""
    found = []
    candidates = 0
    quantales = 0
    for n in range(2, args.max_size + 1):
        labels = tuple(str(i) for i in range(n))
        leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
        for table in _chain_tensors(n):
            candidates += 1
            units = [k for k in range(n)
                     if all(table[k][u] == u for u in range(n))]
            if not units:
                continue
            q = Quantale(labels, leq, tuple(map(tuple, table)), units[0],
                         name="chain%d" % n)
            if not check_quantale(q).passed:
                continue
            quantales += 1
            verdict = check_condition_inj(q)
            if not verdict.passed:
                found.append({"size": n, "unit": labels[units[0]],
                              "tensor": {"%s,%s" % (labels[i], labels[j]):
                                         labels[table[i][j]]
                                         for i in range(n)
                                         for j in range(i, n)},
                              "witness": verdict.witness})
    return 0, {"candidates": candidates, "quantales": quantales,
               "condition_2_failures": found}


def cmd_monad_check(args):
    monad = _load_monad(args.monad, args.max_word_len)
    carrier = tuple(args.carrier.split(","))
    q = quantale_by_name(args.quantale) if args.quantale else None
    reports = [check_monad_laws(monad, carrier, q), check_bc_samples(monad)]
    return _finish(reports, monad=repr(monad))


def cmd_theory_check(args):
    q = quantale_by_name(args.quantale)
    monad = _load_monad(args.monad, args.max_word_len)
    ext = LaxExtension(monad, q)
    bundle = check_assumptions_bundle(ext, seed=args.seed,
                                      exhaustive=args.exhaustive)
    return _finish([bundle])


def cmd_cat_check(args):
    s = structure_from_file(args.file)
    return _finish([check_graph(s), check_category(s)],
                   separated=separated(s))


def _binary(args, op):
    sx = structure_from_file(args.left)
    sy = structure_from_file(args.right)
    built = op(sx, sy)
    s = built[0] if isinstance(built, tuple) else built
    return _finish([check_category(s)], result=_structure_payload(s))


def cmd_cat_product(args):
    return _binary(args, product)


def cmd_cat_tensor(args):
    return _binary(args, tensor)


def cmd_cat_coproduct(args):
    return _binary(args, coproduct)


def cmd_cat_reflect(args):
    s = structure_from_file(args.file)
    out, eta = reflect_R(s)
    return _finish([check_category(out)], result=_structure_payload(out),
                   eta={str(x): str(eta.map[x]) for x in s.carrier},
                   separated=separated(out))


def cmd_cat_dual(args):
    s = structure_from_file(args.file)
    op = dual(s)
    return _finish([check_category(op)], result=_structure_payload(op))


def cmd_cat_represent(args):
    s = structure_from_file(args.file)
    found = find_representation(s, guard=args.guard_size)
    if found is None:
        return 1, {"representable": False, "reports": []}
    alpha, rep = found
    return _finish([rep], representable=True,
                   alpha={s.monad.elem_to_str(t): str(x)
                          for t, x in sorted(alpha.items(),
                                             key=lambda kv: str(kv[0]))})


def cmd_exp_build(args):
    sx = structure_from_file(args.left)
    sy = structure_from_file(args.right)
    try:
        exp = exponential_in_cats(sx, sy, guard=args.guard_size)
    except NotTransitive as exc:
        return 1, {"reports": [{"check": "exponential", "status": "fail",
                                "law": exc.law,
                                "witness": [str(w) for w in exc.witness]}]}
    return _finish([check_category(exp.structure)],
                   result=_structure_payload(exp.structure, full=False))


def cmd_exp_criterion(args):
    sx = structure_from_file(args.file)
    reports = [check_exponentiability(sx)]
    if sx.quantale.is_frame():
        reports.append(check_frame_criterion(sx))
    return _finish(reports)


def cmd_exp_curry(args):
    sx = structure_from_file(args.x)
    sy = structure_from_file(args.y)
    sz = structure_from_file(args.z)
    fmap = _load_map(args.map)
    exp = exponential_in_cats(sx, sy, guard=args.guard_size)
    fbar = curry(fmap, sz, exp)
    rep = check_universal_property(exp, fmap, sz, guard=args.guard_size)
    return _finish([rep],
                   curried={str(z): list(fbar.map[z]) for z in sz.carrier})


def cmd_psh_build(args):
    s = structure_from_file(args.file)
    px = build_presheaf_category(s, guard=args.guard_size)
    return _finish([check_category(px.structure)],
                   result=_structure_payload(px.structure, full=False),
                   separated=separated(px.structure),
                   guard=args.guard_size)


def cmd_psh_yoneda(args):
    s = structure_from_file(args.file)
    px = build_presheaf_category(s, guard=args.guard_size)
    return _finish([check_yoneda(s, px)],
                   presheaf_size=len(px.structure.carrier))


def cmd_psh_injective(args):
    s = structure_from_file(args.file)
    px = build_presheaf_category(s, guard=args.guard_size)
    rep = certify_injective(s, px, guard=args.guard_size)
    extra = {"presheaf_size": len(px.structure.carrier)}
    if rep.passed:
        supf, _ = find_sup(s, px, guard=args.guard_size)
        extra["sup"] = {str(psi): str(x) for psi, x in sorted(
            supf.map.items(), key=lambda kv: str(kv[0]))}
    return _finish([rep], **extra)


def cmd_psh_weak_exp(args):
    sx = structure_from_file(args.left)
    sy = structure_from_file(args.right)
    wexp = weak_exponential(sx, sy, guard=args.guard_size)
    return _finish([check_category(wexp.structure)],
                   carrier_size=len(wexp.structure.carrier),
                   px_size=len(wexp.px.structure.carrier),
                   py_size=len(wexp.py.structure.carrier),
                   guard=args.guard_size)


def cmd_gallery_run(args):
    path = args.data or DATA_PATH
    all_match, results = run_gallery(path, seed=args.seed,
                                     guard=args.guard_size)
    return (0 if all_match else 1), {"matches": all_match, "results": results}


# ---- output ----

def _emit_text(payload: dict, out):
    for rep in payload.get("reports", []):
        line = "%s: %s" % (rep.get("check", "?"), rep.get("status", "?"))
        if "law" in rep:
            line += " [%s]" % rep["law"]
        if "samples" in rep:
            line += " (samples=%d)" % rep["samples"]
        print(line, file=out)
        if "witness" in rep:
            print("  witness: %s" % json.dumps(rep["witness"], sort_keys=True),
                  file=out)
        for key, val in sorted(rep.get("details", {}).items()):
            print("  %s: %s" % (key, json.dumps(val, sort_keys=True)), file=out)
    for key in sorted(payload):
        if key in ("reports", "schema", "command"):
            continue
        print("%s: %s" % (key, json.dumps(payload[key], sort_keys=True)),
              file=out)


def _emit(payload: dict, fmt: str, out):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=1), file=out)
    else:
        _emit_text(payload, out)


def _apply_replay(payload: dict, replay: str):
    """Re-evaluate a previously reported witness: the stored witness of the
    failing check must be reproduced verbatim by the present run."""
    target = json.loads(replay)
    hits = [rep for rep in payload.get("reports", [])
            if rep.get("witness") == target]
    payload["replay"] = {"witness": target, "reproduced": bool(hits)}
    return 0 if hits else 1


# ---- argument grammar ----

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--max-word-len", type=int, default=2)
    common.add_argument("--guard-size", type=int, default=None)
    common.add_argument("--replay", default=None, metavar="WITNESS_JSON")

    top = argparse.ArgumentParser(prog="tvcat", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    g = sub.add_parser("quantale").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("check", parents=[common])
    p.add_argument("quantale")
    p.set_defaults(fn=cmd_quantale_check)
    p = g.add_parser("search-cond2", parents=[common])
    p.add_argument("--max-size", type=int, default=3)
    p.set_defaults(fn=cmd_quantale_search)

    g = sub.add_parser("monad").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("check", parents=[common])
    p.add_argument("monad")
    p.add_argument("--carrier", default="x0,x1")
    p.add_argument("--quantale", default=None)
    p.set_defaults(fn=cmd_monad_check)

    g = sub.add_parser("theory").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("check-assumptions", parents=[common])
    p.add_argument("--quantale", required=True)
    p.add_argument("--monad", required=True)
    p.add_argument("--exhaustive", action="store_true", default=None)
    p.set_defaults(fn=cmd_theory_check)

    g = sub.add_parser("cat").add_subparsers(dest="cmd", required=True)
    for name, fn in (("check", cmd_cat_check), ("reflect", cmd_cat_reflect),
                     ("dual", cmd_cat_dual), ("represent", cmd_cat_represent)):
        p = g.add_parser(name, parents=[common])
        p.add_argument("file")
        p.set_defaults(fn=fn)
    for name, fn in (("product", cmd_cat_product), ("tensor", cmd_cat_tensor),
                     ("coproduct", cmd_cat_coproduct)):
        p = g.add_parser(name, parents=[common])
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(fn=fn)

    g = sub.add_parser("exp").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("build", parents=[common])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_exp_build)
    p = g.add_parser("criterion", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=cmd_exp_criterion)
    p = g.add_parser("curry", parents=[common])
    p.add_argument("--z", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_exp_curry)

    g = sub.add_parser("psh").add_subparsers(dest="cmd", required=True)
    for name, fn in (("build", cmd_psh_build), ("yoneda", cmd_psh_yoneda),
                     ("injective", cmd_psh_injective)):
        p = g.add_parser(name, parents=[common])
        p.add_argument("file")
        p.set_defaults(fn=fn)
    p = g.add_parser("weak-exp", parents=[common])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_psh_weak_exp)

    g = sub.add_parser("gallery").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("run", parents=[common])
    p.add_argument("--data", default=None)
    p.set_defaults(fn=cmd_gallery_run)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload = args.fn(args)
    except (FormatError, GuardError, NotSeparated, OSError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.replay is not None:
        try:
            code = _apply_replay(payload, args.replay)
        except json.JSONDecodeError as exc:
            print("error: --replay expects witness JSON: %s" % exc,
                  file=sys.stderr)
            return 2
    payload["schema"] = SCHEMA
    payload["command"] = "%s %s" % (args.group, args.cmd)
    _emit(payload, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
