"""Command-line front end: run any check or construction and emit
deterministic reports.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries the witness), 2 on usage or format errors (unknown files, malformed
JSON, guard violations), 3 on an internal error.  JSON output is byte-stable for fixed inputs and
flags; the text format is human-oriented and not stability-guaranteed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .categories import (check_category, check_graph, coproduct, dual,
                         find_representation, key_table, product, reflect_R,
                         separated, structure_entries, structure_from_file,
                         tensor)
from .exponential import (NotTransitive, check_exponentiability,
                          check_frame_criterion, check_universal_property,
                          curry, exponential_in_cats)
from .gallery import DATA_PATH, run_gallery
from .limits import GuardError, guard_limit
from .monads import check_bc_samples, check_monad_laws, monad_by_name, monad_from_dict
from .presheaf import (NotSeparated, build_presheaf_category, check_yoneda,
                       find_sup, injective_report, weak_exponential)
from .quantale import (FormatError, Quantale, check_condition_inj,
                       check_quantale, guard_condition_inj, quantale_by_name)
from .theory import LaxExtension, check_assumptions_bundle

SCHEMA = 1


# ---- input loading ----

def _load_monad(spec: str):
    if spec.endswith(".json") or os.path.sep in spec:
        with open(spec, "r", encoding="utf-8") as fh:
            return monad_from_dict(json.load(fh))
    return monad_by_name(spec)


def _load_map(spec: str, zs: tuple, xs: tuple) -> dict:
    """A map Z x X -> Y as JSON {'z;x': 'y'}, inline or from a file; keys
    are looked up among the texts of the pairs and must name each once."""
    if spec.lstrip().startswith("{"):
        raw = json.loads(spec)
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise FormatError("a map is a JSON object {'z;x': 'y'}")
    keys = key_table(zs, xs)
    out = {}
    for key, val in raw.items():
        if key not in keys:
            raise FormatError("map key %r is not 'z;x' over the carriers" % key)
        out[keys[key]] = val
    missing = [key for key, zx in keys.items() if zx not in out]
    if missing:
        raise FormatError("map misses the key %r" % missing[0])
    return out


def _structure_payload(s, full: bool = True) -> dict:
    out = {"carrier": [str(x) for x in s.carrier],
           "carrier_size": len(s.carrier),
           "t_carrier_size": len(s.tx)}
    if full:
        out["structure"] = structure_entries(s)
    return out


# ---- command actions: each gets the parsed arguments and the loaded
# structure files, and returns (exit_code, payload) ----

def _finish(reports: list, **extra):
    code = 0 if all(r.passed for r in reports) else 1
    payload = {"reports": [r.to_dict() for r in reports]}
    payload.update(extra)
    return code, payload


def _result(s, full: bool = True, **extra):
    """A constructed structure with its category report."""
    return _finish([check_category(s)], result=_structure_payload(s, full),
                   **extra)


def _quantale_check(args):
    q = quantale_by_name(args.quantale, args.guard_size)
    guard_condition_inj(q, args.guard_size)
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


def _search_cond2(args):
    """Exhaust small chain quantales and report their condition verdicts.
    The tensor tables are counted against the guard as they are generated,
    since their number is not known beforehand."""
    if args.max_size < 2:
        raise FormatError("--max-size must be at least 2, got %d" % args.max_size)
    limit = guard_limit(args.guard_size)
    found = []
    candidates = 0
    quantales = 0
    for n in range(2, args.max_size + 1):
        labels = tuple(str(i) for i in range(n))
        leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
        for table in _chain_tensors(n):
            candidates += 1
            if candidates > limit:
                raise GuardError("chain tensor enumeration", candidates, limit,
                                 exact=False)
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


def _monad_check(args):
    monad = _load_monad(args.monad)
    carrier = tuple(args.carrier.split(","))
    if "" in carrier or len(set(carrier)) != len(carrier):
        raise FormatError("--carrier needs distinct nonempty points, got %r"
                          % args.carrier)
    q = quantale_by_name(args.quantale, args.guard_size) if args.quantale else None
    laws = check_monad_laws(monad, carrier, q, guard=args.guard_size)
    return _finish([laws, check_bc_samples(monad)], monad=repr(monad))


def _theory_check(args):
    q = quantale_by_name(args.quantale, args.guard_size)
    ext = LaxExtension(_load_monad(args.monad), q)
    return _finish([check_assumptions_bundle(ext, seed=args.seed,
                                             exhaustive=args.exhaustive,
                                             guard=args.guard_size)])


def _reflect(args, s):
    out, eta = reflect_R(s)
    return _result(out, eta={str(x): str(eta.map[x]) for x in s.carrier},
                   separated=separated(out))


def _represent(args, s):
    found = find_representation(s, guard=args.guard_size)
    if found is None:
        return 1, {"representable": False, "reports": []}
    alpha, rep = found
    return _finish([rep], representable=True,
                   alpha={s.monad.elem_to_str(t): str(x)
                          for t, x in sorted(alpha.items(),
                                             key=lambda kv: str(kv[0]))})


def _exp_build(args, sx, sy):
    try:
        exp = exponential_in_cats(sx, sy, guard=args.guard_size)
    except NotTransitive as exc:
        return 1, {"reports": [{"check": "exponential", "status": "fail",
                                "law": exc.law,
                                "witness": [str(w) for w in exc.witness]}]}
    return _result(exp.structure, full=False)


def _criterion(args, s):
    reports = [check_exponentiability(s)]
    if s.quantale.is_frame():
        reports.append(check_frame_criterion(s, reports[0]))
    return _finish(reports)


def _curry(args, sz, sx, sy):
    fmap = _load_map(args.map, sz.carrier, sx.carrier)
    exp = exponential_in_cats(sx, sy, guard=args.guard_size)
    fbar = curry(fmap, sz, exp)
    return _finish([check_universal_property(exp, fmap, sz)],
                   curried={str(z): list(fbar.map[z]) for z in sz.carrier})


def _psh_build(args, s):
    px = build_presheaf_category(s, guard=args.guard_size).structure
    return _result(px, full=False, separated=separated(px),
                   guard=args.guard_size)


def _yoneda(args, s):
    px = build_presheaf_category(s, guard=args.guard_size)
    return _finish([check_yoneda(s, px)],
                   presheaf_size=len(px.structure.carrier))


def _injective(args, s):
    px = build_presheaf_category(s, guard=args.guard_size)
    supf = find_sup(s, px, guard=args.guard_size)
    extra = {"presheaf_size": len(px.structure.carrier)}
    if supf is not None:
        extra["sup"] = {str(psi): str(x) for psi, x in sorted(
            supf.map.items(), key=lambda kv: str(kv[0]))}
    return _finish([injective_report(s, supf)], **extra)


def _weak_exp(args, sx, sy):
    wexp = weak_exponential(sx, sy, guard=args.guard_size)
    return _finish([check_category(wexp.structure)],
                   carrier_size=len(wexp.structure.carrier),
                   px_size=len(wexp.px.structure.carrier),
                   py_size=len(wexp.py.structure.carrier),
                   guard=args.guard_size)


def _gallery_run(args):
    all_match, results = run_gallery(args.data or DATA_PATH, seed=args.seed,
                                     guard=args.guard_size)
    return (0 if all_match else 1), {"matches": all_match, "results": results}


# ---- the command table ----
#
# One row per command: group, command, structure-file arguments, other
# arguments as (flag, argparse keywords), action.  A structure-file argument
# is positional, or a required option when it starts with "--"; main()
# loads the files in row order and passes the structures to the action.

REQUIRED = {"required": True}
FILE = ("file",)
PAIR = ("left", "right")

COMMANDS = (
    ("quantale", "check", (), [("quantale", {})], _quantale_check),
    ("quantale", "search-cond2", (),
     [("--max-size", {"type": int, "default": 3})], _search_cond2),
    ("monad", "check", (),
     [("monad", {}), ("--carrier", {"default": "x0,x1"}),
      ("--quantale", {"default": None})], _monad_check),
    ("theory", "check-assumptions", (),
     [("--quantale", REQUIRED), ("--monad", REQUIRED),
      ("--exhaustive", {"action": "store_true", "default": None})],
     _theory_check),
    ("cat", "check", FILE, [], lambda args, s: _finish(
        [check_graph(s), check_category(s)], separated=separated(s))),
    ("cat", "reflect", FILE, [], _reflect),
    ("cat", "dual", FILE, [], lambda args, s: _result(dual(s, args.guard_size))),
    ("cat", "represent", FILE, [], _represent),
    ("cat", "product", PAIR, [], lambda args, sx, sy: _result(product(sx, sy)[0])),
    ("cat", "tensor", PAIR, [], lambda args, sx, sy: _result(tensor(sx, sy))),
    ("cat", "coproduct", PAIR, [],
     lambda args, sx, sy: _result(coproduct(sx, sy)[0])),
    ("exp", "build", PAIR, [], _exp_build),
    ("exp", "criterion", FILE, [], _criterion),
    ("exp", "curry", ("--z", "--x", "--y"), [("--map", REQUIRED)], _curry),
    ("psh", "build", FILE, [], _psh_build),
    ("psh", "yoneda", FILE, [], _yoneda),
    ("psh", "injective", FILE, [], _injective),
    ("psh", "weak-exp", PAIR, [], _weak_exp),
    ("gallery", "run", (), [("--data", {"default": None})], _gallery_run),
)


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

class _Parser(argparse.ArgumentParser):
    """A usage error is one "error: ..." line and exit 2, like a malformed
    file; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--guard-size", type=int, default=None)
    common.add_argument("--replay", default=None, metavar="WITNESS_JSON")

    top = _Parser(prog="tvcat", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    commands = {}
    for group, cmd, files, options, action in COMMANDS:
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(
                dest="cmd", required=True)
        p = commands[group].add_parser(cmd, parents=[common])
        for name in files:
            p.add_argument(name, **(REQUIRED if name.startswith("--") else {}))
        for name, kwargs in options:
            p.add_argument(name, **kwargs)
        p.set_defaults(files=[name.lstrip("-") for name in files], action=action)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.guard_size is not None and args.guard_size < 0:
            raise FormatError("--guard-size must be a non-negative integer, "
                              "got %r" % str(args.guard_size))
        structures = [structure_from_file(getattr(args, name), args.guard_size)
                      for name in args.files]
        for s in structures[1:]:
            if s.quantale != structures[0].quantale:
                raise FormatError("the structure files are over different "
                                  "quantales")
            if s.monad.describe() != structures[0].monad.describe():
                raise FormatError("the structure files are over different monads")
        code, payload = args.action(args, *structures)
    except (FormatError, GuardError, NotSeparated, OSError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3
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
