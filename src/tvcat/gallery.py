"""The bundled example suite: named (quantale, monad) worlds with sample
structures and committed expected verdicts.

Verdicts live in data/gallery.json, not in code; the runner recomputes every
check deterministically and compares.  A mismatch between computed and
committed verdicts is a regression and fails the run.
"""

from __future__ import annotations

import json
import os

from .categories import (TVStructure, check_category, discrete,
                         find_representation, from_order, separated,
                         structure_on, v_hom_xi)
from .exponential import check_exponentiability
from .limits import DEFAULT_GUARD_SIZE, GuardError, guard_limit
from .monads import check_monad_laws, monad_by_name
from .quantale import (FormatError, check_condition_inj, check_quantale,
                       guard_condition_inj, quantale_by_name)
from .report import FAIL, PASS
from .theory import LaxExtension, check_assumptions_bundle
from .presheaf import (NotSeparated, build_presheaf_category, certify_injective,
                       check_yoneda)

DATA_PATH = os.path.join(os.path.dirname(__file__), "data", "gallery.json")


def load_gallery(path: str | None = None) -> list:
    with open(path or DATA_PATH, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) and all(
            isinstance(e.get(k), str) for k in ("name", "quantale", "monad"))
            for e in entries):
        raise FormatError("gallery entries need a name, a quantale and a monad")
    specs = [e.get("structures", []) for e in entries]
    if not all(isinstance(sps, list) and all(
            isinstance(sp, dict) and isinstance(sp.get("name"), str) and (
                sp.get("kind") == "v_hom_xi" or isinstance(sp.get("carrier"), list))
            for sp in sps) for sps in specs):
        raise FormatError("gallery structures are a list, each with a name and, "
                          "unless of kind v_hom_xi, a carrier list")
    for sp in (sp for sps in specs for sp in sps
               if sp.get("kind") in ("discrete", "order")):
        if not sp["carrier"] or not all(isinstance(x, str) for x in sp["carrier"]):
            raise FormatError("%s structure %r needs a nonempty carrier of "
                              "strings" % (sp["kind"], sp["name"]))
        pairs = sp.get("pairs", []) if sp["kind"] == "order" else []
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2
                and all(x in sp["carrier"] for x in p) for p in pairs):
            raise FormatError("order structure %r needs its pairs as a list of "
                              "two-element lists over its carrier" % sp["name"])
    return entries


def _build_structure(ext: LaxExtension, spec: dict) -> TVStructure:
    kind = spec.get("kind", "explicit")
    if kind == "v_hom_xi":
        return v_hom_xi(ext)
    if kind == "discrete":
        return discrete(ext, tuple(spec["carrier"]))
    if kind == "order":
        return from_order(ext, tuple(spec["carrier"]),
                          {tuple(p) for p in spec.get("pairs", [])})
    return structure_on(ext, spec["carrier"], spec.get("structure", {}))


def run_entry(entry: dict, seed: int = 0, guard: int | None = None) -> dict:
    # a lowered guard still admits bundled quantales and their assumptions
    floor = max(guard_limit(guard), DEFAULT_GUARD_SIZE)
    q = quantale_by_name(entry["quantale"], floor)
    guard_condition_inj(q, guard)
    monad = monad_by_name(entry["monad"])
    ext = LaxExtension(monad, q)
    out: dict = {"name": entry["name"], "quantale": check_quantale(q).status,
                 "condition_inj": None,  # run once: the bundle's, when it ran
                 "monad_laws": check_monad_laws(monad, ("x0", "x1"), q).status}
    if entry.get("assumptions", True):
        bundle = check_assumptions_bundle(
            ext, seed=seed, exhaustive=entry.get("exhaustive"), guard=floor)
        out["assumptions"] = bundle.details.get("verdicts")
    inj = (out.get("assumptions") or {}).get("condition_inj")
    out["condition_inj"] = (check_condition_inj(q).status if inj is None
                            else PASS if inj else FAIL)
    structures = {}
    for sp in entry.get("structures", []):
        s = _build_structure(ext, sp)
        verdict: dict = {}
        verdict["category"] = check_category(s).status
        verdict["separated"] = separated(s)
        verdict["exponentiability"] = check_exponentiability(s).status
        if sp.get("presheaf", True):
            try:
                px = build_presheaf_category(s, guard)
                verdict["presheaf_size"] = len(px.structure.carrier)
                verdict["yoneda"] = check_yoneda(s, px).status
                verdict["px_separated"] = separated(px.structure)
                if verdict["separated"]:
                    verdict["injective"] = certify_injective(
                        s, px, guard=guard).status
                    if verdict["injective"] == "pass":
                        rep = find_representation(s, guard)
                        verdict["representable"] = rep is not None
                try:
                    verdict["px_injective"] = certify_injective(
                        px.structure, guard=guard).status
                except GuardError:
                    verdict["px_injective"] = "skipped-guard"
            except (GuardError, NotSeparated) as exc:
                verdict["presheaf_skipped"] = type(exc).__name__
        structures[sp["name"]] = verdict
    if structures:
        out["structures"] = structures
    return out


def run_gallery(path: str | None = None, seed: int = 0,
                guard: int | None = None):
    """Run every entry; returns (all_match, results) where each result also
    records the diff against the committed verdicts."""
    entries = load_gallery(path)
    results = []
    all_match = True
    for entry in entries:
        got = run_entry(entry, seed=seed, guard=guard)
        expected = entry.get("expected", {})
        diff = _diff(expected, got)
        record = {"computed": got, "matches": not diff}
        if diff:
            record["diff"] = diff
            all_match = False
        results.append(record)
    return all_match, results


def _diff(expected, got, prefix=""):
    """Flat list of paths where committed and computed verdicts disagree;
    only keys present in the committed side are compared."""
    out = []
    if isinstance(expected, dict):
        for key, val in expected.items():
            where = "%s.%s" % (prefix, key) if prefix else str(key)
            if not isinstance(got, dict) or key not in got:
                out.append({"path": where, "expected": val, "computed": None})
            else:
                out.extend(_diff(val, got[key], where))
        return out
    if expected != got:
        out.append({"path": prefix, "expected": expected, "computed": got})
    return out
