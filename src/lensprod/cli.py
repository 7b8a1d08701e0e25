"""Command-line front end.

Usage:
    lensprod --n 1,1 --t inf ring --coeff Q
    lensprod --n 1,1 --t 2 report --json
    lensprod --n 1 --t 3 oracle

Commands: ring | steenrod | split | wedge | invariants | tseries | oracle |
report. Flags may appear before or after the command. Exit codes: 0 success,
1 oracle mismatch, 2 invalid input, 3 unsupported combination, 4 failed
internal cross-check, 141 stdout closed by its reader before all of the
output was written (as for SIGPIPE).
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import fgl, invariants, oracle, splittings, steenrod
from .algebra import Coeff, GF, INFINITY, QQ, TupleSpec, ZZ, is_prime, prime_factors
from .cohomology import build_ring, graded_groups, poincare_polynomial

__all__ = ["Query", "parse", "emit_report", "run", "main", "UsageError", "UnsupportedError"]

COMMANDS = (
    "ring",
    "steenrod",
    "split",
    "wedge",
    "invariants",
    "tseries",
    "oracle",
    "report",
)


HELP = """\
usage: lensprod [flags] <command> [flags]

commands:
  ring        basis, relations and Poincare polynomial / integral groups
  steenrod    total Steenrod squares on the F2 basis
  split       cartesian sphere-factor splitting
  wedge       stunted wedge summands after one suspension (+ verification)
  invariants  chi, chi*, Spin, parallelizability, cat/TC, span, immersion
  tseries     the series [t](z) of a formal group law
  oracle      Smith-normal-form homology vs the predicted ring
  report      everything above as one (JSON-able) document

flags:
  --n 1,2,2           nondecreasing tuple (--sort to sort it first)
  --t 4 | inf         torsion, or inf for the circle quotient
  --coeff Z|Q|F2|F:<p>
  --k <int>           bundle multiplicity for wedge
  --gd <int>          geometric dimension input for the immersion formula
  --span-base <int>   literature span of the bundle over the base factor
  --tc-override lo,hi base TC interval override
  --precision <int>   truncation for tseries (default 8)
  --law additive|multiplicative, --unit <int>   law selection for tseries
  --cap <int>         oracle basis-size guard (default 50000)
  --json              machine-readable output

exit codes: 0 ok, 1 oracle mismatch, 2 invalid input, 3 unsupported combination,
  4 internal cross-check failed, 141 stdout closed early
"""


class UsageError(Exception):
    """Invalid input: exit code 2."""


class UnsupportedError(Exception):
    """Valid input, unsupported combination: exit code 3."""


class Query(NamedTuple):
    command: str
    spec: TupleSpec | None
    dom: Coeff
    k: int = 0
    gd: int | None = None
    span_base: int | None = None
    tc_override: tuple[int, int] | None = None
    precision: int = 8
    law: str = "multiplicative"
    unit: int = 1
    json_out: bool = False
    cap: int = oracle.DEFAULT_CAP
    t: object = None  # kept for tseries queries without --n


def _parse_int(value: str, flag: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{flag} expects an integer, got {value!r}")


def _parse_coeff(text: str) -> Coeff:
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text == "F2":
        return GF(2)
    if text.startswith("F:"):
        p = _parse_int(text[2:], "--coeff F:<p>")
        if not is_prime(p):
            raise UsageError(f"--coeff F:{p}: {p} is not prime")
        return GF(p)
    raise UsageError(f"--coeff must be Z, Q, F2 or F:<p>, got {text!r}")


def parse(argv) -> Query:
    """Parse a command line into a validated Query."""
    args = list(argv)
    command = None
    flags: dict = {}
    bools = {"--json": "json_out", "--sort": "sort"}
    valued = {
        "--n": "n",
        "--t": "t",
        "--coeff": "coeff",
        "--k": "k",
        "--gd": "gd",
        "--span-base": "span_base",
        "--tc-override": "tc_override",
        "--precision": "precision",
        "--law": "law",
        "--unit": "unit",
        "--cap": "cap",
    }
    i = 0
    while i < len(args):
        a = args[i]
        if a in bools:
            flags[bools[a]] = True
        elif a in valued:
            if i + 1 >= len(args):
                raise UsageError(f"{a} needs a value")
            if valued[a] in flags:
                raise UsageError(f"{a} given twice")
            flags[valued[a]] = args[i + 1]
            i += 1
        elif a in COMMANDS:
            if command is not None:
                raise UsageError(f"two commands given: {command} and {a}")
            command = a
        else:
            raise UsageError(f"unrecognized argument {a!r}")
        i += 1
    if command is None:
        raise UsageError(f"no command given; expected one of {', '.join(COMMANDS)}")

    t = None
    if "t" in flags:
        t = INFINITY if flags["t"] == "inf" else _parse_int(flags["t"], "--t")
        if t != INFINITY and t < 1:
            raise UsageError("--t must be a positive integer or inf")

    spec = None
    if "n" in flags:
        if t is None:
            raise UsageError("--n needs --t")
        try:
            n = tuple(int(v) for v in flags["n"].split(","))
        except ValueError:
            raise UsageError(f"--n expects comma-separated integers, got {flags['n']!r}")
        try:
            spec = TupleSpec.make(n, t, sort=flags.get("sort", False))
        except ValueError as exc:
            raise UsageError(str(exc))
    elif command != "tseries":
        raise UsageError(f"command {command} needs --n and --t")
    elif t is None:
        raise UsageError("tseries needs --t")

    if "coeff" in flags:
        dom = _parse_coeff(flags["coeff"])
    elif command == "oracle":
        dom = ZZ
    elif command == "steenrod":
        dom = GF(2)
    elif t == INFINITY:
        dom = QQ
    elif t is not None and t % 2 == 0:
        dom = GF(2)
    elif t is not None and t > 1:
        dom = GF(prime_factors(t)[0])
    else:
        dom = QQ

    kw: dict = {}
    if "k" in flags:
        kw["k"] = _parse_int(flags["k"], "--k")
        if kw["k"] < 0:
            raise UsageError("--k must be non-negative")
    if "gd" in flags:
        kw["gd"] = _parse_int(flags["gd"], "--gd")
    if "span_base" in flags:
        kw["span_base"] = _parse_int(flags["span_base"], "--span-base")
    if "tc_override" in flags:
        parts = flags["tc_override"].split(",")
        if len(parts) != 2:
            raise UsageError("--tc-override expects lo,hi")
        kw["tc_override"] = (_parse_int(parts[0], "--tc-override"), _parse_int(parts[1], "--tc-override"))
    if "precision" in flags:
        kw["precision"] = _parse_int(flags["precision"], "--precision")
        if kw["precision"] < 0:
            raise UsageError("--precision must be non-negative")
    if "law" in flags:
        if flags["law"] not in ("additive", "multiplicative"):
            raise UsageError("--law must be additive or multiplicative")
        kw["law"] = flags["law"]
    if "unit" in flags:
        kw["unit"] = _parse_int(flags["unit"], "--unit")
    if "cap" in flags:
        kw["cap"] = _parse_int(flags["cap"], "--cap")
        if kw["cap"] < 1:
            raise UsageError("--cap must be positive")
    return Query(command, spec, dom, json_out=bool(flags.get("json_out", False)), t=t, **kw)


# ---------------------------------------------------------------------------
# serialization helpers


def _t_json(t):
    return "inf" if t == INFINITY else t


def _chi_star_json(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _span_json(info: invariants.SpanInfo) -> dict:
    return {
        "stablespan": info.stablespan,
        "span": info.span,
        "span_equals_stablespan": info.span_equals_stablespan,
        "clauses": list(info.clauses),
    }


def _imm_json(imm, gd) -> dict:
    if isinstance(imm, tuple):
        return {"gd": gd, "value": None, "interval": list(imm)}
    return {"gd": gd, "value": imm, "interval": None}


def _invariants_json(rep: invariants.InvariantReport) -> dict:
    return {
        "chi": rep.chi,
        "chi_star": _chi_star_json(rep.chi_star),
        "spin": rep.spin,
        "orientable": rep.orientable,
        "vector_field": rep.has_nonzero_field,
        "stably_parallelizable": rep.stably_parallelizable.json(),
        "parallelizable": rep.parallelizable.json(),
        "cat": list(rep.cat),
        "tc": list(rep.tc),
        "span": _span_json(rep.span),
        "imm": _imm_json(rep.imm, rep.gd_input),
    }


def _ring_json(spec: TupleSpec, dom: Coeff) -> dict:
    ring = build_ring(spec, dom)
    out: dict = {}
    if ring.is_field:
        out["poincare"] = list(poincare_polynomial(ring).coeffs)
    else:
        out["groups"] = [
            [d, f, list(t)] for d, f, t in graded_groups(ring).groups
        ]
    out["generators"] = [{"name": n, "degree": d} for n, d in ring.generators]
    out["relations"] = list(ring.relations)
    return out


def _steenrod_json(spec: TupleSpec) -> list:
    ring = build_ring(spec, GF(2))
    lines = []
    for m in ring.basis:
        total = steenrod.total_sq(ring, m)
        rhs = " + ".join(str(m2) for m2 in sorted(total)) if total else "0"
        lines.append(f"Sq({m}) = {rhs}")
    return lines


def _cartesian_json(spec: TupleSpec) -> dict:
    split = splittings.cartesian_split(spec)
    return {
        "factors": list(split.split_factors),
        "remainder": list(split.remainder.n),
        "statuses": [
            {
                "index": s.index,
                "status": "splits" if s.splits else f"unknown:{s.reason}",
                "rules": list(s.rules),
            }
            for s in split.statuses
        ],
    }


def _wedge_json(spec: TupleSpec, k: int, dom: Coeff) -> dict:
    summands = [
        {
            "sigma": list(w.sigma),
            "shift": w.shift,
            "top": w.top,
            "bottom": w.bottom,
        }
        for w in splittings.wedge_decomposition(spec, k)
    ]
    out = {"k": k, "summands": summands}
    if dom.is_field:
        check = splittings.verify_wedge(spec, k, dom)
        out["verified"] = check.ok
    return out


def _explain_mismatch(comparison: oracle.ComparisonReport, err) -> None:
    """The comparison summary, then one line per differing degree."""
    print(comparison, file=err)
    for d, th, orc, match in comparison.degrees:
        if not match:
            print(f"degree {d}: theory {[th[0], list(th[1])]} oracle {[orc[0], list(orc[1])]}", file=err)


def emit_report(query: Query, err=None) -> tuple[dict, int]:
    """The full JSON document for the report command; returns (doc, exit).
    An oracle mismatch is explained on err (default: stderr)."""
    spec, dom = query.spec, query.dom
    if not dom.is_field:
        raise UnsupportedError("report needs field coefficients (Q, F2 or F:<p>)")
    doc: dict = {
        "input": {"n": list(spec.n), "t": _t_json(spec.t), "coeff": str(dom)},
        "dim": spec.dim,
        "ring": _ring_json(spec, dom),
    }
    if dom == GF(2):
        doc["steenrod"] = _steenrod_json(spec)
    rep = invariants.invariant_report(
        spec, gd=query.gd, span_base=query.span_base, tc_override=query.tc_override
    )
    doc["invariants"] = _invariants_json(rep)
    doc["splittings"] = {
        "cartesian": _cartesian_json(spec),
        "wedge": _wedge_json(spec, query.k, dom)["summands"],
    }
    checked, match = False, True
    if spec.finite:
        try:
            comparison = oracle.compare_with_theory(spec, ZZ, cap=query.cap)
            checked, match = True, comparison.ok
        except oracle.MemoryCapError:
            checked, match = False, True
        if not match:
            _explain_mismatch(comparison, err if err is not None else sys.stderr)
    doc["oracle"] = {"checked": checked, "match": match}
    return doc, (0 if match else 1)


# ---------------------------------------------------------------------------
# dispatch


def _cmd_ring(q: Query) -> tuple[dict, int]:
    doc = {
        "input": {"n": list(q.spec.n), "t": _t_json(q.spec.t), "coeff": str(q.dom)},
        "dim": q.spec.dim,
        "ring": _ring_json(q.spec, q.dom),
    }
    return doc, 0


def _cmd_steenrod(q: Query) -> tuple[dict, int]:
    if q.dom != GF(2):
        raise UnsupportedError("Steenrod squares need --coeff F2")
    doc = {
        "input": {"n": list(q.spec.n), "t": _t_json(q.spec.t), "coeff": "F2"},
        "steenrod": _steenrod_json(q.spec),
    }
    return doc, 0


def _cmd_split(q: Query) -> tuple[dict, int]:
    doc = {
        "input": {"n": list(q.spec.n), "t": _t_json(q.spec.t)},
        "cartesian": _cartesian_json(q.spec),
    }
    return doc, 0


def _cmd_wedge(q: Query) -> tuple[dict, int]:
    if not q.dom.is_field:
        raise UnsupportedError("wedge verification needs field coefficients")
    doc = {
        "input": {"n": list(q.spec.n), "t": _t_json(q.spec.t), "coeff": str(q.dom)},
        "wedge": _wedge_json(q.spec, q.k, q.dom),
    }
    return doc, 0


def _cmd_invariants(q: Query) -> tuple[dict, int]:
    rep = invariants.invariant_report(
        q.spec, gd=q.gd, span_base=q.span_base, tc_override=q.tc_override
    )
    doc = {
        "input": {"n": list(q.spec.n), "t": _t_json(q.spec.t)},
        "dim": q.spec.dim,
        "invariants": _invariants_json(rep),
    }
    return doc, 0


def _cmd_tseries(q: Query) -> tuple[dict, int]:
    if q.t == INFINITY:
        raise UnsupportedError("the t-series needs finite t")
    if q.law == "additive":
        law = fgl.make_additive(ZZ, q.precision)
    else:
        law = fgl.make_multiplicative(q.unit, ZZ, q.precision)
    series = fgl.t_series(law, q.t, q.precision)
    doc = {
        "t": q.t,
        "law": q.law,
        "precision": q.precision,
        "series": [int(c) for c in series.poly.coeffs],
        "display": str(series.poly),
    }
    return doc, 0


def _cmd_oracle(q: Query, err) -> tuple[dict, int]:
    if not q.spec.finite:
        raise UnsupportedError(
            "no homology oracle for t = inf (the circle quotient is not a finite free quotient)"
        )
    try:
        comparison = oracle.compare_with_theory(q.spec, q.dom, cap=q.cap)
    except oracle.MemoryCapError as exc:
        raise UnsupportedError(str(exc))
    doc = {
        "input": {"n": list(q.spec.n), "t": _t_json(q.spec.t), "coeff": str(q.dom)},
        "checked": True,
        "match": comparison.ok,
        "degrees": [
            {
                "degree": d,
                "theory": [th[0], list(th[1])],
                "oracle": [orc[0], list(orc[1])],
                "match": m,
            }
            for d, th, orc, m in comparison.degrees
        ],
    }
    if not comparison.ok:
        _explain_mismatch(comparison, err)
    return doc, 0 if comparison.ok else 1


def _render_text(doc: dict, out) -> None:
    def inlineable(v):
        if isinstance(v, dict):
            return False
        if isinstance(v, list):
            return all(inlineable(x) for x in v)
        return True

    def flat(v):
        if isinstance(v, list):
            return "[" + ", ".join(flat(x) for x in v) + "]"
        return str(v)

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if inlineable(v):
                    print(f"{pad}{k}: {flat(v)}", file=out)
                else:
                    print(f"{pad}{k}:", file=out)
                    walk(v, indent + 1)
        else:  # list with structure inside
            for v in obj:
                if inlineable(v):
                    print(f"{pad}- {flat(v)}", file=out)
                else:
                    print(f"{pad}-", file=out)
                    walk(v, indent + 1)

    walk(doc, 0)


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if any(a in ("--help", "-h") for a in argv):
        print(HELP, file=out, end="")
        return 0
    try:
        query = parse(argv)
        if query.command == "report":
            doc, code = emit_report(query, err)
        else:
            doc, code = {
                "ring": _cmd_ring,
                "steenrod": _cmd_steenrod,
                "split": _cmd_split,
                "wedge": _cmd_wedge,
                "invariants": _cmd_invariants,
                "tseries": _cmd_tseries,
                "oracle": lambda q: _cmd_oracle(q, err),
            }[query.command](query)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=err)
        return 3
    except ValueError as exc:
        # domain-level rejections (gd/span ranges, crossed intervals, ...)
        print(f"error: {exc}", file=err)
        return 2
    except AssertionError as exc:
        # a failed cross-check (Euler, Poincare-Hopf, cat/TC, d o d): a bug,
        # not an oracle mismatch
        print(f"internal error: {exc}", file=err)
        return 4
    if query.json_out:
        print(json.dumps(doc, indent=2), file=out)
    else:
        _render_text(doc, out)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`lensprod ... | head`); point stdout
        # at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
