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
  --cap <int>         oracle guard on the whole quotient complex's cells
                      (default 50000), which only the tests build
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


_BOOLS = ("--json", "--sort")
# the valued flags; from --k on, in the order parse checks their values
_VALUED = (
    "--n",
    "--t",
    "--coeff",
    "--k",
    "--gd",
    "--span-base",
    "--tc-override",
    "--precision",
    "--law",
    "--unit",
    "--cap",
)
# the integer flags and their lower bounds (None: any integer)
_INT_FLAGS = {"k": 0, "gd": None, "span_base": None, "precision": 0, "unit": None, "cap": 1}


def parse(argv) -> Query:
    """Parse a command line into a validated Query."""
    args = list(argv)
    command = None
    flags: dict = {}
    i = 0
    while i < len(args):
        a = args[i]
        name = a[2:].replace("-", "_")
        if a in _BOOLS:
            flags[name] = True
        elif a in _VALUED:
            if i + 1 >= len(args):
                raise UsageError(f"{a} needs a value")
            if name in flags:
                raise UsageError(f"{a} given twice")
            i += 1
            flags[name] = args[i]
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
    for flag in _VALUED[3:]:
        name = flag[2:].replace("-", "_")
        if name not in flags:
            continue
        value = flags[name]
        if name == "tc_override":
            parts = value.split(",")
            if len(parts) != 2:
                raise UsageError("--tc-override expects lo,hi")
            kw[name] = tuple(_parse_int(part, flag) for part in parts)
        elif name == "law":
            if value not in ("additive", "multiplicative"):
                raise UsageError("--law must be additive or multiplicative")
            kw[name] = value
        else:
            kw[name] = _parse_int(value, flag)
            low = _INT_FLAGS[name]
            if low is not None and kw[name] < low:
                raise UsageError(f"{flag} must be {'positive' if low else 'non-negative'}")
    return Query(command, spec, dom, json_out="json" in flags, t=t, **kw)


# ---------------------------------------------------------------------------
# sections, each built by one helper, and the command handlers


def _input(q: Query, coeff: bool = True) -> dict:
    head = {"n": list(q.spec.n), "t": "inf" if q.spec.t == INFINITY else q.spec.t}
    if coeff:
        head["coeff"] = str(q.dom)
    return head


def _invariants(q: Query) -> dict:
    rep = invariants.invariant_report(
        q.spec, gd=q.gd, span_base=q.span_base, tc_override=q.tc_override
    )
    chi_star, span, imm = rep.chi_star, rep.span, rep.imm
    if isinstance(chi_star, Fraction):
        chi_star = f"{chi_star.numerator}/{chi_star.denominator}"
    interval = isinstance(imm, tuple)
    return {
        "chi": rep.chi,
        "chi_star": chi_star,
        "spin": rep.spin,
        "orientable": rep.orientable,
        "vector_field": rep.has_nonzero_field,
        "stably_parallelizable": rep.stably_parallelizable.json(),
        "parallelizable": rep.parallelizable.json(),
        "cat": list(rep.cat),
        "tc": list(rep.tc),
        "span": {
            "stablespan": span.stablespan,
            "span": span.span,
            "span_equals_stablespan": span.span_equals_stablespan,
            "clauses": list(span.clauses),
        },
        "imm": {
            "gd": rep.gd_input,
            "value": None if interval else imm,
            "interval": list(imm) if interval else None,
        },
    }


def _steenrod_lines(spec: TupleSpec) -> list:
    ring = build_ring(spec, GF(2))
    lines = []
    for m in ring.basis:
        total = steenrod.total_sq(ring, m)
        rhs = " + ".join(str(m2) for m2 in sorted(total)) if total else "0"
        lines.append(f"Sq({m}) = {rhs}")
    return lines


def _cartesian(spec: TupleSpec) -> dict:
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


def _wedge_summands(spec: TupleSpec, k: int) -> list:
    return [
        {"sigma": list(w.sigma), "shift": w.shift, "top": w.top, "bottom": w.bottom}
        for w in splittings.wedge_decomposition(spec, k)
    ]


def _compare(q: Query, dom: Coeff, err) -> oracle.ComparisonReport:
    """The oracle's comparison over dom. A mismatch is explained on err: the
    comparison summary, then one line per differing degree."""
    comparison = oracle.compare_with_theory(q.spec, dom, cap=q.cap)
    if not comparison.ok:
        print(comparison, file=err)
        for d, th, orc, match in comparison.degrees:
            if not match:
                print(f"degree {d}: theory {[th[0], list(th[1])]} oracle {[orc[0], list(orc[1])]}", file=err)
    return comparison


def _cmd_ring(q: Query, err) -> tuple[dict, int]:
    ring = build_ring(q.spec, q.dom)
    section: dict = {}
    if ring.is_field:
        section["poincare"] = list(poincare_polynomial(ring).coeffs)
    else:
        section["groups"] = [[d, f, list(t)] for d, f, t in graded_groups(ring).groups]
    section["generators"] = [{"name": n, "degree": d} for n, d in ring.generators]
    section["relations"] = list(ring.relations)
    return {"input": _input(q), "dim": q.spec.dim, "ring": section}, 0


def _cmd_steenrod(q: Query, err) -> tuple[dict, int]:
    if q.dom != GF(2):
        raise UnsupportedError("Steenrod squares need --coeff F2")
    return {"input": _input(q), "steenrod": _steenrod_lines(q.spec)}, 0


def _cmd_split(q: Query, err) -> tuple[dict, int]:
    return {"input": _input(q, coeff=False), "cartesian": _cartesian(q.spec)}, 0


def _cmd_wedge(q: Query, err) -> tuple[dict, int]:
    if not q.dom.is_field:
        raise UnsupportedError("wedge verification needs field coefficients")
    check = splittings.verify_wedge(q.spec, q.k, q.dom)
    wedge = {"k": q.k, "summands": _wedge_summands(q.spec, q.k), "verified": check.ok}
    if not check.ok:  # a failed cross-check: the document still prints
        print(f"internal error: wedge check fails at degree {check.mismatch_degree} of {q.spec}", file=err)
    return {"input": _input(q), "wedge": wedge}, 0 if check.ok else 4


def _cmd_invariants(q: Query, err) -> tuple[dict, int]:
    return {"input": _input(q, coeff=False), "dim": q.spec.dim, "invariants": _invariants(q)}, 0


def _cmd_tseries(q: Query, err) -> tuple[dict, int]:
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
        comparison = _compare(q, q.dom, err)
    except oracle.MemoryCapError as exc:
        raise UnsupportedError(str(exc))
    doc = {
        "input": _input(q),
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
    return doc, 0 if comparison.ok else 1


def emit_report(query: Query, err=None) -> tuple[dict, int]:
    """The full JSON document for the report command; returns (doc, exit).
    The ring command's document, then the sections of steenrod (over F2),
    invariants, split and wedge (its summands), then the integral oracle's
    verdict. An oracle mismatch is explained on err (default: stderr)."""
    spec, dom = query.spec, query.dom
    if not dom.is_field:
        raise UnsupportedError("report needs field coefficients (Q, F2 or F:<p>)")
    doc, _ = _cmd_ring(query, err)
    if dom == GF(2):
        doc["steenrod"] = _steenrod_lines(spec)
    doc["invariants"] = _invariants(query)
    doc["splittings"] = {"cartesian": _cartesian(spec), "wedge": _wedge_summands(spec, query.k)}
    checked, match = False, True
    if spec.finite:
        try:
            checked, match = True, _compare(query, ZZ, err if err is not None else sys.stderr).ok
        except oracle.MemoryCapError:
            pass
    doc["oracle"] = {"checked": checked, "match": match}
    return doc, (0 if match else 1)


_HANDLERS = {
    "ring": _cmd_ring,
    "steenrod": _cmd_steenrod,
    "split": _cmd_split,
    "wedge": _cmd_wedge,
    "invariants": _cmd_invariants,
    "tseries": _cmd_tseries,
    "oracle": _cmd_oracle,
    "report": emit_report,
}
COMMANDS = tuple(_HANDLERS)


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
        doc, code = _HANDLERS[query.command](query, err)
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
