"""Command-line driver and the text formats for algebras and modules.

Commands: validate, nncmo, cyclic, actions, homology, cohomology,
pair-constraints.  Exit codes separate mathematics from plumbing: 0 means the
run succeeded (set validates, ordering exists, complex built), 2 means the
input was fine but the verdict is negative (no multiplicative ordering, or a
noncommutative construction was refused, with the witness in the report), and
1 means the input itself was bad (parse errors name the file, line and the
expected production).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import data_path
from .algebras import (Algebra, AlgebraError, custom_algebra, cyclic_group_algebra,
                       matrix_algebra, symmetric_group_algebra_s3, trunc_poly, upper_tri)
from .exact import Field, Matrix
from .hochschild import (CHAIN, COCHAIN, ComplexError, OrderingRefusal, build_complex,
                         make_spec, pair_constraints)
from .modules import (Action, ModuleError, Multimodule, custom_module, multi_regular,
                      regular_bimodule, symmetric_module, tensor_square_bimodule)
from .ordering import (InconclusiveSearch, OrderingError, check_nncmo_full,
                       classify_actions, classify_nncmo, cyclic_ordering, search_nncmo)
from .simplicial import BUILTIN_SETS, SimplicialError, SimplicialSet, from_file


class CliInputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input resolution and text formats

def load_simplicial_set(ref: str) -> SimplicialSet:
    if os.path.exists(ref):
        name = os.path.splitext(os.path.basename(ref))[0]
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                return from_file(fh.read(), name)
        except SimplicialError as e:
            raise CliInputError(f"{ref}: {e}") from None
    if ref in BUILTIN_SETS:
        return BUILTIN_SETS[ref]()
    bundled = data_path(f"{ref}.sset")
    if bundled is not None and os.path.exists(bundled):
        with open(bundled, "r", encoding="utf-8") as fh:
            return from_file(fh.read(), ref)
    raise CliInputError(
        f"unknown simplicial set {ref!r}: not a file, and not one of "
        f"{sorted(BUILTIN_SETS)}")


def _parse_field(text: str, where: str) -> Field:
    try:
        return Field.parse(text)
    except ValueError as e:
        raise CliInputError(f"{where}: {e}") from None


def _parse_rational(tok: str, where: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"{where}: expected a rational number, got {tok!r}") from None


def _parse_vector(src: str, where: str) -> list[Fraction]:
    body = src.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    toks = [t for t in body.replace(",", " ").split() if t]
    return [_parse_rational(t, where) for t in toks]


def _parse_combo(src: str, basis: dict[str, int], where: str) -> list[Fraction]:
    """A linear combination over named basis elements: '0', 'x', '2 x + 1/2 y'."""
    out = [Fraction(0)] * len(basis)
    src = src.strip()
    if src == "0":
        return out
    for term in src.split("+"):
        toks = term.replace("*", " ").split()
        if not toks:
            raise CliInputError(f"{where}: empty term in combination")
        if len(toks) == 1:
            coef, name = Fraction(1), toks[0]
        elif len(toks) == 2:
            coef, name = _parse_rational(toks[0], where), toks[1]
        else:
            raise CliInputError(f"{where}: expected '<coef> <basis>' terms, got {term!r}")
        if name not in basis:
            raise CliInputError(f"{where}: unknown basis element {name!r}")
        out[basis[name]] += coef
    return out


def parse_algebra(text: str, field: Field) -> Algebra:
    """Inline algebra spec: '<builder> <args>' with optional 'field=...' token.

    Builders: trunc-poly N | upper-tri N | matrix N | group-cyclic N |
    group-s3 | custom ... (custom is file-only, see parse_algebra_file).
    """
    toks = text.split()
    if toks and toks[0] == "algebra":
        toks = toks[1:]
    toks = [t for t in toks if not t.startswith("field=")] \
        + [t for t in toks if t.startswith("field=")]
    while toks and toks[-1].startswith("field="):
        field = _parse_field(toks[-1][len("field="):], f"algebra {text.strip()!r}")
        toks = toks[:-1]
    if not toks:
        raise CliInputError("empty algebra specification")
    kind, args = toks[0], toks[1:]

    def one_nat(name):
        if len(args) != 1 or not args[0].isdecimal():
            raise CliInputError(f"algebra {name} expects one natural argument")
        return int(args[0])

    try:
        if kind in ("trunc-poly", "trunc_poly"):
            return trunc_poly(one_nat(kind), field)
        if kind in ("upper-tri", "upper_tri"):
            return upper_tri(one_nat(kind), field)
        if kind == "matrix":
            return matrix_algebra(one_nat(kind), field)
        if kind in ("group-cyclic", "group"):
            if kind == "group" and args and args[0] in ("s3", "S3"):
                return symmetric_group_algebra_s3(field)
            if kind == "group" and args and args[0] in ("cyclic", "C"):
                args = args[1:]
            if len(args) != 1 or not args[0].isdecimal():
                raise CliInputError("group-cyclic expects one natural argument")
            return cyclic_group_algebra(int(args[0]), field)
        if kind in ("group-s3", "s3"):
            return symmetric_group_algebra_s3(field)
    except AlgebraError as e:
        raise CliInputError(str(e)) from None
    raise CliInputError(
        f"unknown algebra builder {kind!r} (expected trunc-poly, upper-tri, "
        "matrix, group-cyclic, group-s3, or a file path)")


def parse_algebra_file(path: str, field: Field) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [(no, ln.split("#", 1)[0].strip())
             for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise CliInputError(f"{path}: empty algebra file")
    no0, head = lines[0]
    toks = head.split()
    if toks[:2] != ["algebra", "custom"]:
        return parse_algebra(head, field)
    basis = None
    unit_src = None
    for t in toks[2:]:
        if t.startswith("basis=["):
            if not t.endswith("]"):
                raise CliInputError(f"{path}:{no0}: unterminated basis=[...]")
            basis = [b.strip() for b in t[len("basis=["):-1].split(",") if b.strip()]
        elif t.startswith("unit=["):
            if not t.endswith("]"):
                raise CliInputError(f"{path}:{no0}: unterminated unit=[...]")
            unit_src = t[len("unit=["):-1]
        elif t.startswith("field="):
            field = _parse_field(t[len("field="):], f"{path}:{no0}")
        else:
            raise CliInputError(f"{path}:{no0}: unexpected token {t!r} "
                                "(expected basis=[...], unit=[...], field=...)")
    if basis is None or unit_src is None:
        raise CliInputError(f"{path}:{no0}: custom algebra needs basis=[...] and unit=[...]")
    index = {b: k for k, b in enumerate(basis)}
    unit = _parse_vector(unit_src, f"{path}:{no0}")
    if len(unit) != len(basis):
        raise CliInputError(f"{path}:{no0}: unit length differs from basis length")
    d = len(basis)
    table = [[None] * d for _ in range(d)]
    in_table = False
    for no, ln in lines[1:]:
        if ln == "table:":
            in_table = True
            continue
        if not in_table:
            raise CliInputError(f"{path}:{no}: expected 'table:' before products")
        for stmt in ln.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if "=" not in stmt:
                raise CliInputError(f"{path}:{no}: expected '<bi>*<bj> = <combo>'")
            lhs, rhs = stmt.split("=", 1)
            facs = [t.strip() for t in lhs.split("*")]
            if len(facs) != 2 or facs[0] not in index or facs[1] not in index:
                raise CliInputError(f"{path}:{no}: left side must be '<bi>*<bj>' "
                                    "with known basis names")
            table[index[facs[0]]][index[facs[1]]] = _parse_combo(rhs, index, f"{path}:{no}")
    for i in range(d):
        for j in range(d):
            if table[i][j] is None:
                raise CliInputError(
                    f"{path}: product {basis[i]}*{basis[j]} missing from the table")
    try:
        return custom_algebra(os.path.splitext(os.path.basename(path))[0],
                              field, basis, unit, table)
    except AlgebraError as e:
        raise CliInputError(f"{path}: {e}") from None


def resolve_algebra(ref: str, field: Field) -> Algebra:
    if os.path.exists(ref):
        return parse_algebra_file(ref, field)
    return parse_algebra(ref, field)


def parse_module_file(path: str, alg: Algebra) -> Multimodule:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [(no, ln.split("#", 1)[0].strip())
             for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise CliInputError(f"{path}: empty module file")
    no0, head = lines[0]
    toks = head.split()
    if toks[:2] != ["module", "custom"]:
        return resolve_module(" ".join(toks[1:] if toks and toks[0] == "module" else toks), alg)
    dim = None
    for t in toks[2:]:
        if t.startswith("dim="):
            try:
                dim = int(t[len("dim="):])
            except ValueError:
                raise CliInputError(f"{path}:{no0}: expected an integer in {t!r}") from None
        else:
            raise CliInputError(f"{path}:{no0}: unexpected token {t!r} (expected dim=<d>)")
    if dim is None:
        raise CliInputError(f"{path}:{no0}: module custom needs dim=<d>")
    actions: dict[str, dict] = {}
    current = None
    for no, ln in lines[1:]:
        if ln.startswith("action "):
            toks = ln.split()
            if len(toks) != 3 or not toks[2].startswith("tag="):
                raise CliInputError(f"{path}:{no}: expected 'action <name> tag=<left|right|lr>'")
            name = toks[1]
            tag = toks[2][len("tag="):]
            if tag not in ("left", "right", "lr"):
                raise CliInputError(f"{path}:{no}: unknown tag {tag!r}")
            actions[name] = {"tag": tag, "ops": {}}
            current = name
        elif ln.startswith("op(") and current is not None:
            close = ln.find(")")
            if close < 0 or "=" not in ln[close:]:
                raise CliInputError(f"{path}:{no}: expected 'op(<basis>) = [[...],...]'")
            bname = ln[3:close].strip()
            try:
                bidx = alg.basis_index(bname)
            except AlgebraError as e:
                raise CliInputError(f"{path}:{no}: {e}") from None
            body = ln[close + 1:].split("=", 1)[1].strip()
            rows = _parse_matrix_literal(body, f"{path}:{no}")
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise CliInputError(f"{path}:{no}: operator must be {dim}x{dim}")
            actions[current]["ops"][bidx] = rows
        else:
            raise CliInputError(f"{path}:{no}: expected 'action ...' or 'op(...) = ...'")
    built = {}
    for name, data in actions.items():
        ops = []
        for i in range(alg.dim):
            if i not in data["ops"]:
                raise CliInputError(
                    f"{path}: action {name!r} misses op({alg.basis_names[i]})")
            ops.append(Matrix.from_rows(data["ops"][i], alg.field))
        built[name] = Action(data["tag"], tuple(ops))
    try:
        return custom_module(os.path.splitext(os.path.basename(path))[0], alg, dim, built)
    except ModuleError as e:
        raise CliInputError(f"{path}: {e}") from None


def _parse_matrix_literal(src: str, where: str) -> list[list[Fraction]]:
    src = src.strip()
    if not (src.startswith("[[") and src.endswith("]]")):
        raise CliInputError(f"{where}: expected [[...],[...]] matrix literal")
    rows = []
    for chunk in src[1:-1].replace("],[", "]|[").split("|"):
        rows.append(_parse_vector(chunk, where))
    return rows


def resolve_module(ref: str, alg: Algebra) -> Multimodule:
    toks = ref.split()
    if toks and toks[0] == "module":
        toks = toks[1:]
    if not toks:
        raise CliInputError("empty module specification")
    kind = toks[0]
    try:
        if kind == "regular":
            return regular_bimodule(alg)
        if kind == "symmetric":
            return symmetric_module(alg)
        if kind in ("tensor-square", "tensor_square"):
            return tensor_square_bimodule(alg)
        if kind == "multi":
            if len(toks) != 3 or not toks[1].isdecimal() or not toks[2].isdecimal():
                raise CliInputError("module multi expects two naturals: multi <l> <r>")
            return multi_regular(alg, int(toks[1]), int(toks[2]))
    except ModuleError as e:
        raise CliInputError(str(e)) from None
    if os.path.exists(ref):
        return parse_module_file(ref, alg)
    raise CliInputError(
        f"unknown module {ref!r} (expected regular, symmetric, tensor-square, "
        "multi <l> <r>, or a file path)")


# ---------------------------------------------------------------------------
# commands

def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    for line in _render_text(report):
        out.write(line + "\n")


def _render_text(report: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key in report:
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.extend(_render_text(item, indent + 1))
                    lines.append("")
                else:
                    lines.append(f"{pad}  {item}")
            if lines and lines[-1] == "":
                lines.pop()
        else:
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{pad}{key}: {value}")
    return lines


def _witness_report(X: SimplicialSet, witness) -> dict:
    fa, fb = witness.factorization_strings()
    return {
        "level": witness.level,
        "target": X.monotone_name(witness.target),
        "fiber": [X.monotone_name(r) for r in witness.fiber],
        "factorization_a": fa,
        "factorization_b": fb,
        "kind": witness.kind,
        "explanation": witness.explanation,
    }


def cmd_validate(args, out) -> int:
    X = load_simplicial_set(args.set)
    problems = X.validate()
    report = {
        "command": "validate",
        "set": X.name,
        "dimension": X.dimension(),
        "nondegenerate": len(X.simplices),
        "ok": not problems,
        "violations": problems,
    }
    _emit(report, args.json, out)
    return 0 if not problems else 2


def _require_cutoff(args, floor: int) -> None:
    if args.cutoff < floor:
        raise CliInputError(
            f"{args.command} needs --cutoff >= {floor}, got --cutoff {args.cutoff}")


def cmd_nncmo(args, out) -> int:
    _require_cutoff(args, 2)
    X = load_simplicial_set(args.set)
    predicted = classify_nncmo(X, args.cutoff)
    searched = search_nncmo(X, args.cutoff)
    report = {
        "command": "nncmo",
        "set": X.name,
        "cutoff": args.cutoff,
        "dimension": X.dimension(),
        "predicted": predicted.verdict,
        "searched": searched.verdict,
        "agree": predicted.verdict == searched.verdict,
    }
    if searched.admits:
        report["assignment"] = searched.assignment.describe()
        if args.oracle:
            bad = check_nncmo_full(X, searched.assignment, args.cutoff)
            report["full_factorization_check"] = "ok" if bad is None else "violated"
    else:
        report["witness"] = _witness_report(X, searched.witness)
        report["witness_verified"] = (searched.witness.verify_equal_maps(X)
                                      and searched.witness.reverify_unsat(X))
    _emit(report, args.json, out)
    return 0 if searched.admits else 2


def cmd_cyclic(args, out) -> int:
    _require_cutoff(args, 1)
    X = load_simplicial_set(args.set)
    if X.dimension() > 1:
        raise CliInputError(f"{X.name} is not one-dimensional; no cyclic ordering")
    orders = cyclic_ordering(X, args.cutoff)
    report = {
        "command": "cyclic",
        "set": X.name,
        "cutoff": args.cutoff,
        "levels": {str(n): [X.monotone_name(r) for r in orders[n]]
                   for n in range(1, args.cutoff + 1)},
    }
    _emit(report, args.json, out)
    return 0


def cmd_actions(args, out) -> int:
    _require_cutoff(args, 1)
    X = load_simplicial_set(args.set)
    rep = classify_actions(X, args.cutoff)
    report = {
        "command": "actions",
        "set": X.name,
        "cutoff": args.cutoff,
        "classes": [
            {"id": c.class_id, "type": c.action_type,
             "sites": [f"d_{i} {X.monotone_name(ref)} (level {n})"
                       for (n, ref, i) in c.sites]}
            for c in rep.classes
        ],
        "notes": list(rep.notes),
    }
    _emit(report, args.json, out)
    return 0


def cmd_complex(args, out, variant: str) -> int:
    if args.max_degree < 1:
        raise CliInputError("--max-degree must be at least 1")
    X = load_simplicial_set(args.set)
    field = _parse_field(args.field, "--field")
    alg = resolve_algebra(args.algebra, field)
    module = resolve_module(args.module, alg)
    try:
        spec = make_spec(X, alg, module, variant, args.max_degree,
                         normalized=args.normalized)
        if args.oracle and spec.assignment is not None:
            bad = check_nncmo_full(X, spec.assignment, args.max_degree)
            if bad is not None:
                raise OrderingRefusal("full-factorization check failed", bad)
        complex_ = build_complex(spec)
    except OrderingRefusal as e:
        report = {
            "command": variant_command(variant),
            "set": X.name,
            "algebra": alg.describe(),
            "module": module.describe(),
            "refused": True,
            "reason": str(e),
        }
        if e.witness is not None:
            report["witness"] = _witness_report(X, e.witness)
        _emit(report, args.json, out)
        return 2
    symbol = "beta_" if variant == CHAIN else "beta^"
    report = {
        "command": variant_command(variant),
        "set": X.name,
        "algebra": alg.describe(),
        "module": module.describe(),
        "field": field.describe(),
        "normalized": args.normalized,
        "max_degree": args.max_degree,
        "dims": list(complex_.dims),
        "betti": {f"{symbol}{n}": complex_.betti[n] for n in range(args.max_degree + 1)},
        "caveats": [f"degree {n} needs max_degree {n + 1}"
                    for n in complex_.caveat_degrees],
        "square_zero": complex_.verify_square_zero(),
    }
    _emit(report, args.json, out)
    return 0


def variant_command(variant: str) -> str:
    return "homology" if variant == CHAIN else "cohomology"


def cmd_pair(args, out) -> int:
    X = load_simplicial_set(args.inner)
    Y = load_simplicial_set(args.ambient)
    try:
        report = dict(pair_constraints(X, Y))
    except ComplexError as e:
        raise CliInputError(str(e)) from None
    report = {"command": "pair-constraints", **report}
    _emit(report, args.json, out)
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="hochord",
                description="Higher-order Hochschild (co)homology over pointed "
                            "simplicial sets, with multiplicative-ordering "
                            "certificates for noncommutative algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("validate", help="check the simplicial identities")
    sp.add_argument("set")
    common(sp)

    sp = sub.add_parser("nncmo", help="decide the multiplicative-ordering question")
    sp.add_argument("set")
    sp.add_argument("--cutoff", type=int, default=4)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the full-factorization consistency check")
    common(sp)

    sp = sub.add_parser("cyclic", help="print the cyclic ordering level tables")
    sp.add_argument("set")
    sp.add_argument("--cutoff", type=int, default=4)
    common(sp)

    sp = sub.add_parser("actions", help="action classes with left/right types")
    sp.add_argument("set")
    sp.add_argument("--cutoff", type=int, default=4)
    common(sp)

    for name in ("homology", "cohomology"):
        sp = sub.add_parser(name, help=f"compute {name} Betti numbers")
        sp.add_argument("set")
        sp.add_argument("--algebra", required=True,
                        help="inline builder ('upper-tri 2') or file path")
        sp.add_argument("--module", default="regular",
                        help="regular | symmetric | tensor-square | multi <l> <r> | file")
        sp.add_argument("--max-degree", type=int, default=3)
        sp.add_argument("--field", default="Q", help="Q or F(p)")
        sp.add_argument("--normalized", action="store_true")
        sp.add_argument("--oracle", action="store_true",
                        help="validate the ordering certificate against all factorizations")
        common(sp)

    sp = sub.add_parser("pair-constraints",
                        help="commutativity constraints for a pair X inside Y")
    sp.add_argument("inner")
    sp.add_argument("ambient")
    common(sp)
    return p


def main(argv=None) -> int:
    out = sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "validate":
            return cmd_validate(args, out)
        if args.command == "nncmo":
            return cmd_nncmo(args, out)
        if args.command == "cyclic":
            return cmd_cyclic(args, out)
        if args.command == "actions":
            return cmd_actions(args, out)
        if args.command == "homology":
            return cmd_complex(args, out, CHAIN)
        if args.command == "cohomology":
            return cmd_complex(args, out, COCHAIN)
        if args.command == "pair-constraints":
            return cmd_pair(args, out)
        raise CliInputError(f"unknown command {args.command!r}")
    except (CliInputError, SimplicialError, OrderingError, ComplexError,
            AlgebraError, ModuleError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InconclusiveSearch as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
