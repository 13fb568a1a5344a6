"""Command-line driver and the text formats for algebras and modules.

Commands: validate, nncmo, cyclic, actions, homology, cohomology,
pair-constraints.  Exit codes separate mathematics from plumbing: 0 means the
run succeeded (set validates, ordering exists, complex built), 2 means the
input was fine but the verdict is negative (no multiplicative ordering, or a
noncommutative construction was refused, with the witness in the report), and
1 means the input itself was bad (parse errors name the file, line and the
expected production).  Each ``cmd_*`` body maps the loaded set and the parsed
arguments to its report body and exit code; ``main`` runs it through ``_run``.

Inputs are resolved from tables: ``ALGEBRA_BUILDERS`` and ``MODULE_BUILDERS``
name the inline builders, ``_fields`` reads every ``key=value`` header token
and ``_read_lines`` the numbered lines of an algebra or module file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

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


# Inline builders by name.  An algebra builder takes its naturals (as many as
# the count beside it) and then the field; a module builder takes the algebra.
ALGEBRA_BUILDERS = {
    "trunc-poly": (1, trunc_poly), "upper-tri": (1, upper_tri),
    "matrix": (1, matrix_algebra), "group-cyclic": (1, cyclic_group_algebra),
    "group-s3": (0, symmetric_group_algebra_s3)}
MODULE_BUILDERS = {"regular": regular_bimodule, "symmetric": symmetric_module,
                   "tensor-square": tensor_square_bimodule}

# a header token runs to the next space outside brackets: 'basis=[one, x]'
_TOKEN = re.compile(r"(?:\[[^\[\]]*\]|\S)+")


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
    raise CliInputError(
        f"unknown simplicial set {ref!r}: not a file, and not one of "
        f"{sorted(BUILTIN_SETS)}")


def _read_lines(path: str, what: str) -> list[tuple[int, str]]:
    """The numbered lines of ``path`` that hold text once '#' comments are
    cut; a file with none is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, text) for no, ln in enumerate(fh.read().splitlines(), start=1)
                 if (text := ln.split("#", 1)[0].strip())]
    if not lines:
        raise CliInputError(f"{path}: empty {what} file")
    return lines


def _builder_line(path: str, lines: list[tuple[int, str]]) -> str:
    """The line of a file that names an inline builder; it must be the only one."""
    if len(lines) > 1:
        raise CliInputError(f"{path}:{lines[1][0]}: expected nothing after the builder line")
    return lines[0][1]


def _fields(tokens: list[str], keys: dict[str, str], where: str) -> dict[str, str]:
    """``key=value`` tokens as a dict.  ``keys`` maps each accepted key to the
    placeholder its refusal shows; another token, or a key given twice, is
    refused."""
    out = {}
    for t in tokens:
        key, eq, value = t.partition("=")
        if not eq or key not in keys:
            expected = ", ".join(f"{k}={v}" for k, v in keys.items())
            raise CliInputError(f"{where}: unexpected token {t!r} (expected {expected})")
        if key in out:
            raise CliInputError(f"{where}: {key}= given more than once")
        out[key] = value
    return out


def _parse_field(text: str, where: str) -> Field:
    try:
        return Field.parse(text)
    except ValueError as e:
        raise CliInputError(f"{where}: {e}") from None


def _naturals(args: list[str], count: int, message: str) -> list[int]:
    if len(args) != count or not all(a.isdecimal() for a in args):
        raise CliInputError(message)
    return [int(a) for a in args]


def _parse_rational(tok: str, where: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"{where}: expected a rational number, got {tok!r}") from None


def _in_field(values: list, field: Field, where: str) -> list:
    """``values`` as elements of ``field``, refusing a denominator that vanishes there."""
    try:
        return [field.of(v) for v in values]
    except ZeroDivisionError as e:
        raise CliInputError(f"{where}: {e}") from None


def _parse_vector(src: str, where: str) -> list[Fraction]:
    body = src.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    toks = [t for t in body.replace(",", " ").split() if t]
    return [_parse_rational(t, where) for t in toks]


def _parse_matrix_literal(src: str, where: str) -> list[list[Fraction]]:
    """'[[a, b], [c, d]]': bracketed rows, a comma and any spaces between them."""
    if not re.fullmatch(r"\s*\[\s*\[[^\[\]]*\](\s*,\s*\[[^\[\]]*\])*\s*\]\s*", src):
        raise CliInputError(f"{where}: expected [[...],[...]] matrix literal")
    return [_parse_vector(row, where) for row in re.findall(r"\[([^\[\]]*)\]", src)]


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
    """Inline algebra spec: '[algebra] <builder> <naturals> [field=F]', where
    the builders are the keys of ``ALGEBRA_BUILDERS`` (trunc-poly N,
    upper-tri N, matrix N, group-cyclic N, group-s3).  A ``field=`` token
    overrides ``field``.  Custom algebras are file-only (parse_algebra_file).
    """
    where = f"algebra {text.strip()!r}"
    toks = text.split()
    if toks[:1] == ["algebra"]:
        toks = toks[1:]
    words = [t for t in toks if "=" not in t]
    if not words:
        raise CliInputError("empty algebra specification")
    kind, args = words[0], words[1:]
    if kind not in ALGEBRA_BUILDERS:
        raise CliInputError(f"unknown algebra builder {kind!r} (expected "
                            f"{', '.join(ALGEBRA_BUILDERS)}, or a file path)")
    given = _fields([t for t in toks if "=" in t], {"field": "..."}, where)
    field = _parse_field(given["field"], where) if "field" in given else field
    count, build = ALGEBRA_BUILDERS[kind]
    naturals = _naturals(args, count, f"algebra {kind} "
                         + ("expects one natural argument" if count else "takes no argument"))
    return build(*naturals, field)


def parse_algebra_file(path: str, field: Field) -> Algebra:
    lines = _read_lines(path, "algebra")
    where = f"{path}:{lines[0][0]}"
    toks = _TOKEN.findall(lines[0][1])
    if toks[:2] != ["algebra", "custom"]:
        return parse_algebra(_builder_line(path, lines), field)
    given = _fields(toks[2:], {"basis": "[...]", "unit": "[...]", "field": "..."}, where)
    field = _parse_field(given["field"], where) if "field" in given else field
    if not all(re.fullmatch(r"\[.*\]", given.get(key, "")) for key in ("basis", "unit")):
        raise CliInputError(f"{where}: custom algebra needs basis=[...] and unit=[...]")
    basis = [b.strip() for b in given["basis"][1:-1].split(",") if b.strip()]
    index = {b: k for k, b in enumerate(basis)}
    if len(index) < len(basis):
        twice = next(b for b in basis if basis.count(b) > 1)
        raise CliInputError(f"{where}: basis name {twice!r} given more than once")
    unit = _in_field(_parse_vector(given["unit"], where), field, f"{where}: unit")
    if len(unit) != len(basis):
        raise CliInputError(f"{where}: unit length differs from basis length")
    d = len(basis)
    table = [[None] * d for _ in range(d)]
    in_table = False
    for no, ln in lines[1:]:
        if ln == "table:":
            in_table = True
            continue
        if not in_table:
            raise CliInputError(f"{path}:{no}: expected 'table:' before products")
        for stmt in filter(None, map(str.strip, ln.split(";"))):
            if "=" not in stmt:
                raise CliInputError(f"{path}:{no}: expected '<bi>*<bj> = <combo>'")
            lhs, rhs = stmt.split("=", 1)
            facs = [t.strip() for t in lhs.split("*")]
            if len(facs) != 2 or facs[0] not in index or facs[1] not in index:
                raise CliInputError(f"{path}:{no}: left side must be '<bi>*<bj>' "
                                    "with known basis names")
            i, j = index[facs[0]], index[facs[1]]
            if table[i][j] is not None:
                raise CliInputError(f"{path}:{no}: product {basis[i]}*{basis[j]} "
                                    "given more than once")
            table[i][j] = _in_field(_parse_combo(rhs, index, f"{path}:{no}"), field,
                                    f"{path}:{no}: product {basis[i]}*{basis[j]}")
    missing = [(i, j) for i in range(d) for j in range(d) if table[i][j] is None]
    if missing:
        i, j = missing[0]
        raise CliInputError(f"{path}: product {basis[i]}*{basis[j]} missing from the table")
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
    lines = _read_lines(path, "module")
    where = f"{path}:{lines[0][0]}"
    toks = _TOKEN.findall(lines[0][1])
    if toks[:2] != ["module", "custom"]:
        line = _builder_line(path, lines)
        module = _inline_module(line, alg)
        if module is None and os.path.exists(line):
            raise CliInputError(f"{where}: a module file names a builder or 'module custom', "
                                f"not another file ({line!r})")
        return resolve_module(line, alg) if module is None else module
    given = _fields(toks[2:], {"dim": "<d>"}, where)
    if "dim" not in given:
        raise CliInputError(f"{where}: module custom needs dim=<d>")
    try:
        dim = int(given["dim"])
    except ValueError:
        raise CliInputError(f"{where}: expected an integer in {'dim=' + given['dim']!r}") from None
    actions: dict[str, tuple] = {}  # name -> (tag, {basis index: rows})
    current = None
    for no, ln in lines[1:]:
        if ln.startswith("action "):
            toks = ln.split()
            if len(toks) != 3 or not toks[2].startswith("tag="):
                raise CliInputError(f"{path}:{no}: expected 'action <name> tag=<left|right|lr>'")
            name, tag = toks[1], toks[2][len("tag="):]
            if tag not in ("left", "right", "lr"):
                raise CliInputError(f"{path}:{no}: unknown tag {tag!r}")
            if name in actions:
                raise CliInputError(f"{path}:{no}: action {name!r} declared more than once")
            actions[name], current = (tag, {}), name
        elif ln.startswith("op(") and current is not None:
            op = re.fullmatch(r"op\(([^)]*)\)\s*=(.*)", ln)
            if op is None:
                raise CliInputError(f"{path}:{no}: expected 'op(<basis>) = [[...],...]'")
            bname, ops = op[1].strip(), actions[current][1]
            try:
                bidx = alg.basis_index(bname)
            except AlgebraError as e:
                raise CliInputError(f"{path}:{no}: {e}") from None
            rows = [_in_field(row, alg.field, f"{path}:{no}: op({bname})")
                    for row in _parse_matrix_literal(op[2], f"{path}:{no}")]
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise CliInputError(f"{path}:{no}: operator must be {dim}x{dim}")
            if bidx in ops:
                raise CliInputError(f"{path}:{no}: op({bname}) given more than once "
                                    f"in action {current!r}")
            ops[bidx] = rows
        else:
            raise CliInputError(f"{path}:{no}: expected 'action ...' or 'op(...) = ...'")
    built = {}
    for name, (tag, ops) in actions.items():
        missing = [b for i, b in enumerate(alg.basis_names) if i not in ops]
        if missing:
            raise CliInputError(f"{path}: action {name!r} misses op({missing[0]})")
        built[name] = Action(tag, tuple(Matrix.from_rows(ops[i], alg.field)
                                        for i in range(alg.dim)))
    try:
        return custom_module(os.path.splitext(os.path.basename(path))[0], alg, dim, built)
    except ModuleError as e:
        raise CliInputError(f"{path}: {e}") from None


def _inline_module(ref: str, alg: Algebra) -> Multimodule | None:
    """The module of '[module] <builder>' with a key of ``MODULE_BUILDERS``
    or 'multi <l> <r>'; None when ``ref`` names no builder."""
    toks = ref.split()
    if toks[:1] == ["module"]:
        toks = toks[1:]
    if not toks:
        raise CliInputError("empty module specification")
    kind, args = toks[0], toks[1:]
    if kind in MODULE_BUILDERS:
        _naturals(args, 0, f"module {kind} takes no argument")
        return MODULE_BUILDERS[kind](alg)
    if kind == "multi":
        return multi_regular(alg, *_naturals(
            args, 2, "module multi expects two naturals: multi <l> <r>"))
    return None


def resolve_module(ref: str, alg: Algebra) -> Multimodule:
    """An inline module builder (``_inline_module``) or a module file."""
    module = _inline_module(ref, alg)
    if module is not None:
        return module
    if os.path.exists(ref):
        return parse_module_file(ref, alg)
    raise CliInputError(f"unknown module {ref!r} (expected {', '.join(MODULE_BUILDERS)}, "
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
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.extend(_render_text(item, indent + 1))
                lines.append("")
            lines.pop()
        elif isinstance(value, list) and any(", " in str(v) for v in value):
            # items holding the separator get a line each, so they split back
            lines.append(f"{pad}{key}:")
            lines.extend(f"{pad}  {v}" for v in value)
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


def cmd_validate(X: SimplicialSet, args) -> tuple[dict, int]:
    problems = X.validate()
    return {
        "dimension": X.dimension(),
        "nondegenerate": len(X.simplices),
        "ok": not problems,
        "violations": problems,
    }, 0 if not problems else 2


def cmd_nncmo(X: SimplicialSet, args) -> tuple[dict, int]:
    predicted = classify_nncmo(X, args.cutoff)
    searched = search_nncmo(X, args.cutoff)
    report = {
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
    return report, 0 if searched.admits else 2


def cmd_cyclic(X: SimplicialSet, args) -> tuple[dict, int]:
    if X.dimension() > 1:
        raise CliInputError(f"{X.name} is not one-dimensional; no cyclic ordering")
    orders = cyclic_ordering(X, args.cutoff)
    return {"levels": {str(n): [X.monotone_name(r) for r in orders[n]]
                       for n in range(1, args.cutoff + 1)}}, 0


def cmd_actions(X: SimplicialSet, args) -> tuple[dict, int]:
    rep = classify_actions(X, args.cutoff)
    return {
        "classes": [
            {"id": c.class_id, "type": c.action_type,
             "sites": [f"d_{i} {X.monotone_name(ref)} (level {n})"
                       for (n, ref, i) in c.sites]}
            for c in rep.classes
        ],
        "notes": list(rep.notes),
    }, 0


def cmd_complex(X: SimplicialSet, args, variant: str) -> tuple[dict, int]:
    alg = resolve_algebra(args.algebra, _parse_field(args.field, "--field"))
    module = resolve_module(args.module, alg)
    coefficients = {"algebra": alg.describe(), "module": module.describe()}
    try:
        spec = make_spec(X, alg, module, variant, args.max_degree,
                         normalized=args.normalized)
        if args.oracle and spec.assignment is not None:
            bad = check_nncmo_full(X, spec.assignment, args.max_degree)
            if bad is not None:
                raise OrderingRefusal("full-factorization check failed", bad)
        complex_ = build_complex(spec)
    except OrderingRefusal as e:
        report = {**coefficients, "refused": True, "reason": str(e)}
        if e.witness is not None:
            report["witness"] = _witness_report(X, e.witness)
        return report, 2
    if not complex_.verify_square_zero():  # the last check before any Betti number
        raise ComplexError("internal error: the differentials do not square to zero, "
                           "so the Betti numbers would be meaningless")
    symbol = "beta_" if variant == CHAIN else "beta^"
    return {
        **coefficients,
        "field": alg.field.describe(),
        "normalized": args.normalized,
        "max_degree": args.max_degree,
        "dims": list(complex_.dims),
        "betti": {f"{symbol}{n}": complex_.betti[n] for n in range(args.max_degree + 1)},
        "caveats": [f"degree {n} needs max_degree {n + 1}"
                    for n in complex_.caveat_degrees],
        "square_zero": True,
    }, 0


def cmd_pair(X: SimplicialSet, args) -> tuple[dict, int]:
    return pair_constraints(X, load_simplicial_set(args.ambient)), 0


def _run(args, out) -> int:
    """Refuse a --cutoff below the command's floor or a --max-degree below 1
    before reading any input, load the set, and emit the report head
    (command, set, cutoff where taken) and the body; return the exit code."""
    if args.floor is not None and args.cutoff < args.floor:
        raise CliInputError(
            f"{args.command} needs --cutoff >= {args.floor}, got --cutoff {args.cutoff}")
    if getattr(args, "max_degree", 1) < 1:
        raise CliInputError("--max-degree must be at least 1")
    X = load_simplicial_set(args.set)
    head = {"command": args.command}
    if args.body is not cmd_pair:  # its body names both of its sets
        head["set"] = X.name
    if args.floor is not None:
        head["cutoff"] = args.cutoff
    body, code = args.body(X, args)
    _emit({**head, **body}, args.json, out)
    return code


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _command(sub, name: str, body, help: str, floor: int | None = None,
             set_name: str = "set") -> _Parser:
    """A command with its set positional (shown as ``set_name``) and, given a
    floor, its --cutoff; ``_build_parser`` adds --json after its own options."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("set", metavar=set_name)
    if floor is not None:
        sp.add_argument("--cutoff", type=int, default=4)
    sp.set_defaults(body=body, floor=floor)
    return sp


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="hochord",
                description="Higher-order Hochschild (co)homology over pointed "
                            "simplicial sets, with multiplicative-ordering "
                            "certificates for noncommutative algebras.")
    sub = p.add_subparsers(dest="command", required=True)
    _command(sub, "validate", cmd_validate, "check the simplicial identities")
    sp = _command(sub, "nncmo", cmd_nncmo, "decide the multiplicative-ordering question", 2)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the full-factorization consistency check")
    _command(sub, "cyclic", cmd_cyclic, "print the cyclic ordering level tables", 1)
    _command(sub, "actions", cmd_actions, "action classes with left/right types", 1)
    for name, variant in (("homology", CHAIN), ("cohomology", COCHAIN)):
        sp = _command(sub, name, functools.partial(cmd_complex, variant=variant),
                      f"compute {name} Betti numbers")
        sp.add_argument("--algebra", required=True,
                        help="inline builder ('upper-tri 2') or file path")
        sp.add_argument("--module", default="regular",
                        help="regular | symmetric | tensor-square | multi <l> <r> | file")
        sp.add_argument("--max-degree", type=int, default=3)
        sp.add_argument("--field", default="Q", help="Q or F(p)")
        sp.add_argument("--normalized", action="store_true")
        sp.add_argument("--oracle", action="store_true",
                        help="validate the ordering certificate against all factorizations")
    sp = _command(sub, "pair-constraints", cmd_pair,
                  "commutativity constraints for a pair X inside Y", set_name="inner")
    sp.add_argument("ambient")
    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return p


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv), sys.stdout)
    except (CliInputError, SimplicialError, OrderingError, ComplexError,
            AlgebraError, ModuleError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InconclusiveSearch as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
