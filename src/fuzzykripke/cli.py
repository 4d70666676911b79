"""Command line interface.

Subcommands:

    eval     MODEL FORMULA [--world W]          formula values, exact decimals
    bisim    A B --type KIND                    greatest (pre)relation of a kind
    weak     A B --corpus F | --fragment F --depth D
                                                weak relations + equivalence
    hm       A B --fragment {plus,minus,full}   expressivity probe
    check    A B --type KIND --relation F       literal condition verdicts
    reverse  MODEL [-o OUT]                     transpose every relation

Exit status: 0 for success / exists / match, 1 for a negative verdict
(no relation, not equivalent, mismatch, failed check), 2 for usage or
validation errors.  All numeric output is exact decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError, format_value
from .bisim import SimType, check_conditions, greatest_pre
from .fuzzrel import FuzzyMat
from .hm import hm_check
from .model import KripkeModel, ModelError, parse_rows
from .syntax import Fragment, ParseError, enumerate_formulas, parse, parse_corpus
from .weak import enumerated_weak, greatest_weak


def _load_relation(path: str, algebra, shape) -> FuzzyMat:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict) or "relation" not in data:
        raise ModelError(f"{path} must be a JSON object with a 'relation' key")
    mat = FuzzyMat(algebra, parse_rows(data["relation"], f"{path}: relation"))
    if mat.shape != shape:
        raise ModelError(f"relation shape {mat.shape} does not match models {shape}")
    return mat


def _print_matrix(matrix: FuzzyMat, rows, cols, out) -> None:
    width = max(
        [len(w) for w in rows]
        + [len(format_value(v)) for row in matrix.rows for v in row]
        + [len(c) for c in cols]
    )
    header = " ".join(c.rjust(width) for c in cols)
    out.write(" " * (width + 2) + header + "\n")
    for name, row in zip(rows, matrix.rows):
        cells = " ".join(format_value(v).rjust(width) for v in row)
        out.write(f"{name.ljust(width)}  {cells}\n")


def _emit(args, payload: dict, human_lines) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        human_lines(sys.stdout)


def cmd_eval(args) -> int:
    model = KripkeModel.load(args.model)
    formula = parse(args.formula)
    vec = model.eval_vec(formula)
    if args.world is not None:
        value = vec[model.world_index(args.world)]
        payload = {"world": args.world, "value": format_value(value)}

        def human(out):
            out.write(format_value(value) + "\n")

    else:
        payload = {
            "worlds": list(model.worlds),
            "values": [format_value(v) for v in vec],
        }

        def human(out):
            out.write(" ".join(format_value(v) for v in vec) + "\n")

    _emit(args, payload, human)
    return 0


def cmd_bisim(args) -> int:
    m1 = KripkeModel.load(args.model_a)
    m2 = KripkeModel.load(args.model_b)
    report = greatest_pre(m1, m2, SimType(args.type))

    def human(out):
        out.write(f"type: {report.sim_type.value}\n")
        _print_matrix(report.matrix, report.row_worlds, report.col_worlds, out)
        out.write(f"iterations: {report.iterations}\n")
        out.write(f"satisfies condition -1: {'yes' if report.satisfies_condition1 else 'no'}\n")
        out.write(f"nonempty: {'yes' if report.nonempty else 'no'}\n")
        out.write(f"exists: {'yes' if report.exists else 'no'}\n")

    _emit(args, report.to_dict(), human)
    return 0 if report.exists else 1


def cmd_weak(args) -> int:
    m1 = KripkeModel.load(args.model_a)
    m2 = KripkeModel.load(args.model_b)
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8") as fh:
            formulas = parse_corpus(fh.read())
        if not formulas:
            raise ModelError(f"corpus {args.corpus} contains no formulae")
        report = greatest_weak(m1, m2, formulas)
    else:
        enum = enumerate_formulas(
            m1, m2, Fragment(args.fragment), args.depth, budget=args.budget
        )
        report = enumerated_weak(m1, m2, enum)

    def human(out):
        out.write(f"formulas: {report.formula_count}\n")
        out.write("greatest weak presimulation:\n")
        _print_matrix(report.presimulation, report.row_worlds, report.col_worlds, out)
        out.write("greatest weak prebisimulation:\n")
        _print_matrix(report.prebisimulation, report.row_worlds, report.col_worlds, out)
        out.write(f"simulation exists: {'yes' if report.simulation_exists else 'no'}\n")
        out.write(f"bisimulation exists: {'yes' if report.bisimulation_exists else 'no'}\n")
        out.write(f"equivalent: {'yes' if report.equivalent else 'no'}\n")

    _emit(args, report.to_dict(), human)
    return 0 if report.equivalent else 1


def cmd_hm(args) -> int:
    m1 = KripkeModel.load(args.model_a)
    m2 = KripkeModel.load(args.model_b)
    report = hm_check(
        m1, m2, Fragment(args.fragment),
        max_depth=args.depth_cap, budget=args.budget,
    )

    def human(out):
        out.write(f"fragment: {report.fragment.value}  type: {report.sim_type.value}\n")
        out.write("strong matrix:\n")
        _print_matrix(
            report.strong.matrix, report.strong.row_worlds, report.strong.col_worlds, out
        )
        for step in report.steps:
            out.write(f"depth {step.depth}: {step.class_count} classes")
            if step.truncated:
                out.write(" (budget exhausted)")
            out.write("\n")
            _print_matrix(step.matrix, report.strong.row_worlds, report.strong.col_worlds, out)
        if report.converged_at is not None:
            out.write(f"stabilized at depth {report.converged_at}\n")
        else:
            out.write("not stabilized within the depth cap\n")
        out.write(f"match: {'yes' if report.match else 'no'}\n")
        if report.first_mismatch:
            pair = report.first_mismatch["pair"]
            out.write(
                f"first mismatch at ({pair[0]}, {pair[1]}): "
                f"weak {report.first_mismatch['weak']} vs "
                f"strong {report.first_mismatch['strong']}\n"
            )

    _emit(args, report.to_dict(), human)
    return 0 if report.match else 1


def cmd_check(args) -> int:
    m1 = KripkeModel.load(args.model_a)
    m2 = KripkeModel.load(args.model_b)
    sim_type = SimType(args.type)
    phi = _load_relation(
        args.relation, m1.algebra, (len(m1.worlds), len(m2.worlds))
    )
    checks = check_conditions(m1, m2, phi, sim_type)
    nonempty = not phi.is_zero()
    all_hold = all(c.holds for c in checks)
    payload = {
        "type": sim_type.value,
        "all_conditions_hold": all_hold,
        "nonempty": nonempty,
        "is_relation": all_hold and nonempty,
        "conditions": [c.to_dict() for c in checks],
    }

    def human(out):
        for c in checks:
            out.write(f"{c.name}: {'pass' if c.holds else 'FAIL'}")
            if c.violation:
                out.write(f"  first violation: {c.violation}")
            out.write("\n")
        out.write(f"nonempty: {'yes' if nonempty else 'no'}\n")
        verdict = "yes" if all_hold and nonempty else "no"
        out.write(f"relation of type {sim_type.value}: {verdict}\n")

    _emit(args, payload, human)
    return 0 if all_hold and nonempty else 1


def cmd_reverse(args) -> int:
    model = KripkeModel.load(args.model)
    text = model.reverse().to_json()
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzykripke",
        description="Fuzzy multimodal Kripke models: evaluation, simulations, "
        "bisimulations, and expressivity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim_kinds = [t.value for t in SimType]

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world", help="report a single world instead of all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bisim", help="greatest (pre)simulation or (pre)bisimulation")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--type", required=True, choices=sim_kinds)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("weak", help="greatest weak relations for a formula set")
    p.add_argument("model_a")
    p.add_argument("model_b")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", help="file with one formula per line")
    source.add_argument(
        "--fragment", choices=[f.value for f in Fragment],
        help="enumerate this fragment instead of reading a corpus",
    )
    p.add_argument("--depth", type=int, default=1, help="enumeration depth")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_weak)

    p = sub.add_parser("hm", help="expressivity probe: weak ladder vs strong matrix")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--fragment", required=True, choices=("plus", "minus", "full"))
    p.add_argument("--depth-cap", type=int, default=4)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_hm)

    p = sub.add_parser("check", help="verify a relation against the defining conditions")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--type", required=True, choices=sim_kinds)
    p.add_argument("--relation", required=True, help="JSON file with a 'relation' matrix")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reverse", help="write the reverse model (transposed relations)")
    p.add_argument("model")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_reverse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, AlgebraError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
