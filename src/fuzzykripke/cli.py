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
import functools
import json
import sys

from .bisim import SimType, check_conditions, greatest_pre
from .fuzzrel import FuzzyMat
from .hm import hm_check
from .model import KripkeModel, ModelError, _read_json, parse_matrix
from .syntax import FormulaEnumeration, Fragment, parse, parse_corpus
from .weak import enumerated_weak, greatest_weak


def _load_relation(path: str, algebra, shape) -> FuzzyMat:
    with open(path, encoding="utf-8") as fh:
        data = _read_json(fh.read(), path)
    if not isinstance(data, dict) or "relation" not in data:
        raise ModelError(f"{path} must be a JSON object with a 'relation' key")
    mat = parse_matrix(algebra, data["relation"], f"{path}: relation")
    if mat.shape != shape:
        raise ModelError(f"relation shape {mat.shape} does not match models {shape}")
    return mat


def _print_matrix(matrix: FuzzyMat, rows, cols, out) -> None:
    cells = matrix.format()
    width = max(
        [len(w) for w in rows]
        + [len(cell) for row in cells for cell in row]
        + [len(c) for c in cols]
    )
    header = " ".join(c.rjust(width) for c in cols)
    out.write(" " * (width + 2) + header + "\n")
    for name, row in zip(rows, cells):
        line = " ".join(cell.rjust(width) for cell in row)
        out.write(f"{name.ljust(width)}  {line}\n")


def _emit(args, payload: dict, human_lines) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        human_lines(sys.stdout)


def cmd_eval(args) -> int:
    model = KripkeModel.load(args.model)
    formula = parse(args.formula)
    values = model.eval_vec(formula).format()
    if args.world is not None:
        value = values[model.world_index(args.world)]
        payload = {"world": args.world, "value": value}

        def human(out):
            out.write(value + "\n")

    else:
        payload = {"worlds": list(model.worlds), "values": values}

        def human(out):
            out.write(" ".join(values) + "\n")

    _emit(args, payload, human)
    return 0


def cmd_bisim(args) -> int:
    m1, m2 = map(KripkeModel.load, (args.model_a, args.model_b))
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
    m1, m2 = map(KripkeModel.load, (args.model_a, args.model_b))
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8") as fh:
            formulas = parse_corpus(fh.read())
        if not formulas:
            raise ModelError(f"corpus {args.corpus} contains no formulae")
        report = greatest_weak(m1, m2, formulas)
    else:
        enum = FormulaEnumeration(m1, m2, Fragment(args.fragment), args.budget)
        report = enumerated_weak(m1, m2, enum.extend_to_depth(args.depth))

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
    m1, m2 = map(KripkeModel.load, (args.model_a, args.model_b))
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
    m1, m2 = map(KripkeModel.load, (args.model_a, args.model_b))
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
    pair = ("model_a", "model_b")

    def command(name, func, help, *models, formats=True):
        p = sub.add_parser(name, help=help)
        for model in models:
            p.add_argument(model)
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = command("eval", cmd_eval, "evaluate a formula on a model", "model")
    p.add_argument("formula")
    p.add_argument("--world", help="report a single world instead of all")

    p = command("bisim", cmd_bisim, "greatest (pre)simulation or (pre)bisimulation", *pair)
    p.add_argument("--type", required=True, choices=sim_kinds)

    p = command("weak", cmd_weak, "greatest weak relations for a formula set", *pair)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", help="file with one formula per line")
    source.add_argument(
        "--fragment", choices=[f.value for f in Fragment],
        help="enumerate this fragment instead of reading a corpus",
    )
    p.add_argument("--depth", type=int, default=1, help="enumeration depth")
    p.add_argument("--budget", type=int, default=200_000)

    p = command("hm", cmd_hm, "expressivity probe: weak ladder vs strong matrix", *pair)
    p.add_argument("--fragment", required=True, choices=("plus", "minus", "full"))
    p.add_argument("--depth-cap", type=int, default=4)
    p.add_argument("--budget", type=int, default=200_000)

    p = command("check", cmd_check, "verify a relation against the defining conditions", *pair)
    p.add_argument("--type", required=True, choices=sim_kinds)
    p.add_argument("--relation", required=True, help="JSON file with a 'relation' matrix")

    p = command("reverse", cmd_reverse, "write the reverse model (transposed relations)",
                "model", formats=False)
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ModelError, AlgebraError, ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
