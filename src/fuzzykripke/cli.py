"""Command line interface.

Subcommands:

    eval     MODEL FORMULA [--world W]          formula values, exact decimals
    bisim    A B --type KIND                    greatest (pre)relation of a kind
    weak     A B --corpus F | --fragment F --depth D
                                                weak relations + equivalence
    hm       A B --fragment {plus,minus,full}   expressivity probe
    check    A B --type KIND --relation F       literal condition verdicts
    reverse  MODEL [-o OUT]                     transpose every relation

A call is parsed by its subcommand's parser alone; only an argv that
parser cannot take whole goes through the top-level parser, so usage
errors read as they would from it.

Exit status: 0 for success / exists / match, 1 for a negative verdict
(no relation, not equivalent, mismatch, failed check), 2 for usage or
validation errors.  All numeric output is exact decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bisim import SimType, check_conditions, greatest_pre
from .fuzzrel import FuzzyMat
from .hm import DEPTH_CAP, THETA_FOR_FRAGMENT, hm_check
from .model import KripkeModel, ModelError, _dump_json, _read_json, parse_matrix
from .syntax import BUDGET, Fragment, parse, parse_corpus
from .weak import fragment_weak, greatest_weak


def _load_relation(path: str, algebra) -> FuzzyMat:
    with open(path, encoding="utf-8") as fh:
        data = _read_json(fh.read(), path)
    if not isinstance(data, dict) or "relation" not in data:
        raise ModelError(f"{path} must be a JSON object with a 'relation' key")
    return parse_matrix(algebra, data["relation"], f"{path}: relation")


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
        sys.stdout.write(_dump_json(payload) + "\n")
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
    if args.corpus is not None and (args.depth, args.budget) != (None, None):
        raise ValueError("--depth and --budget go with --fragment, not with --corpus")
    m1, m2 = map(KripkeModel.load, (args.model_a, args.model_b))
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8") as fh:
            formulas = parse_corpus(fh.read())
        if not formulas:
            raise ModelError(f"corpus {args.corpus} contains no formulae")
        report = greatest_weak(m1, m2, formulas)
    else:
        report = fragment_weak(
            m1, m2, Fragment(args.fragment), 1 if args.depth is None else args.depth,
            BUDGET if args.budget is None else args.budget,
        )

    def human(out):
        out.write(f"formulas: {report.formula_count}")
        if report.truncated:
            out.write(" (budget exhausted)")
        out.write("\n")
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
    phi = _load_relation(args.relation, m1.algebra)
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
    # no defaults here, so that either next to --corpus is refused
    p.add_argument("--depth", type=int, help="enumeration depth (default 1)")
    p.add_argument("--budget", type=int, help=f"class budget (default {BUDGET})")

    p = command("hm", cmd_hm, "expressivity probe: weak ladder vs strong matrix", *pair)
    p.add_argument("--fragment", required=True, choices=[f.value for f in THETA_FOR_FRAGMENT])
    p.add_argument("--depth-cap", type=int, default=DEPTH_CAP)
    p.add_argument("--budget", type=int, default=BUDGET)

    p = command("check", cmd_check, "verify a relation against the defining conditions", *pair)
    p.add_argument("--type", required=True, choices=sim_kinds)
    p.add_argument("--relation", required=True, help="JSON file with a 'relation' matrix")

    p = command("reverse", cmd_reverse, "write the reverse model (transposed relations)",
                "model", formats=False)
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    parser.subcommands = sub.choices  # name -> its parser, for _parse
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and then reused."""
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with a well-formed subcommand call
    parsed by its own parser alone.  Any other argv, an empty one, one
    not led by a subcommand or one that leaves arguments over, goes
    through the whole parser, whose usage errors are the ones printed."""
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ModelError, AlgebraError, ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
