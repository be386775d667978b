"""Command-line interface.

Subcommands over a constraint file (one constraint per line, '#'
comments, variables x1..xn inferred from the highest index used):

    check      feasibility verdict (exit 0 feasible / 1 infeasible)
    close      tightened bound matrix (JSON or row/col/value lines)
    solve      verdict, variable intervals and a witness when bounded
    bounds     variable intervals only
    subclass   syntactic subclass and whether closure is exact on it
    explain    for infeasible input, a negative-weight certificate

Exit codes: 0 ok/feasible, 1 infeasible, 2 parse or configuration error,
3 verdict disagreement between closure and the elimination oracle in
--oracle mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Sequence, TextIO

from . import __version__
from .closure import ClosureResult, classify, close, exactness_of
from .core import (
    Constraint4,
    ParseError,
    format_bound,
    format_constraint,
    parse_constraints,
)
from .fmoracle import LinearSystem, ResourceLimitError, fm_feasible
from .lindep import (
    DEFAULT_MAX_CONSTRAINTS,
    DEFAULT_MAX_SIZE,
    SizeLimitError,
    cycle_weight,
    enumerate_simple_hcycles,
)
from .matrix2d import MAX_VARIABLES, load, to_json_obj
from .solver import solve as run_solve

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_ORACLE_MISMATCH = 3


@dataclass
class RunConfig:
    command: str
    input_path: str
    fmt: str = "text"
    oracle: bool = False
    max_sweeps: int | None = None
    witness_anyway: bool = False
    max_cycle_size: int = DEFAULT_MAX_SIZE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every
    ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="quadcsp",
        description=(
            "Exact solver for constraints of the form "
            "(xi - xj) - (xp - xq) <= m over the rationals."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check", "report feasible/infeasible"),
        ("close", "emit the tightened bound matrix"),
        ("solve", "full report: verdict, intervals, witness"),
        ("bounds", "variable intervals"),
        ("subclass", "syntactic subclass and exactness"),
        ("explain", "negative-cycle certificate for infeasible input"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="constraint file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )
        p.add_argument(
            "--oracle", action="store_true",
            help="cross-check the verdict with the elimination oracle",
        )
        p.add_argument(
            "--max-sweeps", type=int, default=None, metavar="N",
            help="override the cap on closure rounds",
        )
        if name == "solve":
            p.add_argument(
                "--witness-anyway", action="store_true",
                help="pin unbounded variables toward 0 and extract anyway",
            )
        if name == "explain":
            p.add_argument(
                "--max-cycle-size", type=int, default=DEFAULT_MAX_SIZE,
                metavar="K", help="cycle enumeration size cap",
            )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, input_path=args.input)
    cfg.fmt = args.format
    cfg.oracle = args.oracle
    cfg.max_sweeps = args.max_sweeps
    cfg.witness_anyway = getattr(args, "witness_anyway", False)
    cfg.max_cycle_size = getattr(args, "max_cycle_size", DEFAULT_MAX_SIZE)
    if cfg.max_sweeps is not None and cfg.max_sweeps <= 0:
        raise ParseError("--max-sweeps must be positive")
    if cfg.max_cycle_size <= 0:
        raise ParseError("--max-cycle-size must be positive")
    return cfg


def _read_constraints(path: str) -> tuple[list[Constraint4], int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraints(fh.read())


def _oracle_verdict_check(
    feasible: bool, constraints, n, err: TextIO
) -> bool:
    oracle = fm_feasible(LinearSystem.from_constraints(constraints, n))
    if oracle != feasible:
        print(
            "ORACLE DISAGREEMENT: closure says "
            f"{'feasible' if feasible else 'infeasible'} but elimination "
            f"says {'feasible' if oracle else 'infeasible'}",
            file=err,
        )
        return False
    return True


def _interval_text(lo, hi) -> str:
    return f"[{format_bound(lo)}, {format_bound(hi)}]"


def _closed(cfg: RunConfig, constraints, n) -> ClosureResult:
    return close(
        load(constraints, n),
        subclass=classify(constraints),
        max_sweeps=cfg.max_sweeps,
    )


def run(
    cfg: RunConfig, out: TextIO | None = None, err: TextIO | None = None
) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    constraints, n = _read_constraints(cfg.input_path)

    if cfg.command == "subclass":
        sub = classify(constraints)
        exact = exactness_of(sub)
        if cfg.fmt == "json":
            print(
                json.dumps(
                    {"subclass": sub.value, "exactness": exact.value},
                    separators=(",", ":"),
                ),
                file=out,
            )
        else:
            print(f"{sub.value} / {exact.value}", file=out)
        return EXIT_OK

    if n > MAX_VARIABLES:
        raise SizeLimitError(
            f"x{n} exceeds the supported maximum of {MAX_VARIABLES} variables"
        )

    if cfg.command == "explain" and len(constraints) > DEFAULT_MAX_CONSTRAINTS:
        raise SizeLimitError(
            f"explain handles at most {DEFAULT_MAX_CONSTRAINTS} constraints"
        )

    if cfg.command == "solve":
        report = run_solve(
            constraints,
            n,
            witness_anyway=cfg.witness_anyway,
            max_sweeps=cfg.max_sweeps,
        )
        closed = report.closed
        feasible = report.feasible
    else:
        closed = _closed(cfg, constraints, n)
        feasible = closed.feasible
        report = None

    if cfg.oracle and not _oracle_verdict_check(feasible, constraints, n, err):
        return EXIT_ORACLE_MISMATCH

    status = EXIT_OK if feasible else EXIT_INFEASIBLE

    if cfg.command == "check":
        if cfg.fmt == "json":
            print(
                json.dumps({"feasible": feasible}, separators=(",", ":")),
                file=out,
            )
        else:
            print("feasible" if feasible else "infeasible", file=out)
        return status

    if cfg.command == "close":
        obj = to_json_obj(closed.matrix)
        if cfg.fmt == "json":
            doc = {
                "feasible": feasible,
                "sweeps_used": closed.sweeps_used,
                "exactness": closed.exactness.value,
                "matrix": obj,
            }
            print(json.dumps(doc, separators=(",", ":")), file=out)
        else:
            print(f"# n={obj['n']} feasible={str(feasible).lower()}", file=out)
            print(
                f"# sweeps_used={closed.sweeps_used} "
                f"exactness={closed.exactness.value}",
                file=out,
            )
            for row, col, value in obj["cells"]:
                print(f"{row}\t{col}\t{value}", file=out)
        return status

    if cfg.command == "bounds":
        if not feasible:
            if cfg.fmt == "json":
                print(
                    json.dumps(
                        {"feasible": False, "domains": None},
                        separators=(",", ":"),
                    ),
                    file=out,
                )
            else:
                print("infeasible", file=out)
            return status
        from .solver import reduce_domains

        domains = reduce_domains(closed.matrix)
        if cfg.fmt == "json":
            doc = {
                "feasible": True,
                "domains": [
                    [format_bound(lo), format_bound(hi)] for lo, hi in domains
                ],
            }
            print(json.dumps(doc, separators=(",", ":")), file=out)
        else:
            for i, (lo, hi) in enumerate(domains, start=1):
                print(f"x{i} in {_interval_text(lo, hi)}", file=out)
        return status

    if cfg.command == "solve":
        sub = classify(constraints)
        if cfg.fmt == "json":
            doc = {
                "feasible": feasible,
                "subclass": sub.value,
                "exactness": closed.exactness.value,
                "sweeps_used": closed.sweeps_used,
                "domains": None
                if report.domains is None
                else [
                    [format_bound(lo), format_bound(hi)]
                    for lo, hi in report.domains
                ],
                "witness": None
                if report.witness is None
                else [str(v) for v in report.witness],
                "matrix": to_json_obj(closed.matrix),
            }
            print(json.dumps(doc, separators=(",", ":")), file=out)
        else:
            print("feasible" if feasible else "infeasible", file=out)
            print(f"subclass: {sub.value} / {closed.exactness.value}", file=out)
            print(f"sweeps used: {closed.sweeps_used}", file=out)
            if report.domains is not None:
                for i, (lo, hi) in enumerate(report.domains, start=1):
                    print(f"x{i} in {_interval_text(lo, hi)}", file=out)
            if report.witness is not None:
                parts = " ".join(
                    f"x{k}={v}" for k, v in enumerate(report.witness)
                )
                print(f"witness: {parts}", file=out)
            elif feasible:
                print("witness: none (system unbounded)", file=out)
        return status

    if cfg.command == "explain":
        if feasible:
            if cfg.fmt == "json":
                print(
                    json.dumps(
                        {"feasible": True, "cycle": None},
                        separators=(",", ":"),
                    ),
                    file=out,
                )
            else:
                print("feasible", file=out)
            return status
        certificate = _negative_cycle(constraints, cfg.max_cycle_size)
        if cfg.fmt == "json":
            doc = {"feasible": False, "cycle": certificate}
            print(json.dumps(doc, separators=(",", ":")), file=out)
        else:
            if certificate is None:
                print(
                    "infeasible (no simple-cycle certificate within "
                    f"size {cfg.max_cycle_size})",
                    file=out,
                )
            else:
                print("infeasible; negative combination:", file=out)
                for text, coeff in zip(
                    certificate["constraints"], certificate["coeffs"]
                ):
                    print(f"  {coeff} * ({text})", file=out)
                print(f"  total weight {certificate['weight']} < 0", file=out)
        return status

    raise ParseError(f"unknown command {cfg.command!r}")


def _negative_cycle(constraints, max_cycle_size) -> dict | None:
    """A certificate dict for one negative simple cycle, or None.

    Contradictory zero-vector constraints (0 <= m with m < 0) are their
    own one-line certificate and are reported first.
    """
    for c in constraints:
        if not any(c.indices()) and c.m < 0:
            return {
                "constraints": [format_constraint(c)],
                "coeffs": ["1"],
                "weight": str(c.m),
            }
    for cycle in enumerate_simple_hcycles(
        constraints, max_size=max_cycle_size
    ):
        weight = cycle_weight(cycle)
        if weight < 0:
            return {
                "constraints": [format_constraint(m) for m in cycle.members],
                "coeffs": [str(v) for v in cycle.coeffs],
                "weight": str(weight),
            }
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (ParseError, SizeLimitError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
