"""Command-line interface.

Subcommands over a constraint file (one constraint per line, '#'
comments, variables x1..xn inferred from the highest index written):

    check      feasibility verdict (exit 0 feasible / 1 infeasible)
    close      tightened bound matrix (JSON or row/col/value lines)
    solve      verdict, variable intervals and a witness when bounded
    bounds     variable intervals only
    subclass   syntactic subclass and whether closure is exact on it
    explain    for infeasible input, a negative-weight certificate

Each command builds one result document, a dict that ``--format json``
prints as it is; ``--format text`` renders the same document as lines.

Exit codes: 0 ok/feasible, 1 infeasible, 2 parse or configuration error
(including an input file that is not UTF-8), 3 the solver's own checks
disagree (the closure and the elimination oracle in --oracle mode, or an
internal error), 4 a work limit was reached before a verdict: the
closure stopped at its round cap (--max-sweeps, or the default cap)
without a contradiction, or the elimination oracle exceeded its row
budget.  Apart from argparse's usage errors, every exit above 1 prints
one line on stderr (``ORACLE DISAGREEMENT: ...`` for 3 under --oracle,
``error: ...`` otherwise) and nothing on stdout.

A reader that closes stdout early (``quadcsp close big.txt | head``) is
not an error: the rest of the output is dropped, nothing is printed on
stderr, and the exit code is the command's own, 0 or 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
from .solver import reduce_domains, solve as run_solve

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_LIMIT = 4

#: Subcommand name -> help text, in ``--help`` order.
COMMANDS = {
    "check": "report feasible/infeasible",
    "close": "emit the tightened bound matrix",
    "solve": "full report: verdict, intervals, witness",
    "bounds": "variable intervals",
    "subclass": "syntactic subclass and exactness",
    "explain": "negative-cycle certificate for infeasible input",
}


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
    for name, help_text in COMMANDS.items():
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
            help="override the cap on closure rounds; a run stopped "
            "by the cap without a contradiction has no verdict (exit 4)",
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


def _domains(domains) -> list[list[str]] | None:
    if domains is None:
        return None
    return [[format_bound(lo), format_bound(hi)] for lo, hi in domains]


def _verdict(closed: ClosureResult) -> bool:
    """The closure's verdict: a contradiction, or a stationary closure.
    A run stopped at its round cap without either has none."""
    if closed.feasible and not closed.stationary:
        raise ResourceLimitError(
            f"closure stopped at its round cap ({closed.sweeps_used}) "
            "without a verdict (see --max-sweeps)"
        )
    return closed.feasible


def _document(cfg: RunConfig, constraints, n) -> dict:
    """The result of one command: the document ``--format json`` prints."""
    if cfg.command == "subclass":
        sub = classify(constraints)
        return {"subclass": sub.value, "exactness": exactness_of(sub).value}
    if n > MAX_VARIABLES:
        raise SizeLimitError(
            f"x{n} exceeds the supported maximum of {MAX_VARIABLES} variables"
        )
    if cfg.command == "solve":
        report = run_solve(
            constraints, n, cfg.witness_anyway, max_sweeps=cfg.max_sweeps
        )
        return {
            "feasible": _verdict(report.closed),
            "subclass": classify(constraints).value,
            "exactness": report.closed.exactness.value,
            "sweeps_used": report.closed.sweeps_used,
            "domains": _domains(report.domains),
            "witness": None
            if report.witness is None
            else [str(v) for v in report.witness],
            "matrix": to_json_obj(report.closed.matrix),
        }
    closed = close(load(constraints, n), max_sweeps=cfg.max_sweeps)
    feasible = _verdict(closed)
    if cfg.command == "check":
        return {"feasible": feasible}
    if cfg.command == "close":
        return {
            "feasible": feasible,
            "sweeps_used": closed.sweeps_used,
            "exactness": closed.exactness.value,
            "matrix": to_json_obj(closed.matrix),
        }
    if cfg.command == "bounds":
        return {
            "feasible": feasible,
            "domains": _domains(reduce_domains(closed.matrix))
            if feasible
            else None,
        }
    if feasible:
        return {"feasible": feasible, "cycle": None}
    # only an infeasible verdict enumerates subsets
    if len(constraints) > DEFAULT_MAX_CONSTRAINTS:
        raise SizeLimitError(
            f"explain handles at most {DEFAULT_MAX_CONSTRAINTS} constraints"
        )
    return {
        "feasible": feasible,
        "cycle": _negative_cycle(constraints, cfg.max_cycle_size),
    }


def _text(cfg: RunConfig, doc: dict) -> list[str]:
    """The ``--format text`` lines of one result document."""
    if cfg.command == "subclass":
        return [f"{doc['subclass']} / {doc['exactness']}"]
    verdict = "feasible" if doc["feasible"] else "infeasible"
    intervals = [
        f"x{i} in [{lo}, {hi}]"
        for i, (lo, hi) in enumerate(doc.get("domains") or (), start=1)
    ]
    if cfg.command == "close":
        matrix = doc["matrix"]
        return [
            f"# n={matrix['n']} feasible={str(doc['feasible']).lower()}",
            f"# sweeps_used={doc['sweeps_used']} exactness={doc['exactness']}",
            *(f"{row}\t{col}\t{value}" for row, col, value in matrix["cells"]),
        ]
    if cfg.command == "bounds":
        return intervals if doc["feasible"] else [verdict]
    if cfg.command == "solve":
        lines = [
            verdict,
            f"subclass: {doc['subclass']} / {doc['exactness']}",
            f"sweeps used: {doc['sweeps_used']}",
            *intervals,
        ]
        if doc["witness"] is not None:
            parts = " ".join(f"x{k}={v}" for k, v in enumerate(doc["witness"]))
            lines.append(f"witness: {parts}")
        elif doc["feasible"]:
            lines.append("witness: none (system unbounded)")
        return lines
    if cfg.command == "check" or doc["feasible"]:
        return [verdict]
    cycle = doc["cycle"]
    if cycle is None:
        return [
            "infeasible (no simple-cycle certificate within "
            f"size {cfg.max_cycle_size})"
        ]
    terms = zip(cycle["constraints"], cycle["coeffs"])
    return [
        "infeasible; negative combination:",
        *(f"  {coeff} * ({text})" for text, coeff in terms),
        f"  total weight {cycle['weight']} < 0",
    ]


def run(
    cfg: RunConfig, out: TextIO | None = None, err: TextIO | None = None
) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if cfg.command not in COMMANDS:
        raise ParseError(f"unknown command {cfg.command!r}")
    constraints, n = _read_constraints(cfg.input_path)
    doc = _document(cfg, constraints, n)
    feasible = doc.get("feasible", True)  # subclass gives no verdict
    if cfg.oracle and "feasible" in doc:
        oracle = fm_feasible(LinearSystem.from_constraints(constraints, n))
        if oracle != feasible:
            print(
                "ORACLE DISAGREEMENT: closure says "
                f"{'feasible' if feasible else 'infeasible'} but elimination "
                f"says {'feasible' if oracle else 'infeasible'}",
                file=err,
            )
            return EXIT_ORACLE_MISMATCH
    try:
        if cfg.fmt == "json":
            print(json.dumps(doc, separators=(",", ":")), file=out)
        else:
            for line in _text(cfg, doc):
                print(line, file=out)
        out.flush()
    except BrokenPipeError:
        # The reader closed stdout early; the verdict stands.  What is
        # still buffered goes to devnull, so that the interpreter's final
        # flush does not fail again and print "Exception ignored".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


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
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except RuntimeError as exc:  # the solver's own checks disagree
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (ParseError, SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(
            f"error: {args.input}: not UTF-8 at byte {exc.start}", file=sys.stderr
        )
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
