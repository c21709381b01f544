"""Command-line entry point: verify, build-w2, export, tables.

Exit codes: 0 = expected verdict reproduced, 1 = verdict mismatch or a
failed check, 2 = usage error (an `--out` or `--export` path that cannot
be written is one), 3 = a group or table past a fixed size cap
(`psl2.ELEMENT_LIMIT` or `gfq.TABLE_LIMIT`).

Reports are emitted as json, csv or text.  JSON reports carry a schema
number, the package version and a hash of the verifier registry, so
golden files recorded against a different registry fail loudly.  Records
never embed wall-clock times, which keeps reports byte-identical across
runs of the same configuration; progress chatter goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import sys

from . import __version__
from .classify import (
    PAIRS,
    THEOREM,
    THEOREM_QMAX,
    TRANSITIVE_TABLE,
    VERIFIERS,
    build_w2,
    registry_hash,
    verify,
)
from .errors import BudgetExceededError, VerificationError
from .geometry import export_incidence, parse_incidence
from .subgroups import sporadic_table

def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like A..B")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError("empty range")
    return lo_i, hi_i


def _parse_workers(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if n < 1:
        raise argparse.ArgumentTypeError("worker count must be >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadforge",
        description="verification engine for the point- and line-primitive "
        "PSL(2,q) generalized quadrangle classification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent parser per shared option: each subcommand takes only those it reads
    fmt, out = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    fmt.add_argument("--format", choices=("json", "csv", "text"), default="text")
    out.add_argument("--out", metavar="PATH", default=None)

    p_verify = sub.add_parser("verify", parents=[fmt, out], help="re-run one elimination and compare verdicts")
    p_verify.add_argument("--lemma", required=True, metavar="TAG")
    p_verify.add_argument("--range", type=_parse_range, default=None, dest="qrange")
    p_verify.add_argument("--qmax", type=int, default=None)
    p_verify.add_argument("--workers", type=_parse_workers, default=1)

    p_w2 = sub.add_parser("build-w2", parents=[fmt, out], help="construct and verify the order-2 quadrangle at q = 9")
    p_w2.add_argument("--export", metavar="PATH", default=None, dest="export_path")
    p_w2.add_argument("--all-selections", action="store_true")

    sub.add_parser("export", parents=[out], help="write the verified quadrangle as an incidence file")

    p_tables = sub.add_parser("tables", parents=[fmt, out], help="print the reference tables as data")
    p_tables.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5), default=None)
    return parser


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def make_report(command: str, config: dict, records, outcome: dict) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "registry_hash": registry_hash(),
        "command": command,
        "config": config,
        "records": [r.to_dict() for r in records],
        "outcome": outcome,
    }


def emit_report(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    if fmt == "csv":
        stream.write("lemma_tag,verdict,scan_size,survivors,notes\n")
        for rec in report["records"]:
            surv = ";".join("/".join(map(str, s)) for s in rec["survivors"])
            notes = ";".join(rec["notes"]).replace(",", " ")
            stream.write(
                f"{rec['lemma_tag']},{rec['verdict']},{rec['scan_size']},{surv},{notes}\n"
            )
        stream.write(f"outcome,,,{report['outcome'].get('ok')},\n")
        return
    # text: case table layout for human diffing
    stream.write(
        f"quadforge {report['version']} registry {report['registry_hash']} "
        f"command {report['command']}\n"
    )
    header = f"{'tag':<28}{'inputs':<34}{'tested':>8}  {'survivors':<18}verdict\n"
    stream.write(header)
    stream.write("-" * len(header) + "\n")
    for rec in report["records"]:
        inputs = rec["inputs"]
        window = ""
        if "q_lo" in inputs:
            window = f"q in [{inputs['q_lo']}, {inputs['q_hi']}]"
        elif "q0_lo" in inputs:
            window = f"q0 in [{inputs['q0_lo']}, {inputs['q0_hi']}]"
        elif "p_lo" in inputs:
            window = f"p in [{inputs['p_lo']}, {inputs['p_hi']}]"
        surv = " ".join("({},{},{})".format(*s) for s in rec["survivors"]) or "none"
        stream.write(
            f"{rec['lemma_tag']:<28}{window:<34}{rec['scan_size']:>8}  {surv:<18}{rec['verdict']}\n"
        )
    out = report["outcome"]
    if "points" in out:
        stream.write(
            f"geometry: {out['points']} points, {out['lines']} lines, "
            f"order ({out['order'][0]},{out['order'][1]}), {out['flags']} flags\n"
        )
        for dc in out.get("double_cosets", ()):
            stream.write(
                f"  double coset rep {dc['rep']}: size {dc['size']}, "
                f"stabilizer meet {dc['meet']}\n"
            )
        for sel in out.get("selections", ()):
            stream.write(
                f"  selection {sel['selection']}: order ({sel['s']},{sel['t']})"
                f"{' thick' if sel['thick'] else ''}\n"
            )
    stream.write(f"outcome: {'ok' if out.get('ok') else 'MISMATCH'}\n")


class _Unwritable(Exception):
    """An output path that cannot be written: a usage error (exit 2)."""


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a command writes to: the file at path, or stdout when
    path is None.  An OSError from opening, writing or closing the file
    becomes `_Unwritable` with a one-line message."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(*paths: str | None) -> None:
    """Refuse an output path before any work: one that names a directory,
    or whose directory is missing or not writable.  Raises `_Unwritable`,
    as `_output` would after the run, and creates no file."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(folder):
            code = errno.ENOENT
        elif not os.access(folder, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            continue
        raise _Unwritable(f"cannot write {path}: {os.strerror(code)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    row = VERIFIERS.get(args.lemma)  # None: the whole theorem
    if row is None and args.lemma != THEOREM:
        return _usage(f"unknown lemma tag {args.lemma!r}")
    if args.qrange and (row is None or row.param is None):
        return _usage(f"--range applies only to lemmas with a range; {args.lemma} has none")
    if args.qmax is not None and (row is not None or args.qmax < 0):
        return _usage("--qmax applies only to --lemma theorem, and must be >= 0")
    qmax = None if row else (THEOREM_QMAX if args.qmax is None else args.qmax)
    outcome = verify(args.lemma, args.qrange, args.workers, qmax)
    if args.qrange and not any(r.scan_size for r in outcome.records):
        lo, hi = args.qrange
        d_lo, d_hi = row.default_range
        return _usage(
            f"--range {lo}..{hi} tests nothing for {args.lemma}: every record has scan_size 0 "
            f"(the range counts {row.param}; its default is {d_lo}..{d_hi})"
        )
    config = {
        "lemma": args.lemma,
        "range": list(args.qrange) if args.qrange else None,
        "workers": args.workers,
        "qmax": qmax,
    }
    report = make_report(
        "verify",
        config,
        outcome.records,
        {
            "tag": outcome.tag,
            "expected_verdict": outcome.expected_verdict,
            "final_verdict": outcome.final_verdict,
            "ok": outcome.ok,
        },
    )
    with _output(args.out) as stream:
        emit_report(report, args.format, stream)
    return 0 if outcome.ok else 1


def _read_back(res, stream) -> None:
    """Parse an incidence file that `export_incidence` wrote for W(2): the
    reader re-checks its counts, degrees and axioms, and it must list
    exactly the geometry's flags at the verified order."""
    geom, v = res.geometry, res.verdict
    try:
        got = parse_incidence(stream)
    except ValueError as exc:
        raise VerificationError("export-readback", str(exc))
    flags = [(p, l) for p, row in enumerate(geom.rows) for l in range(geom.n_lines) if row >> l & 1]
    if got[:4] != (geom.n_points, geom.n_lines, v.s, v.t) or sorted(got[4]) != flags:
        raise VerificationError("export-readback", "the file's flags are not the geometry's")


def cmd_build_w2(args, export_only: bool = False) -> int:
    res = build_w2()
    v = res.verdict
    res.checks()  # W(2)'s record judges it by the same checks; raises on a failed one
    export_path = getattr(args, "export_path", None) or (args.out if export_only else None)
    if export_path:
        with _output(export_path) as fh:
            export_incidence(res.geometry, fh, v.s, v.t)
        with open(export_path) as fh:
            _read_back(res, fh)
        print(f"incidence file written to {export_path}", file=sys.stderr)
    if export_only:
        if not export_path:
            buf = io.StringIO()
            export_incidence(res.geometry, buf, v.s, v.t)
            _read_back(res, io.StringIO(buf.getvalue()))
            sys.stdout.write(buf.getvalue())
        return 0
    selections = [
        {"selection": list(sel), "s": vv.s, "t": vv.t, "thick": vv.thick}
        for sel, vv, _ in res.all_selections
    ]
    outcome = {
        "points": res.geometry.n_points,
        "lines": res.geometry.n_lines,
        "order": [v.s, v.t],
        "flags": res.geometry.flag_count(),
        "double_cosets": [
            {"rep": dc.rep, "size": dc.size, "meet": dc.meet_order}
            for dc in res.decomposition
        ],
        "selections": selections if args.all_selections else selections[:1],
        "ok": True,
    }
    report = make_report(
        "build-w2",
        {"all_selections": args.all_selections, "export": export_path},
        [],
        outcome,
    )
    with _output(args.out) as stream:
        emit_report(report, args.format, stream)
    return 0


def cmd_export(args) -> int:
    return cmd_build_w2(args, export_only=True)


def _tables_data() -> dict:
    t1 = [
        {
            "group": row.group,
            "m0": row.m0_type,
            "m": row.m_type,
            "index": row.index if row.index is not None else "q(q^2-1)/24",
            "condition": row.condition,
        }
        for row in sporadic_table()
    ]
    # table 2: per family, its type, index [G:M] and where it is maximal
    families = {
        1: ("C_p^f : C_{(q-1)/gcd(2,q-1)}", "q+1", ""),
        2: ("PGL(2,q0)", "q0(q0^2+1)/2", "q = q0^2 odd"),
        3: ("A_5", "q(q^2-1)/120", "q = p = +-1 (mod 10), or q = p^2 with p = +-3 (mod 10)"),
        4: ("A_4", "p(p^2-1)/24", "q = p = +-3 (mod 8), p != +-1 (mod 10)"),
        5: ("S_4", "p(p^2-1)/48", "q = p = +-1 (mod 8)"),
        6: ("PSL(2,q0)", "q0^(r-1)(q0^(2r)-1)/(q0^2-1)", "q = q0^r odd, r an odd prime"),
        7: ("PGL(2,q0)", "q0^(r-1)(q0^(2r)-1)/(q0^2-1)", "q = 2^f = q0^r, r prime, q0 != 2"),
        8: ("D_{2(q-1)/gcd(2,q-1)}", "q(q+1)/2", "q not in {5, 7, 9, 11}"),
        9: ("D_{2(q+1)/gcd(2,q-1)}", "q(q-1)/2", "q not in {7, 9}"),
    }
    t2 = [{"case": c, "type": t, "index": i, "condition": k} for c, (t, i, k) in families.items()]
    t3 = []
    for (i, j), pair in PAIRS.items():
        row = {"m0_case": i, "m1_case": j}
        if pair.published:
            row["range"] = list(pair.published)
        if pair.condition:
            row["condition"] = pair.condition
        if pair.note:
            row["note"] = pair.note
        t3.append(row)
    # tables 4 and 5 are two projections of one table: the class data, and
    # the cyclic K columns with the fixed count as K's index
    t4 = [dict(zip(row._fields[:-2], row)) for row in TRANSITIVE_TABLE]
    t5 = [
        {"case_id": r.case_id, "subcase": r.subcase, "centralizer": r.centralizer,
         "k_order": r.k_order, "k_meet": r.k_meet, "index": r.fixed, "condition": r.condition}
        for r in TRANSITIVE_TABLE
    ]
    return {"1": t1, "2": t2, "3": t3, "4": t4, "5": t5}


def cmd_tables(args) -> int:
    data = _tables_data()
    if args.table is not None:
        data = {str(args.table): data[str(args.table)]}
    with _output(args.out) as stream:
        if args.format == "json":
            json.dump({"schema": 1, "version": __version__, "tables": data}, stream, indent=2, sort_keys=True)
            stream.write("\n")
        elif args.format == "csv":
            for name, rows in sorted(data.items()):
                keys = sorted({k for row in rows for k in row})
                stream.write(f"table,{name}\n")
                stream.write(",".join(keys) + "\n")
                for row in rows:
                    stream.write(",".join(str(row.get(k, "")) for k in keys) + "\n")
        else:
            for name, rows in sorted(data.items()):
                stream.write(f"table {name}\n")
                for row in rows:
                    stream.write("  " + "  ".join(f"{k}={v}" for k, v in row.items()) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "verify": cmd_verify,
        "build-w2": cmd_build_w2,
        "export": cmd_export,
        "tables": cmd_tables,
    }
    try:
        _check_writable(args.out, getattr(args, "export_path", None))
        return commands[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"MISMATCH: {exc.name} ({exc.detail})", file=sys.stderr)
        return 1
    except _Unwritable as exc:
        return _usage(str(exc))


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
