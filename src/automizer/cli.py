"""Batch command line interface.

Three subcommands: ``realize`` runs the pipeline and writes a certificate,
``verify`` re-checks a certificate file from its own data, ``oracle`` prints
the brute-force automizer of a subgroup of a permutation group.

Exit codes: 0 accepted / verified, 1 check failed, 2 scale rejection."""

import argparse
import os
import sys

from .grouprep import InputGroupA, ScaleError
from .permcore import parse_cycles, read_decimal
from .realize import (
    FLAG_NAMES,
    Certificate,
    VerificationPolicy,
    automizer_oracle,
    run_pipeline,
    verify_certificate,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCALE = 2

# the oracle writes out every permutation at the file's degree, so a degree
# past this bound is refused before any permutation is parsed
ORACLE_MAX_DEGREE = 1000


def _load_input(spec: str) -> InputGroupA:
    if os.path.exists(spec):
        return InputGroupA.from_file(spec)
    return InputGroupA.from_name(spec)


def _policy(args) -> VerificationPolicy:
    bounds = {"max_n": args.max_n, "max_subgroups": args.max_subgroups}
    return VerificationPolicy(**{k: v for k, v in bounds.items() if v is not None})


def _print_summary(cert: Certificate, out) -> None:
    print("input: %s (order %d)" % (cert.input["name"], cert.input["order"]), file=out)
    if cert.biset:
        print(
            "ambient order %s, %d fusion generators, m = %s, n = %s, prime = %s"
            % (
                cert.ambient.get("order", 1),
                len(cert.fusion_generators),
                cert.biset.get("m"),
                cert.biset.get("n"),
                cert.prime,
            ),
            file=out,
        )
    for name in FLAG_NAMES:
        print("  %-20s %s" % (name, "ok" if cert.flags.get(name) else "FAILED"), file=out)
    verdict = "ACCEPTED" if cert.accepted else "NOT ACCEPTED"
    if cert.failed_stage:
        verdict += " (failed at %s)" % cert.failed_stage
    print(verdict, file=out)


def _open_out(path: str):
    """Open the certificate path for writing before the pipeline runs,
    without truncating a file already there.  Returns the file and whether
    this call made it."""
    try:
        return open(path, "xb"), True
    except FileExistsError:
        return open(path, "ab"), False


def cmd_realize(args, out) -> int:
    try:
        A = _load_input(args.group)
    except (ValueError, OSError) as exc:
        print("bad input group: %s" % exc, file=out)
        return EXIT_FAILED
    try:
        policy = _policy(args)
    except ValueError as exc:
        print("bad policy: %s" % exc, file=out)
        return EXIT_FAILED
    try:
        fh, made = _open_out(args.out)
    except OSError as exc:
        print("cannot write certificate: %s" % exc, file=out)
        return EXIT_FAILED
    written = False
    try:
        with fh:
            cert = run_pipeline(A, policy)
            # written in pieces; an existing file is truncated only once the
            # first piece, made after everything that can fail, is in hand
            chunks = cert.json_chunks()
            first = next(chunks)
            if fh.seekable():  # a pipe, such as /dev/stdout, cannot be truncated
                fh.truncate(0)
            fh.write(first)
            fh.writelines(chunks)
        written = True
    except OSError as exc:
        print("cannot write certificate: %s" % exc, file=out)
        return EXIT_FAILED
    finally:
        if made and not written:
            os.remove(args.out)
    _print_summary(cert, out)
    print("certificate written to %s" % args.out, file=out)
    return EXIT_OK if cert.accepted else EXIT_FAILED


def cmd_verify(args, out) -> int:
    try:
        cert = Certificate.load(args.cert)
    except (ValueError, OSError) as exc:
        print("unreadable certificate: %s" % exc, file=out)
        return EXIT_FAILED
    ok, report = verify_certificate(cert)
    if ok:
        print("certificate verifies: all checks recomputed clean", file=out)
        return EXIT_OK
    print("certificate REJECTED: %s" % report.get("reason", "flag mismatch"), file=out)
    if report.get("flag_mismatches"):
        print("  mismatched flags: %s" % ", ".join(report["flag_mismatches"]), file=out)
    return EXIT_FAILED


def _read_perm_group(path: str) -> tuple[list[tuple[int, ...]], int]:
    """The generators and the degree of a group file, the degree on its first
    line (its position is its line number), one permutation a line after."""
    with open(path) as fh:
        lines = [(k, ln) for k, ln in enumerate(map(str.strip, fh), 1) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty group file")
    degree = read_decimal(lines[0][1], "degree", lines[0][0])
    if degree > ORACLE_MAX_DEGREE:
        raise ScaleError("max_oracle_degree", ORACLE_MAX_DEGREE, degree)
    return [parse_cycles(ln, degree) for _, ln in lines[1:]], degree


def cmd_oracle(args, out) -> int:
    try:
        gens, degree = _read_perm_group(args.group_file)
        sub_gens = [
            parse_cycles(part.strip(), degree)
            for part in args.subgroup.split(";")
            if part.strip()
        ]
        if not sub_gens:
            raise ValueError("no subgroup generators given")
    except (ValueError, OSError) as exc:
        print("bad oracle input: %s" % exc, file=out)
        return EXIT_FAILED
    table = automizer_oracle(gens, degree, sub_gens)
    print("automizer order %d" % table.order, file=out)
    for row in table.table:
        print(" ".join(str(x) for x in row), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="automizer",
        description="realize a finite group as the automizer of a homocyclic "
        "subgroup of a perfect group, with a verifiable certificate",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_real = subs.add_parser("realize", help="run the pipeline and write a certificate")
    p_real.add_argument("--group", required=True, help="catalog name or table file path")
    p_real.add_argument(
        "--policy", choices=("full",), default="full", help="check strength; every check is exact"
    )
    p_real.add_argument("--max-n", type=int, default=None)
    p_real.add_argument("--max-subgroups", type=int, default=None)
    p_real.add_argument("--out", required=True, help="certificate output path")
    p_real.set_defaults(func=cmd_realize)

    p_ver = subs.add_parser("verify", help="re-check a certificate from its own data")
    p_ver.add_argument("--cert", required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_or = subs.add_parser("oracle", help="brute-force automizer of a subgroup")
    p_or.add_argument(
        "--group-file",
        required=True,
        help="text file: first line the degree, then one generator per line in cycle notation",
    )
    p_or.add_argument(
        "--subgroup",
        required=True,
        help="semicolon-separated subgroup generators in cycle notation",
    )
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ScaleError as exc:
        # a bound met in a stage of the pipeline names that stage
        during = " during re-check" if args.command == "verify" else ""
        print("scale rejection%s%s: %s" % (during, " at %s" % exc.stage if exc.stage else "", exc))
        return EXIT_SCALE


if __name__ == "__main__":
    sys.exit(main())
