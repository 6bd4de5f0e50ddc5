"""Command line front end for the verification tasks.

Subcommands: decompose, verify, suite.  Every stated witness runs through
tasks.run; `verify que-7.1 --a-max A --e-max E` is the Rees-ideal table and
the fiber-type check, and the json report of `verify thm-3.1` or `thm-3.2`
lists Koszul H_1 by dominant weight.  Exit codes: 0 all comparisons pass,
1 any fail, 2 usage or capacity error.  Cached json reports go to
--results-dir, or else to the MINORREL_RESULTS_DIR that tasks.run reads; a
key=value config file can set the sparse-matrix capacity cap (an integer at
least 1) and the modular prime list (at least two distinct primes, each at
least 2^16 and below 2^64).  Any other key, a key given twice, or a line
without "=", is a usage error.
"""

import argparse
import sys

from . import modlinalg
from .birep import character_A, gr_components_bivariate
from .partitions import parse_partition
from .report import emit, format_bicharacter
from .symfunc import wedge_power
from .tasks import VerificationTask, run, suite_tasks


def load_config(path):
    """Read a key=value config file; the keys are cap and primes (comma list)."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq or key not in ("cap", "primes"):
                raise ValueError(f"config line {line!r}: expected cap = N or primes = P1, P2")
            # a repeated key would silently override the line that set it first
            if key in cfg:
                raise ValueError(f"config line {line!r}: {key} is already set")
            cfg[key] = value.strip()
    return cfg


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact for n < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def apply_config(cfg):
    if "primes" in cfg:
        primes = tuple(int(p) for p in cfg["primes"].split(","))
        if len(primes) < 2 or len(set(primes)) < len(primes):
            raise ValueError("need at least two distinct primes")
        for p in primes:
            if not (2**16 <= p < 2**64 and _is_prime(p)):
                raise ValueError(f"{p} is not a prime in [2^16, 2^64)")
        modlinalg.PRIMES = primes
    if "cap" in cfg:
        cap = int(cfg["cap"])
        if cap < 1:
            raise ValueError(f"cap must be at least 1, not {cap}")
        modlinalg.NONZERO_CAP = cap
    return cfg


def cmd_decompose(args):
    if args.what == "a":
        ch = character_A(args.d, args.variant)
        print(f"A_{args.d} ({args.variant}): {format_bicharacter(ch.terms)}")
    elif args.what == "wedge":
        piece = (1, 1) if args.variant == "minors" else (2,)
        out = wedge_power(piece, piece, args.k)
        print(f"wedge^{args.k} W ({args.variant}): {format_bicharacter(out)}")
    elif args.what == "gr":
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
        for alpha, beta in gr_components_bivariate(lam, mu, args.d):
            print(f"([{','.join(map(str, alpha))}], [{','.join(map(str, beta))}])")
    return 0


def cmd_verify(args):
    keys = ("m", "n", "d_max", "r", "a_max", "e_max")
    params = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    task = VerificationTask(args.statement, params, seed=args.seed)
    report = run(task, results_dir=args.results_dir)
    print(emit(report, args.format), end="")
    if report.verdict == "pass":
        return 0
    if report.verdict == "skipped-capacity":
        return 2
    return 1


def cmd_suite(args):
    tasks = suite_tasks(args.profile, seed=args.seed)
    reports = [run(task, args.results_dir) for task in tasks]
    failed = 0
    skipped = 0
    for report in reports:
        stmt = report.task["statement"]
        params = report.task["params"]
        print(f"{stmt} {params}: {report.verdict}")
        if report.verdict == "fail":
            failed += 1
        elif report.verdict == "skipped-capacity":
            skipped += 1
    print(f"{len(reports)} tasks, {failed} failed, {skipped} skipped")
    if skipped:
        return 2
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minorrel",
        description="verify character predictions for 2x2 minor and permanent ideals",
    )
    parser.add_argument("--config", help="key=value config file (cap, primes)")
    parser.add_argument(
        "--results-dir", help="directory for cached json reports (default $MINORREL_RESULTS_DIR)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print characters and filtration labels")
    p.set_defaults(fn=cmd_decompose)
    # each mode takes only the options it reads
    modes = p.add_subparsers(dest="what", required=True)
    q = modes.add_parser("a", help="degree-d slice of the image ring")
    q.add_argument("--d", type=int, default=2)
    q.add_argument("--variant", choices=["minors", "permanents"], default="minors")
    q = modes.add_parser("wedge", help="exterior power of the quadric span")
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--variant", choices=["minors", "permanents"], default="minors")
    q = modes.add_parser("gr", help="seed labels of the bi-filtration of F_{lam,mu}")
    q.add_argument("--lam", default="1,1,1")
    q.add_argument("--mu", default="2,1")
    q.add_argument("--d", type=int, required=True, help="largest label size")

    p = sub.add_parser("verify", help="run one named verification task")
    p.add_argument("statement")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--dmax", dest="d_max", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--a-max", dest="a_max", type=int)
    p.add_argument("--e-max", dest="e_max", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("suite", help="run the default verification suite")
    p.add_argument("--profile", choices=["quick", "full", "long"], default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.config:
            apply_config(load_config(args.config))
        return args.fn(args)
    except modlinalg.CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
