"""Command line front end for the verification tasks.

Subcommands: decompose, verify, suite.  Every stated witness runs through
tasks.run; `verify que-7.1 --a-max A --e-max E` is the Rees-ideal table and
the fiber-type check, and the json report of `verify thm-3.1` or `thm-3.2`
lists Koszul H_1 by dominant weight.  verify and suite take the run settings,
each at most once, for every task they build: --seed; --primes, the modular
prime list (two or more distinct primes in [2^16, 2^64)); and --results-dir
for cached json reports, else the MINORREL_RESULTS_DIR that tasks.run reads.
decompose takes none of them.  Exit codes, one rule over the verdicts of
verify and suite: 1 if any task failed, else 0; a usage error, a window
outside its statement's envelope or an unusable results directory among
them, exits 2.
"""

import argparse
import sys

from .birep import character_A, gr_components_bivariate
from .modlinalg import PRIMES
from .partitions import parse_partition
from .report import emit, format_bicharacter
from .symfunc import wedge_power
from .tasks import VerificationTask, run, suite_tasks


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


def _primes(text):
    if not all(part.strip().isdecimal() for part in text.split(",")):
        raise argparse.ArgumentTypeError(f"need a comma list of integers, not {text!r}")
    primes = tuple(map(int, text.split(",")))
    if len(primes) < 2 or len(set(primes)) < len(primes):
        raise argparse.ArgumentTypeError("need at least two distinct primes")
    for p in primes:
        if not (2**16 <= p < 2**64 and _is_prime(p)):
            raise argparse.ArgumentTypeError(f"{p} is not a prime in [2^16, 2^64)")
    return primes


class _Once(argparse.Action):
    """Store a setting; a second occurrence would override the first, so refuse it."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            parser.error(f"{option_string} is already set")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _exit_code(reports):
    """1 if any task failed, else 0."""
    return int(any(report.verdict == "fail" for report in reports))


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
    task = VerificationTask(args.statement, params, args.seed, args.primes)
    report = run(task, args.results_dir)
    print(emit(report, args.format), end="")
    return _exit_code([report])


def cmd_suite(args):
    tasks = suite_tasks(args.profile, seed=args.seed)
    reports = [run(t._replace(primes=args.primes), args.results_dir) for t in tasks]
    for report in reports:
        print(f"{report.task['statement']} {report.task['params']}: {report.verdict}")
    failed = sum(report.verdict == "fail" for report in reports)
    print(f"{len(reports)} tasks, {failed} failed")
    return _exit_code(reports)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minorrel",
        description="verify character predictions for 2x2 minor and permanent ideals",
    )
    # the run settings, read by verify and suite only
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--seed", type=int, default=0, action=_Once)
    settings.add_argument("--primes", type=_primes, action=_Once, help="P1,P2,... to draw from")
    settings.add_argument("--results-dir", action=_Once, help="default $MINORREL_RESULTS_DIR")
    settings.set_defaults(primes=PRIMES)
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

    p = sub.add_parser("verify", parents=[settings], help="run one named verification task")
    p.add_argument("statement")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--dmax", dest="d_max", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--a-max", dest="a_max", type=int)
    p.add_argument("--e-max", dest="e_max", type=int)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("suite", parents=[settings], help="run the default verification suite")
    p.add_argument("--profile", choices=["quick", "full", "long"], default="quick")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
