"""Command line front end for the verification tasks.

Subcommands: decompose, verify, koszul, rees, fiber-type, suite.  Exit codes:
0 all comparisons pass, 1 any fail, 2 usage or capacity error.  The results
directory for cached json reports comes from --results-dir or the
MINORREL_RESULTS_DIR environment variable; a key=value config file can
override the sparse-matrix capacity cap (an integer at least 1) and the
modular prime list (at least two distinct primes, each at least 2^16 and
below 2^64).
"""

import argparse
import os
import sys

from . import modlinalg
from .birep import character_A, gr_components_bivariate, gr_labels
from .partitions import parse_partition
from .polyring import RingContext
from .rees import _orbit_size, fiber_type_check, orbit_total, rees_ideal
from .report import emit, format_bicharacter
from .symfunc import bivariate_wedge_power
from .tasks import RESULTS_DIR_ENV, VerificationTask, run, run_suite, suite_tasks
from .witness import koszul_h1_blocks


def load_config(path):
    """Read a key=value config file; known keys: cap, primes (comma list)."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
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
        if args.variant == "minors":
            W = {(((1, 1)), ((1, 1))): 1}
        else:
            W = {(((2,)), ((2,))): 1}
        out = bivariate_wedge_power(W, args.k)
        print(f"wedge^{args.k} W ({args.variant}): {format_bicharacter(out)}")
    elif args.what == "gr":
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
        table = gr_components_bivariate(lam, mu, args.d)
        for alpha, beta in gr_labels(table):
            print(f"([{','.join(map(str, alpha))}], [{','.join(map(str, beta))}])")
    return 0


def cmd_verify(args):
    params = {}
    for key in ("m", "n", "d_max", "r"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    task = VerificationTask(args.statement, params, seed=args.seed)
    report = run(task, results_dir=args.results_dir)
    print(emit(report, args.format), end="")
    if report.verdict == "pass":
        return 0
    if report.verdict == "skipped-capacity":
        return 2
    return 1


def cmd_koszul(args):
    ctx = RingContext(args.m, args.n)
    blocks = koszul_h1_blocks(ctx, args.variant, args.d, seed=args.seed)
    total = orbit_total(blocks)
    print(f"H1 dimension at degree {args.d} ({args.variant}, {args.m}x{args.n}): {total}")
    if args.verbose:
        for w, dim in sorted(blocks.items()):
            print(f"  weight {w}: dim {dim}, orbit size {_orbit_size(w)}")
    return 0


def cmd_rees(args):
    ctx = RingContext(args.m, args.n)
    table = rees_ideal(ctx, a_max=args.a_max, e_max=args.e_max, seed=args.seed)
    if not table:
        print("no minimal generators in the window")
    for (a, b), count in table:
        print(f"bidegree ({a},{b}): {count}")
    return 0


def cmd_fiber_type(args):
    ctx = RingContext(args.m, args.n)
    fiber, table = fiber_type_check(
        ctx,
        a_max=args.a_max,
        e_max=args.e_max,
        seed=args.seed,
    )
    for (a, b), count in sorted(table.items()):
        print(f"bidegree ({a},{b}): {count}")
    print(f"fiber type: {fiber}")
    return 0 if fiber else 1


def cmd_suite(args):
    tasks = suite_tasks(args.profile, seed=args.seed)
    reports = run_suite(tasks, results_dir=args.results_dir)
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
        "--results-dir",
        default=os.environ.get(RESULTS_DIR_ENV),
        help="directory for cached json reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print characters and filtration tables")
    p.add_argument("what", choices=["a", "wedge", "gr"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--lam", default="1,1,1")
    p.add_argument("--mu", default="2,1")
    p.add_argument("--variant", choices=["minors", "permanents"], default="minors")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run one named verification task")
    p.add_argument("statement")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--dmax", dest="d_max", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("koszul", help="first Koszul homology dimension")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--variant", choices=["minors", "permanents"], default="minors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_koszul)

    p = sub.add_parser("rees", help="minimal generators of the Rees ideal")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--a-max", dest="a_max", type=int, default=3)
    p.add_argument("--e-max", dest="e_max", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_rees)

    p = sub.add_parser("fiber-type", help="check the fiber-type property")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--a-max", dest="a_max", type=int, default=3)
    p.add_argument("--e-max", dest="e_max", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fiber_type)

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


if __name__ == "__main__":
    sys.exit(main())
