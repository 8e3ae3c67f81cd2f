"""Command-line front end: simulate, decompose, rates, limits, verify.

Machine-readable output (JSON) goes to stdout; human-readable tables go
to stderr when both are requested.  Errors print one line to stderr with
the stable prefix "error:<category>:".  Exit codes: 0 success, 1 verdict
or verification failure (and runtime errors), 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .blocks import BlockConfig
from .errors import ClusterBlocksError, ConfigError, ModelError
from .expansion import expansion_report
from .functionals import get_functional, induced_functional
from .harness import (ExperimentConfig, check_band, csv_text, expected_targets,
                      limit_constants, parse_finite, persist, run_experiment, summarize)
from .limits import cluster_index_mc, limit_table
from .models import (ModelSpec, gen_series, marginal_tail, parse_model,
                     read_series, series_layout, threshold_for_w, write_series)
from .verify import run_verification


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parse_args keeps no state in it."""
    p = _Parser(prog="clusterblocks", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    sim = sub.add_parser("simulate", help="generate a series file")
    sim.add_argument("--model", required=True, help="e.g. mma1:1,1,1 or iid:1")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=("bin", "txt"), default="bin")
    sim.set_defaults(run=_cmd_simulate)

    dec = sub.add_parser("decompose", help="exact SB-DB decomposition report")
    src = dec.add_mutually_exclusive_group(required=True)
    src.add_argument("--series", help="series file (bin or txt)")
    src.add_argument("--model")
    dec.add_argument("--n", type=int)
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--r", type=int, required=True)
    dec.add_argument("--u", type=float)
    dec.add_argument("--w", type=float)
    dec.add_argument("--functional", default="indicator")
    dec.add_argument("--out")
    dec.add_argument("--verbose-blocks", action="store_true")
    dec.add_argument("--counterexamples", help="directory for mismatch artifacts")
    dec.set_defaults(run=_cmd_decompose)

    rat = sub.add_parser("rates", help="run a rate experiment grid")
    rat.add_argument("--config", help="flat key=value config file")
    rat.add_argument("--model")
    rat.add_argument("--functional")
    rat.add_argument("--grid", help='"n:r_rule:w_rule;..." e.g. "1e4:n^0.15:n^-0.6"')
    rat.add_argument("--replicates", type=int)
    rat.add_argument("--seed", type=int)
    rat.add_argument("--targets", help="comma-separated target names")
    rat.add_argument("--band", type=float, help="relative verdict band (default 0.15)")
    rat.add_argument("--threads", type=int)
    rat.add_argument("--out", help="output prefix (<out>.csv, <out>_verdict.json)")
    rat.add_argument("--format", choices=("csv", "json"), default="csv")
    rat.set_defaults(run=_cmd_rates)

    lim = sub.add_parser("limits", help="closed-form / Monte Carlo limit constants")
    lim.add_argument("--c0", type=float, required=True)
    lim.add_argument("--c1", type=float, required=True)
    lim.add_argument("--alpha", type=float, required=True)
    lim.add_argument("--functional", default="indicator")
    lim.add_argument("--gamma", type=float, default=1.0)
    lim.add_argument("--p", type=float,
                     help="also report the |.|^p boundary index via Monte Carlo")
    lim.add_argument("--samples", type=int, default=20000)
    lim.add_argument("--seed", type=int, default=0)
    lim.add_argument("--format", choices=("table", "json", "csv"), default="table")
    lim.add_argument("--out")
    lim.set_defaults(run=_cmd_limits)

    ver = sub.add_parser("verify", help="run identity and property suites")
    ver.add_argument("--quick", action="store_true")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(run=_cmd_verify)
    return p


def _cmd_simulate(args) -> int:
    spec = parse_model(args.model)
    series = gen_series(spec, args.n, args.seed)
    write_series(args.out, series, args.format)
    print(f"wrote {args.out} ({args.n} values, model {spec.format()})",
          file=sys.stderr)
    return 0


def _cmd_decompose(args) -> int:
    if args.series:
        series = read_series(args.series)
        model = None
    else:
        if args.n is None:
            raise UsageError("--model needs --n")
        model = parse_model(args.model)
        if model.block_size is None:    # piecewise ":r" takes --r
            model = model.with_block_size(args.r)
        series_layout(model, args.n)    # the generation errors come first
        series = (model, args.n, args.seed)
    if args.u is None and args.w is None:
        raise UsageError("one of --u or --w is required")
    if args.u is not None and args.w is not None:
        u, w, w_source = args.u, args.w, "supplied"
    elif args.w is not None:
        if model is None:
            raise ModelError("a loaded series has no model; give --u and --w")
        u, w, w_source = threshold_for_w(model, args.w), args.w, "exact"
    else:
        u = args.u
        if model is not None:
            w, w_source = marginal_tail(model, u), "exact"
        else:
            w = float((series.values > u).mean())
            w_source = "empirical"
            if not 0.0 < w < 1.0:
                raise ModelError("empirical w is degenerate at this threshold")
    rep = expansion_report(series, BlockConfig(r=args.r, u=u, w=w),
                           get_functional(args.functional), w_source=w_source,
                           verbose=args.verbose_blocks,
                           counterexample_dir=args.counterexamples)
    text = rep.to_json(verbose=args.verbose_blocks) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _parse_grid(text: str) -> list:
    grid = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"grid point must be n:r_rule:w_rule, got {part!r}")
        n = parse_finite(bits[0], "grid point n")
        if n < 1:
            raise ConfigError(f"grid point n must be >= 1, got {bits[0]!r}")
        grid.append((int(n), bits[1], bits[2]))
    return grid


def _cmd_rates(args) -> int:
    conf = _read_config_file(args.config) if args.config else {}

    def pick(name, cast=str, default=None):
        cli = getattr(args, name)
        if cli is not None:
            return cli
        if name in conf:
            try:
                return cast(conf[name])
            except ValueError:
                raise UsageError(f"config key {name}: cannot parse {conf[name]!r}") from None
        return default

    model_txt = pick("model")
    grid_txt = pick("grid")
    if model_txt is None or grid_txt is None:
        raise UsageError("rates needs --model and --grid (flags or config file)")
    threads = pick("threads", int)
    if threads is None:
        env = os.environ.get("CLBLK_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"CLBLK_THREADS must be an integer, got {env!r}") from None
    cfg = ExperimentConfig(
        model=parse_model(model_txt),
        functional=pick("functional", str, "indicator"),
        grid=tuple(_parse_grid(grid_txt)),
        replicates=pick("replicates", int, 100),
        seed=pick("seed", int, 0),
        targets=tuple(t.strip() for t in pick("targets", str, "ic_norm").split(",")),
        threads=threads,
    )
    band = check_band(pick("band", float, 0.15))
    lt = limit_table(cfg.model, get_functional(cfg.functional), seed=cfg.seed,
                     constants=limit_constants(cfg.targets))
    expected = expected_targets(lt, cfg.targets)
    table = run_experiment(cfg)
    verdict = summarize(table, expected, rel_band=band)
    if args.out:
        persist(table, f"{args.out}.csv", "csv")
        persist(table, f"{args.out}.json", "json")
        with open(f"{args.out}_verdict.json", "w") as fh:
            fh.write(verdict.to_json() + "\n")
    elif args.format == "json":
        sys.stdout.write(verdict.to_json() + "\n")
    else:
        sys.stdout.write(csv_text(table))
    for target, row in verdict.rows.items():
        status = "ok" if row["passed"] else "FAIL"
        print(f"{status:4s} {target}: mean={row['final_mean']:.5g} "
              f"expected={row['expected']:.5g} rel={row['rel_error']:.3g}",
              file=sys.stderr)
    return 0 if verdict.passed else 1


def _cmd_limits(args) -> int:
    spec = ModelSpec.mma1(args.c0, args.c1, args.alpha)
    h = get_functional(args.functional)
    lt = limit_table(spec, h, gamma=args.gamma, samples=args.samples,
                     seed=args.seed)
    rows = lt.rows()
    if args.p is not None:
        est, se = cluster_index_mc(induced_functional(h, "bc_p", args.p), spec,
                                   args.samples, args.seed + 2)
        rows.append((f"nu_bc_p({args.p:g})", est))
    if args.format == "json":
        payload = lt.to_dict()
        if args.p is not None:
            payload[f"nu_bc_p({args.p:g})"] = rows[-1][1]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = "constant,value\n" + "".join(f"{k},{repr(v)}\n" for k, v in rows)
    else:
        width = max(len(k) for k, _ in rows)
        text = "".join(f"{k:<{width}}  {v:.10g}\n" for k, v in rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(quick=args.quick, seed=args.seed)
    failed = 0
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"{status:4s} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error:usage:{exc}", file=sys.stderr)
        return 2
    except ClusterBlocksError as exc:
        print(f"error:{exc.category}:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io:{exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # an input that asks for more memory than there is
        print(f"error:config:out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
