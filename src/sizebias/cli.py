"""Command line front end: one JSON (or CSV) document per invocation.

Reproducibility contract.  Only ``midzuno`` and ``renewal`` draw random
numbers, so only they take ``--seed``.  Their streams come from numpy's
Philox generator, a counter-based 64-bit bit stream, derived as

    SeedSequence(seed, spawn_key=(position of its row in _COMMANDS, stream))

with stream 0 for ordinary runs.  New rows are appended, never inserted,
so every existing stream stays put.  ``--workers k`` (Monte Carlo
subcommands only) splits the workload across streams 0..k-1 and merges
in stream order, so output depends only on argv; ``--workers 1`` is the
reference run.  Floats are printed with 17 significant digits so every
double round-trips; identical argv therefore means identical bytes.

Exit codes: 0 success, 2 bad usage or bad input data, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SizeBiasError, NoClosedForm, SupportOverflow
from .dist_core import (
    DiscreteDist, GridDensity, NamedDist, ShiftedNamed, check_points,
    closed_form_size_bias, tabulate_named, named_mean,
    size_bias_discrete, size_bias_density, moment,
    dist_to_json, dist_from_json,
)
from .sum_bias import IndependentSum, index_distribution, size_biased_sum_pmf, size_biased_product_pmf
from .inf_div import (
    compound_poisson_from_increment, pmf_recursion, extract_increment,
    dickman_solve, buchstab_solve, levy_from_json, levy_to_json,
)
from .lognormal import (
    orbit_pmf, orbit_as_dist, orbit_size_bias_check, berg_pmf,
    STIELTJES_PANELS, StieltjesDensity, stieltjes_moment,
    mixture_normalizer, mixture_reconstruction_check,
)
from .midzuno import load_population_csv, midzuno_sample, ratio_estimate
from .stochastic import simulate_renewal_inspection, skorohod_coupling, skorohod_exit_pmf, expected_exit_time
from .bounds import (
    ConcentrationParams, binomial_poisson_check,
    concentration_upper, concentration_lower, tail_iteration,
)

DEFAULT_SEED = 0xC0FFEE


@dataclass(frozen=True)
class RunConfig:
    """Where and how one invocation writes its document."""

    format: str
    out: str | None

    @classmethod
    def from_namespace(cls, args) -> "RunConfig":
        return cls(args.format, args.out)


def derive_rng(seed: int, name: str, stream: int = 0) -> np.random.Generator:
    """Philox stream for (seed, subcommand, stream); see module docstring."""
    ss = np.random.SeedSequence(seed, spawn_key=(list(_COMMANDS).index(name), stream))
    return np.random.Generator(np.random.Philox(ss))


# ===================================================================
# serialization
# ===================================================================

def _gfloat(x: float) -> str:
    if not math.isfinite(x):
        raise SupportOverflow(f"cannot serialize non-finite value {x}")
    return f"{x:.17g}"


def _float_seq(values) -> str:
    """JSON array of Python floats, formatted in one pass; refuses NaN and inf."""
    if not all(map(math.isfinite, values)):
        for v in values:
            _gfloat(v)      # raises on the first non-finite value
    return ("[" + ", ".join(["%.17g"] * len(values)) + "]") % tuple(values)


def json_text(value) -> str:
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        value = value.tolist()
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _gfloat(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)) and all(type(v) is float for v in value):
        return _float_seq(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {json_text(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def csv_text(value) -> str:
    """Two-column flattening: one row per scalar leaf, path in column 1.

    Strings take CSV quoting; every other leaf is written as json_text writes it.
    """
    lines = ["key,value"]

    def scalar(v):
        if not isinstance(v, str):
            return json_text(v)
        return '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v

    def walk(path, v):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(f"{path}.{k}" if path else str(k), x)
        elif isinstance(v, (list, tuple, np.ndarray)):
            for i, x in enumerate(v):
                walk(f"{path}[{i}]", x)
        else:
            lines.append(f"{path},{scalar(v)}")

    walk("", value)
    return "\n".join(lines) + "\n"


def _emit(result: dict, cfg: RunConfig) -> None:
    text = json_text(result) + "\n" if cfg.format == "json" else csv_text(result)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ===================================================================
# input parsing
# ===================================================================

def parse_dist(text: str, signed: bool = False):
    """`name:params` inline, `atoms:x=p,...` literal, or `@file.json`."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return dist_from_json(json.load(fh), signed=signed)
    if text.startswith("atoms:"):
        pairs = []
        for chunk in text[len("atoms:"):].split(","):
            x, sep, p = chunk.partition("=")
            if not sep:
                raise SizeBiasError(f"atom {chunk!r} is not of the form x=p")
            pairs.append((float(x), float(p)))
        return DiscreteDist.from_pairs(pairs, signed=signed)
    name, _, rest = text.partition(":")
    params = tuple(float(t) for t in rest.split(",")) if rest else ()
    return NamedDist(name, params)


def _as_discrete(d) -> DiscreteDist:
    if isinstance(d, NamedDist):
        return tabulate_named(d)
    if isinstance(d, DiscreteDist):
        return d
    raise SizeBiasError("this subcommand needs an atomic distribution, not a density grid")


def _named_json(d) -> dict:
    if isinstance(d, ShiftedNamed):
        out = _named_json(d.base)
        out["shift"] = float(d.shift)
        return out
    return {"kind": d.kind, "params": [float(p) for p in d.params]}


# ===================================================================
# subcommands
# ===================================================================

def _cmd_transform(args) -> dict:
    d = parse_dist(args.dist)
    if isinstance(d, NamedDist):
        res = {"input": _named_json(d), "mean": named_mean(d)}
        try:
            res["size_biased"] = _named_json(closed_form_size_bias(d))
        except NoClosedForm:
            res["size_biased"] = dist_to_json(size_bias_discrete(tabulate_named(d)))
        return res
    if isinstance(d, GridDensity):
        return {"input": dist_to_json(d), "mean": d.mean(),
                "size_biased": dist_to_json(size_bias_density(d))}
    return {"input": dist_to_json(d), "mean": d.mean(),
            "size_biased": dist_to_json(size_bias_discrete(d))}


def _cmd_sum(args) -> dict:
    terms = [_as_discrete(parse_dist(t)) for t in args.dist]
    s = IndependentSum(tuple(terms))
    return {"terms": len(terms),
            "index_probs": index_distribution(s),
            "size_biased_sum": dist_to_json(size_biased_sum_pmf(s))}


def _cmd_product(args) -> dict:
    terms = [_as_discrete(parse_dist(t)) for t in args.dist]
    return {"factors": len(terms),
            "size_biased_product": dist_to_json(size_biased_product_pmf(terms))}


def _cmd_compound_poisson(args) -> dict:
    if args.levy:
        with open(args.levy[1:] if args.levy.startswith("@") else args.levy) as fh:
            levy = levy_from_json(json.load(fh))
    else:
        if args.a is None or args.increment is None:
            raise SizeBiasError("need either --levy or both --a and --increment")
        levy = compound_poisson_from_increment(_as_discrete(parse_dist(args.increment)), args.a)
    pmf = pmf_recursion(levy, args.n)
    return {**levy_to_json(levy), "pmf": pmf.ps, "tail_bound": pmf.tail_bound}


def _cmd_id_test(args) -> dict:
    probs = [float(t) for t in args.pmf.split(",")]
    res = extract_increment(DiscreteDist.from_pmf(probs))
    if not res.is_id:
        return {"is_id": False, "witness_index": int(res.witness_index)}
    return {"is_id": True, "a": res.a,
            "increment": dist_to_json(res.increment),
            "jump_rates": res.jump_rates()}


def _grid_json(g: GridDensity) -> dict:
    return {**dist_to_json(g), "mass": g.atom0 + g.integral(), "mean": g.mean()}


def _cmd_dickman(args) -> dict:
    return _grid_json(dickman_solve(args.a, h=args.h, xmax=args.xmax))


def _cmd_buchstab(args) -> dict:
    return _grid_json(buchstab_solve(args.a, args.b, h=args.h, xmax=args.xmax))


def _cmd_orbit(args) -> dict:
    o = orbit_pmf(args.b, args.c)
    d = orbit_as_dist(o)
    return {"b": o.b, "c": o.c, "half_width": o.M, "normalizer": o.t,
            "mean": d.mean(), "size_bias_check": orbit_size_bias_check(d),
            "atoms": [[float(x), float(p)] for x, p in zip(o.xs, o.masses)]}


def _cmd_stieltjes(args) -> dict:
    s = StieltjesDensity(args.m, args.delta, args.sigma)
    check_points((args.kmax + 1) * (STIELTJES_PANELS + 1), f"{args.kmax + 1} moment quadratures")
    ks = list(range(args.kmax + 1))
    return {"m": s.m, "delta": s.delta, "sigma": s.sigma,
            "moments": [stieltjes_moment(s, k) for k in ks],
            "lognormal_moments": [math.exp(k * k * s.sigma ** 2 / 2.0) for k in ks]}


def _cmd_berg(args) -> dict:
    d = berg_pmf(args.sign, args.c)
    return {"sign": args.sign, "c": args.c,
            "moments": [moment(d, k) for k in range(4)],
            "size_bias_check": orbit_size_bias_check(d),
            "atoms": dist_to_json(d)["atoms"]}


def _cmd_mixture_check(args) -> dict:
    return {"c": args.c, "k_c": mixture_normalizer(args.c),
            "max_reconstruction_gap": mixture_reconstruction_check(args.c)}


def _cmd_midzuno(args) -> dict:
    pop = load_population_csv(args.csv)
    rng = derive_rng(args.seed, "midzuno")
    subset = midzuno_sample(pop, args.m, rng)
    return {"estimate": ratio_estimate(pop, subset),
            "subset": [int(i) for i in subset],
            "seed": args.seed}


def _cmd_renewal(args) -> dict:
    if args.n < 2:
        raise SizeBiasError("renewal needs --n >= 2 for a standard error")
    dist = parse_dist(args.interarrival)
    # stream w draws n // workers samples, one more for w < n % workers;
    # streams past n draw none, so only the first min(workers, n) run
    base, extra = divmod(args.n, args.workers)
    streams = min(args.workers, args.n)

    def run(w):
        return simulate_renewal_inspection(dist, args.horizon, base + (w < extra),
                                           derive_rng(args.seed, "renewal", w))

    with ThreadPoolExecutor(max_workers=min(streams, os.cpu_count() or 1)) as pool:
        chunks = list(pool.map(run, range(streams)))
    lengths = np.concatenate([ch.covering_length for ch in chunks])
    waits = np.concatenate([ch.residual_wait for ch in chunks])
    return {"n": int(lengths.size), "workers": args.workers,
            "mean_covering": float(lengths.mean()),
            "se_covering": float(lengths.std(ddof=1) / math.sqrt(lengths.size)),
            "mean_wait": float(waits.mean()),
            "se_wait": float(waits.std(ddof=1) / math.sqrt(waits.size)),
            "seed": args.seed}


def _cmd_skorohod(args) -> dict:
    d = _as_discrete(parse_dist(args.dist, signed=True))
    sc = skorohod_coupling(d)
    exit_law = skorohod_exit_pmf(sc)
    return {"p_plus": sc.p_plus, "p_zero": sc.p_zero, "p_minus": sc.p_minus,
            "uv_atoms": sc.uv_atoms,
            "exit_atoms": dist_to_json(exit_law)["atoms"],
            "expected_exit_time": expected_exit_time(sc)}


def _cmd_stein(args) -> dict:
    bound, exact = binomial_poisson_check(args.n, args.p)
    return {"n": args.n, "p": args.p, "rate": args.n * args.p,
            "bound": bound, "exact_tv": exact}


def _cmd_concentration(args) -> dict:
    cp = ConcentrationParams(args.a, args.c, args.x)
    if args.x >= args.a:
        tight, gauss = concentration_upper(cp)
        res = {"side": "upper", "tight": tight, "gaussian": gauss}
        if args.x > args.a:
            res["iteration"] = tail_iteration(cp)
        return res
    tight, gauss = concentration_lower(cp)
    return {"side": "lower", "tight": tight, "gaussian": gauss}


# ===================================================================
# wiring
# ===================================================================

def _u64(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed {v} outside [0, 2^64)")
    return v


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


class _Command(NamedTuple):
    run: Callable          # parsed namespace -> result document
    help: str              # its line in `sizebias --help`
    options: tuple         # (flag, add_argument keywords), in --help order


def _dists(each: str) -> tuple:
    return ("--dist", dict(action="append", required=True, help=f"repeat once per {each}"))


_GRID = (("--h", dict(type=float, default=1e-3)), ("--xmax", dict(type=float, default=5.0)))
_SEED = ("--seed", dict(type=_u64, default=DEFAULT_SEED,
                        help="64-bit stream seed (fixed default for reproducibility)"))

# one row per subcommand, in the order that keys each random stream
# (module docstring): append new rows, never insert
_COMMANDS = {
    "transform": _Command(_cmd_transform, "size-bias one distribution",
                          (("--dist", dict(required=True)),)),
    "sum": _Command(_cmd_sum, "size-bias an independent sum", (_dists("summand"),)),
    "product": _Command(_cmd_product, "size-bias an independent product", (_dists("factor"),)),
    "compound-poisson": _Command(_cmd_compound_poisson, "pmf of an integer compound Poisson law", (
        ("--levy", dict(help="jump representation as @file.json")),
        ("--a", dict(type=float, help="mean, when building from an increment")),
        ("--increment", dict(help="increment distribution")),
        ("--n", dict(type=_positive, default=50, help="pmf computed on 0..n")))),
    "id-test": _Command(_cmd_id_test, "infinite divisibility test", (
        ("--pmf", dict(required=True, help="comma list of masses on 0,1,2,...")),)),
    "dickman": _Command(_cmd_dickman, "delay-equation density, uniform increments", (
        ("--a", dict(type=float, required=True)), *_GRID)),
    "buchstab": _Command(_cmd_buchstab, "delay-equation density, gapped increments", (
        ("--a", dict(type=float, required=True)), ("--b", dict(type=float, required=True)),
        *_GRID)),
    "orbit": _Command(_cmd_orbit, "geometric-grid law with lognormal moments", (
        ("--b", dict(type=float, required=True)), ("--c", dict(type=float, required=True)))),
    "stieltjes": _Command(_cmd_stieltjes, "perturbed lognormal density moments", (
        ("--m", dict(type=_positive, default=1)), ("--delta", dict(type=float, default=0.5)),
        ("--sigma", dict(type=float, default=1.0)), ("--kmax", dict(type=_positive, default=4)))),
    "berg": _Command(_cmd_berg, "signed-perturbation lognormal-moment law", (
        ("--sign", dict(type=int, choices=(-1, 1), required=True)),
        ("--c", dict(type=float, required=True)))),
    "mixture-check": _Command(_cmd_mixture_check, "lognormal as mixture of geometric-grid laws", (
        ("--c", dict(type=float, required=True)),)),
    "midzuno": _Command(_cmd_midzuno, "unequal-probability sampling estimate", (
        ("--csv", dict(required=True, help="population file, header x,y")),
        ("--m", dict(type=_positive, required=True, help="sample size")), _SEED)),
    "renewal": _Command(_cmd_renewal, "inspection-paradox Monte Carlo", (
        ("--interarrival", dict(required=True)), ("--horizon", dict(type=float, default=200.0)),
        ("--n", dict(type=_positive, default=10000)),
        ("--workers", dict(type=_positive, default=1,
                           help="independent streams; 1 is the reference")), _SEED)),
    "skorohod": _Command(_cmd_skorohod, "Brownian interval embedding a mean-zero law", (
        ("--dist", dict(required=True,
                        help="mean-zero law, e.g. atoms:-1=0.5,1=0.5 or @file.json")),)),
    "stein": _Command(_cmd_stein, "Poisson approximation bound vs exact distance", (
        ("--n", dict(type=_positive, required=True)), ("--p", dict(type=float, required=True)))),
    "concentration": _Command(_cmd_concentration, "tail bounds from a bounded coupling", (
        ("--a", dict(type=float, required=True, help="mean")),
        ("--c", dict(type=float, required=True, help="coupling bound")),
        ("--x", dict(type=float, required=True, help="evaluation point")))),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output here instead of stdout")

    p = argparse.ArgumentParser(prog="sizebias",
                                description="size-bias transform toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=cmd.help)
        sp.set_defaults(func=cmd.run)
        for flag, kw in cmd.options:
            sp.add_argument(flag, **kw)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig.from_namespace(args)
    try:
        _emit(args.func(args), cfg)
    except BrokenPipeError:
        # reader went away; silence the shutdown flush and bail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as e:
        # SizeBiasError is a ValueError; the writer raises one on non-finite output
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
