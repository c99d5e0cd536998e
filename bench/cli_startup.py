"""The ``cli-startup`` workload: one fresh ``sizebias`` process per operation.

Compute is tens of milliseconds per call, while interpreter start plus
``import sizebias.cli`` is over a second, so start-up does almost all
the work here and almost none in the two library workloads.

``make_calls(seed)`` needs only numpy, so the set-up it times stays the
harness's own; the oracles import ``sizebias`` when they first run,
after the timed loop.  Each call carries its check: the library
computes the expected document from the same inputs, compared at the
tolerances the tests use.  About a quarter of the calls ask for CSV,
and a fixed share are malformed argv whose correct outcome is exit 2.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from common import OUT_DIR, ROOT, child_env
from oracles import (CheckFailed, atom_gap, binom_pmf, binomial_poisson_tv, dense_sum,
                     normalized, require)

CALL_CAP_S = 60.0          # per-call wall-clock cap in the timed loop
CSV_CALLS = ("sum", "berg", "renewal", "stein")     # a quarter of the 16
MALFORMED = (
    ["transform", "--dist", "nosuchfamily:1"],
    ["stein", "--n", "0", "--p", "0.5"],
    ["orbit", "--b", "1.0", "--c", "1.001"],
    ["id-test", "--pmf", "0.5,0.5,x"],
    ["skorohod", "--dist", "atoms:1=0.5,2=0.5"],
)
N_MALFORMED = 2
MALFORMED_SLOTS = (4, 12)
# The CLI's subcommand order fixes each subcommand's random stream.  It is
# copied here, not imported, so the oracle does not take it from the code
# under test.
SUBCOMMANDS = (
    "transform", "sum", "product", "compound-poisson", "id-test",
    "dickman", "buchstab", "orbit", "stieltjes", "berg",
    "mixture-check", "midzuno", "renewal", "skorohod", "stein",
    "concentration",
)


@dataclass
class Call:
    """One argv, the exit code it must give, and a check of its document."""

    argv: list
    code: int
    check: Callable | None = None


def _f(x) -> str:
    return f"{float(x):.17g}"


def _atoms_text(xs, ps) -> str:
    return "atoms:" + ",".join(f"{_f(x)}={_f(p)}" for x, p in zip(xs, ps))


def _close(got, want, rel=1e-12, abs_=1e-12, what="value"):
    got, want = np.asarray(got, float), np.asarray(want, float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    ok = np.abs(got - want) <= abs_ + rel * np.abs(want)
    require(bool(np.all(ok)), f"{what}: {got.ravel()[:4]} != {want.ravel()[:4]}")


def _atoms_close(atoms, xs, ps, tol=1e-12, what="atoms"):
    a = np.asarray(atoms, float).reshape(-1, 2)
    require(atom_gap(a[:, 0], a[:, 1], xs, ps) <= tol, f"{what} differ from the oracle")


def _simplex(rng, n):
    """n masses that sum to 1 within 1e-15 after printing with 17 digits."""
    ps = rng.dirichlet(np.ones(n))
    ps[-1] = 1.0 - ps[:-1].sum()
    return ps


def _rng_for(seed: int, name: str, stream: int = 0):
    """The CLI's documented stream: Philox(SeedSequence(seed, spawn_key=(i, stream)))."""
    ss = np.random.SeedSequence(seed, spawn_key=(SUBCOMMANDS.index(name), stream))
    return np.random.Generator(np.random.Philox(ss))


# -------------------------------------------------------------------
# one generator per subcommand: returns (argv, check(doc))

def _transform(rng, d):
    xs = np.sort(rng.uniform(0.5, 9.0, 5))
    ps = _simplex(rng, 5)
    mean = float(xs @ ps)

    def check(doc):
        _atoms_close(doc["input"]["atoms"], xs, ps)
        _close(doc["mean"], mean)
        _atoms_close(doc["size_biased"]["atoms"], xs, xs * ps / mean)
    return ["transform", "--dist", _atoms_text(xs, ps)], check


def _sum(rng, d):
    params = [(int(n), round(float(rng.uniform(0.2, 0.8)), 3)) for n in (3, 5, 8)]

    def check(doc):
        ks, dense = dense_sum(normalized(binom_pmf(n, p)) for n, p in params)
        means = np.array([n * p for n, p in params])
        require(doc["terms"] == 3, "terms")
        _close(doc["index_probs"], means / means.sum())
        w = ks[1:] * dense[1:]
        _atoms_close(doc["size_biased_sum"]["atoms"], ks[1:], w / w.sum())
    argv = ["sum"]
    for n, p in params:
        argv += ["--dist", f"binomial:{n},{p}"]
    return argv, check


def _product(rng, d):
    fs = [(np.sort(rng.uniform(0.5, 4.0, 3)), _simplex(rng, 3)) for _ in range(2)]

    def check(doc):
        (x1, p1), (x2, p2) = fs
        s1, s2 = x1 * p1 / (x1 @ p1), x2 * p2 / (x2 @ p2)
        require(doc["factors"] == 2, "factors")
        _atoms_close(doc["size_biased_product"]["atoms"],
                     np.multiply.outer(x1, x2).ravel(), np.multiply.outer(s1, s2).ravel())
    argv = ["product"]
    for xs, ps in fs:
        argv += ["--dist", _atoms_text(xs, ps)]
    return argv, check


def _compound_poisson(rng, d):
    a = round(float(rng.uniform(0.5, 4.0)), 3)
    q = round(float(rng.uniform(0.2, 0.8)), 3)
    n = 40

    def check(doc):
        rates = np.array([a * q, a * (1 - q) / 2])     # jumps of size 1 and 2
        lam = rates.sum()
        g = np.zeros(n + 1)
        g[1:3] = rates / lam                            # law of one jump
        f, term, power = np.zeros(n + 1), math.exp(-lam), np.eye(1, n + 1)[0]
        for k in range(200):
            f += term * power
            term *= lam / (k + 1)
            power = np.convolve(power, g)[: n + 1]
        _close(doc["a"], a)
        _close(doc["jumps"], [[1.0, rates[0]], [2.0, rates[1]]])
        _close(doc["pmf"], f / f.sum(), rel=0, abs_=1e-12, what="pmf")
        _close(doc["tail_bound"], max(1.0 - f.sum(), 0.0), rel=0, abs_=1e-12)
    return ["compound-poisson", "--a", str(a), "--increment", f"atoms:1={q},2={1 - q!r}",
            "--n", str(n)], check


def _id_test(rng, d):
    lam = round(float(rng.uniform(0.8, 2.0)), 3)
    ks = np.arange(30)
    probs = np.exp(ks * math.log(lam) - lam - np.array([math.lgamma(k + 1) for k in ks]))

    def check(doc):
        require(doc["is_id"] is True, "Poisson pmf reported not divisible")
        _close(doc["a"], lam, rel=0, abs_=1e-8)
        inc = dict((x, p) for x, p in doc["increment"]["atoms"])
        _close(inc.get(1.0, 0.0), 1.0, rel=0, abs_=1e-8, what="increment mass at 1")
        rates = dict((k, r) for k, r in doc["jump_rates"])
        _close(rates.get(1, 0.0), lam, rel=0, abs_=1e-8, what="unit jump rate")
    return ["id-test", "--pmf", ",".join(_f(p) for p in probs)], check


def _dickman(rng, d):
    def check(doc):
        g = doc["grid"]
        vals = np.asarray(g["values"])
        x = g["h"] * np.arange(vals.size)
        seg = (x > 0) & (x <= 2.0)
        rho = np.where(x[seg] <= 1.0, 1.0, 1.0 - np.log(np.maximum(x[seg], 1.0)))
        err = float(np.max(np.abs(vals[seg] * math.exp(0.5772156649015329) - rho)))
        require(err <= 1e-4, f"dickman: error {err:.2e} against the closed form on (0, 2]")
        _close(doc["mass"], 1.0, rel=0, abs_=1e-9)
        _close(doc["mean"], 1.0, rel=0, abs_=1e-3)
    return ["dickman", "--a", "1", "--h", "0.001", "--xmax", "5"], check


def _buchstab(rng, d):
    a = round(float(rng.uniform(0.5, 1.5)), 3)
    b = round(float(rng.uniform(0.25, 0.5)), 3)

    def check(doc):
        _close(doc["grid"]["atom0"], b ** (a / (1.0 - b)), rel=1e-15, abs_=0)
        _close(doc["mass"], 1.0, rel=0, abs_=1e-4)
    return ["buchstab", "--a", str(a), "--b", str(b), "--xmax", "8"], check


def _theta_terms(b, c, M):
    ns = np.arange(-M, M + 1)
    return ns, np.exp(-ns * math.log(b) - 0.5 * ns.astype(float) ** 2 * math.log(c))


def _orbit(rng, d):
    c = round(float(rng.uniform(1.5, 3.0)), 3)
    b = round(float(rng.uniform(1.0, c)), 3)

    def check(doc):
        M = int(doc["half_width"])
        ns, terms = _theta_terms(b, c, M)
        _, wide = _theta_terms(b, c, 60)
        require(doc["size_bias_check"] is True, "orbit law fails the size-bias check")
        _close(doc["mean"], math.sqrt(c), rel=1e-10, abs_=0)
        _close(doc["normalizer"], wide.sum(), rel=1e-13, abs_=0)
        _atoms_close(doc["atoms"], b * c ** ns.astype(float), terms / terms.sum())
    return ["orbit", "--b", str(b), "--c", str(c)], check


def _stieltjes(rng, d):
    delta = round(float(rng.uniform(-1, 1)), 3)
    sigma = round(float(rng.uniform(0.5, 1.2)), 3)

    def check(doc):
        want = [math.exp(k * k * sigma ** 2 / 2.0) for k in range(4)]
        _close(doc["lognormal_moments"], want, rel=1e-15, abs_=0)
        _close(doc["moments"], want, rel=1e-6, abs_=0)
    return ["stieltjes", "--m", "1", "--delta", str(delta), "--sigma", str(sigma),
            "--kmax", "3"], check


def _berg(rng, d):
    sign = int(rng.choice([-1, 1]))
    c = round(float(rng.uniform(1.5, 3.0)), 3)

    def check(doc):
        require(doc["size_bias_check"] is False, "alternating law passes the size-bias check")
        _close(doc["moments"], [c ** (k * k / 2) for k in range(4)], rel=1e-8, abs_=0)
    return ["berg", "--sign", str(sign), "--c", str(c)], check


def _mixture_check(rng, d):
    c = round(float(rng.uniform(1.5, 3.0)), 3)

    def check(doc):
        _close(doc["k_c"], 1.0, rel=0, abs_=1e-6)
        require(doc["max_reconstruction_gap"] < 1e-6, "mixture does not rebuild the lognormal")
    return ["mixture-check", "--c", str(c)], check


def _midzuno(rng, d):
    n, m = 8, 3
    xs, ys = rng.uniform(0.1, 4.0, n), rng.normal(size=n)
    path = os.path.join(d, "pop.csv")
    with open(path, "w") as fh:
        fh.write("x,y\n" + "".join(f"{_f(x)},{_f(y)}\n" for x, y in zip(xs, ys)))
    seed = int(rng.integers(2 ** 32))

    def check(doc):
        import sizebias.midzuno as M
        pop = M.Population(xs, ys)
        subset = M.midzuno_sample(pop, m, _rng_for(seed, "midzuno"))
        require(doc["subset"] == list(subset), f"subset {doc['subset']} != {list(subset)}")
        idx = list(subset)
        _close(doc["estimate"], ys[idx].sum() / xs[idx].sum())
        require(doc["seed"] == seed, "seed")
    return ["midzuno", "--csv", os.path.relpath(path, ROOT), "--m", str(m),
            "--seed", str(seed)], check


def _renewal(rng, d):
    n, horizon = 2000, 100.0
    workers = int(rng.choice([1, 2]))
    seed = int(rng.integers(2 ** 32))

    def check(doc):
        import sizebias.dist_core as D
        import sizebias.stochastic as T
        sizes = [n // workers + (1 if w < n % workers else 0) for w in range(workers)]
        samples = [s for w in range(workers) for s in T.simulate_renewal_inspection(
            D.NamedDist("exponential", ()), horizon, sizes[w], _rng_for(seed, "renewal", w))]
        lengths = np.array([s.covering_length for s in samples])
        waits = np.array([s.residual_wait for s in samples])
        require(doc["n"] == n and doc["workers"] == workers, "n / workers")
        _close(doc["mean_covering"], lengths.mean())
        _close(doc["se_covering"], lengths.std(ddof=1) / math.sqrt(n))
        _close(doc["mean_wait"], waits.mean())
    return ["renewal", "--interarrival", "exponential", "--horizon", str(horizon),
            "--n", str(n), "--workers", str(workers), "--seed", str(seed)], check


def _skorohod(rng, d):
    half = np.sort(rng.uniform(0.2, 3.0, 3))
    w = _simplex(rng, 3) / 2
    xs = np.concatenate([-half[::-1], half])
    ps = np.concatenate([w[::-1], w])

    def check(doc):
        _atoms_close(doc["exit_atoms"], xs, ps)
        m2 = float(xs ** 2 @ ps)
        _close(doc["expected_exit_time"], m2)
        _close(doc["p_plus"] + doc["p_minus"] + doc["p_zero"], 1.0)
    return ["skorohod", "--dist", _atoms_text(xs, ps)], check


def _stein(rng, d):
    n = int(rng.integers(10, 200))
    p = round(float(rng.uniform(0.05, 0.5)), 3)

    def check(doc):
        _close(doc["bound"], (1.0 - math.exp(-n * p)) * p, rel=1e-14, abs_=0)
        _close(doc["exact_tv"], binomial_poisson_tv(n, p), rel=1e-10, abs_=0)
        require(doc["n"] == n, "n")
    return ["stein", "--n", str(n), "--p", str(p)], check


def _concentration(rng, d):
    a = round(float(rng.uniform(2.0, 8.0)), 3)
    x = round(a + float(rng.uniform(1.0, 6.0)), 3)

    def check(doc):
        tight = (a / x) ** x * math.exp(x - a)
        prod, xk = 1.0, x
        while xk > a:
            prod, xk = prod * a / xk, xk - 1.0
        require(doc["side"] == "upper", "side")
        _close(doc["tight"], tight)
        _close(doc["gaussian"], math.exp(-((x - a) ** 2) / (a + x)))
        _close(doc["iteration"], prod)
    return ["concentration", "--a", str(a), "--c", "1", "--x", str(x)], check


GENERATORS = (_renewal, _midzuno, _transform, _sum, _product, _compound_poisson,
              _id_test, _dickman, _buchstab, _orbit, _stieltjes, _berg, _mixture_check,
              _skorohod, _stein, _concentration)


def make_calls(seed: int):
    """The call cycle: one call per subcommand plus two malformed argv.

    The order, the CSV calls and the malformed slots are fixed and the
    seed draws only the values.  A run repeats the head of the cycle, so
    a fixed order keeps the mix of calls, and with it the median, the
    same for every seed; the head holds the Monte Carlo calls, whose
    repeats test byte-identical output.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    d = os.path.join(OUT_DIR, f"inputs-cli-seed{seed}")
    os.makedirs(d, exist_ok=True)
    calls = []
    for gen in GENERATORS:
        argv, check = gen(rng, d)
        if argv[0] in CSV_CALLS:
            argv = argv + ["--format", "csv"]
        calls.append(Call(argv, 0, check))
    bad = rng.choice(len(MALFORMED), N_MALFORMED, replace=False)
    for slot, i in zip(MALFORMED_SLOTS, bad):
        calls.insert(slot, Call(list(MALFORMED[i]), 2))
    return calls


# -------------------------------------------------------------------
# running and checking

def run_cli(argv, cap=CALL_CAP_S):
    """(seconds, exit code or None on timeout, stdout, stderr) of one fresh CLI process."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-m", "sizebias.cli", *argv], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired as e:
        return time.perf_counter() - t0, None, e.stdout or "", e.stderr or ""
    return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


_PATH = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def csv_document(text: str):
    """Rebuild the nested document from the CLI's two-column CSV."""
    lines = text.rstrip("\n").split("\n")
    require(lines[0] == "key,value", "CSV header")
    root = {}
    for line in lines[1:]:
        path, _, raw = line.partition(",")
        if raw.startswith('"'):
            value = raw[1:-1].replace('""', '"')
        elif raw in ("true", "false"):
            value = raw == "true"
        elif re.fullmatch(r"-?\d+", raw):
            value = int(raw)
        else:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        keys = [k if k else int(i) for k, i in _PATH.findall(path)]
        node = root
        for k, nxt in zip(keys, keys[1:] + [None]):
            if nxt is None:
                if isinstance(node, list):
                    node.append(value)
                else:
                    node[k] = value
            else:
                blank = [] if isinstance(nxt, int) else {}
                if isinstance(node, list):
                    if k >= len(node):
                        node.append(blank)
                    node = node[k]
                else:
                    node = node.setdefault(k, blank)
    return root


def check_call(call: Call, code, out: str, err: str):
    """Raise CheckFailed unless the process did what the oracle says."""
    import json
    require(code is not None, f"no exit within {CALL_CAP_S:.0f} s")
    require(code == call.code, f"exit {code}, expected {call.code}: {err.strip()[-200:]}")
    if call.code != 0:
        require(out == "" and "error" in err, "bad usage must print an error and no output")
        return
    doc = csv_document(out) if "--format" in call.argv else json.loads(out)
    call.check(doc)


def verify(calls, results):
    """Check every (call index, code, out, err); returns (failed, messages).

    Repeats of an argv must print the same bytes as its first run.
    """
    first = {}
    failed, errors = 0, []
    for i, code, out, err in results:
        call = calls[i]
        try:
            check_call(call, code, out, err)
            key = tuple(call.argv)
            require(first.setdefault(key, out) == out, "repeated argv printed different bytes")
        except CheckFailed as e:
            failed += 1
            errors.append(f"{' '.join(call.argv)[:80]}: {e}")
        except (KeyError, TypeError, ValueError, IndexError) as e:
            failed += 1
            errors.append(f"{' '.join(call.argv)[:80]}: malformed document ({e!r})")
    return failed, errors
