import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sizebias as sb
from sizebias.cli import (
    main, json_text, csv_text, derive_rng, build_parser, RunConfig, DEFAULT_SEED,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -------------------------------------------------------------------
# serialization

def test_json_text_round_trips_doubles():
    vals = [1 / 3, math.pi, 1e-300, 2 ** 53 - 1.0, -0.0]
    text = json_text({"xs": vals, "flag": True, "nested": {"n": 7}})
    back = json.loads(text)
    assert back["xs"] == vals
    assert back["flag"] is True
    assert back["nested"]["n"] == 7
    with pytest.raises(ValueError):
        json_text(float("nan"))


def _json_reference(value):
    """The writer one element at a time, every float through one formatting call."""
    if value is True or value is False or value is None:
        return {True: "true", False: "false", None: "null"}[value]
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite value {float(value)}")
        return f"{float(value):.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_reference(v) for v in value) + "]"
    return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_reference(v)}"
                           for k, v in value.items()) + "}"


def test_json_text_matches_the_element_wise_writer():
    rng = np.random.default_rng(5)
    edges = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789012345678.0]
    wild = rng.integers(0, 2 ** 64, 5000, dtype=np.uint64).view(np.float64)
    wild = wild[np.isfinite(wild)]
    cases = [edges, tuple(edges), np.array(edges), wild, wild.tolist(), [],
             [np.float64(v) for v in edges], [1.5, np.float64(2.5)],
             np.arange(-3, 4), [np.int64(3), 4],
             [[0.5, -0.0], [1e-300, [2.0, 3.0]], []], np.array([[0.5, 1.0], [-0.0, 5e-324]]),
             [True, 1, 1.0, False, 0, 0.0], [1, 2.0], [2.0, True], [None, 1.0],
             {"grid": {"h": 1e-4, "values": wild[:50].tolist(), "atom0": 0.0}, "n": 3}]
    for value in cases:
        assert json_text(value) == _json_reference(value)
    for bad in (math.nan, math.inf, -math.inf):
        for value in ([1.0, bad, 2.0], np.array([0.5, bad]), [[1.0], [bad]]):
            with pytest.raises(ValueError) as got:
                json_text(value)
            with pytest.raises(ValueError) as want:
                _json_reference(value)
            assert str(got.value) == str(want.value)


def test_csv_text_flattens_paths():
    text = csv_text({"a": [1.5, 2.5], "b": {"c": True}, "s": "x,y"})
    lines = text.strip().split("\n")
    assert lines[0] == "key,value"
    assert "a[0],1.5" in lines
    assert "b.c,true" in lines
    assert 's,"x,y"' in lines


# -------------------------------------------------------------------
# subcommand outputs

def test_transform_closed_form(capsys):
    out = run_json(capsys, "transform", "--dist", "poisson:2")
    assert out["input"] == {"kind": "poisson", "params": [2.0]}
    assert out["mean"] == 2.0
    assert out["size_biased"] == {"kind": "poisson", "params": [2.0], "shift": 1.0}


def test_transform_atoms_literal(capsys):
    out = run_json(capsys, "transform", "--dist", "atoms:1=0.5,3=0.5")
    got = dict((x, p) for x, p in out["size_biased"]["atoms"])
    assert got == pytest.approx({1.0: 0.25, 3.0: 0.75})


def test_transform_no_closed_form_tabulates(capsys):
    out = run_json(capsys, "transform", "--dist", "geometric:0.5")
    assert "atoms" in out["size_biased"]
    atoms = out["size_biased"]["atoms"]
    assert atoms[0][0] == 1.0


def test_transform_from_file(capsys, tmp_path):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"atoms": [[1.0, 0.25], [2.0, 0.75]]}))
    out = run_json(capsys, "transform", "--dist", f"@{f}")
    assert out["mean"] == pytest.approx(1.75)
    # a grid file: Gamma(2) on [0, 20] at step 0.01
    xs = 0.01 * np.arange(2001)
    g = sb.GridDensity(0.01, xs * np.exp(-xs), mass_tol=1e-3)
    f.write_text(json.dumps(sb.dist_to_json(g)))
    out = run_json(capsys, "transform", "--dist", f"@{f}")
    assert out["input"] == sb.dist_to_json(g)
    assert out["mean"] == g.mean()
    assert out["size_biased"] == sb.dist_to_json(sb.size_bias_density(g))


def test_id_test_witness_exact_bytes(capsys):
    # binomial(2, 1/2) masses: the canonical non-divisible fixture; with a tiny
    # mass at 0 the witness at 2 still comes before the first non-finite
    # coefficient (at 4 and 11)
    for pmf in ("0.25,0.5,0.25", "1e-100,0.5,0.5", "1e-30,0.3,0.7"):
        code, out, err = run_cli(capsys, "id-test", "--pmf", pmf)
        assert code == 0
        assert out == '{"is_id": false, "witness_index": 2}\n'


def test_id_test_poisson_detects_unit_jumps(capsys):
    probs = ",".join(f"{p:.17g}" for p in
                     np.exp(-1.5) * 1.5 ** np.arange(30) /
                     [math.factorial(k) for k in range(30)])
    out = run_json(capsys, "id-test", "--pmf", probs)
    assert out["is_id"] is True
    assert out["a"] == pytest.approx(1.5, abs=1e-8)
    inc = dict((x, p) for x, p in out["increment"]["atoms"])
    assert inc[1.0] == pytest.approx(1.0, abs=1e-8)


def test_sum_output(capsys):
    out = run_json(capsys, "sum", "--dist", "atoms:0=0.5,1=0.5",
                   "--dist", "atoms:0=0.5,3=0.5")
    assert out["terms"] == 2
    assert out["index_probs"] == pytest.approx([0.25, 0.75])
    s = sb.IndependentSum((sb.DiscreteDist.from_pairs([(0.0, 0.5), (1.0, 0.5)]),
                           sb.DiscreteDist.from_pairs([(0.0, 0.5), (3.0, 0.5)])))
    want = sb.size_biased_sum_pmf(s)
    got = dict((x, p) for x, p in out["size_biased_sum"]["atoms"])
    for x, p in zip(want.xs, want.ps):
        assert got[float(x)] == pytest.approx(float(p), abs=1e-15)


def test_product_output(capsys):
    out = run_json(capsys, "product", "--dist", "atoms:1=0.5,2=0.5",
                   "--dist", "atoms:1=0.5,3=0.5")
    assert out["factors"] == 2
    atoms = dict((x, p) for x, p in out["size_biased_product"]["atoms"])
    assert sum(atoms.values()) == pytest.approx(1.0)
    mean = sum(x * p for x, p in atoms.items())
    assert mean == pytest.approx(25.0 / 6.0)   # (E X^2 / E X)(E Y^2 / E Y)


def test_compound_poisson_matches_library(capsys, tmp_path):
    out = run_json(capsys, "compound-poisson", "--a", "2.0",
                   "--increment", "atoms:1=0.6,2=0.4", "--n", "25")
    levy = sb.compound_poisson_from_increment(
        sb.DiscreteDist.from_pairs([(1.0, 0.6), (2.0, 0.4)]), 2.0)
    want = sb.pmf_recursion(levy, 25)
    assert out["a"] == 2.0
    assert dict((y, r) for y, r in out["jumps"]) == pytest.approx({1.0: 1.2, 2.0: 0.4})
    assert np.allclose(out["pmf"], want.ps, atol=1e-15)
    f = tmp_path / "levy.json"
    f.write_text(json.dumps(sb.levy_to_json(levy)))
    again = run_json(capsys, "compound-poisson", "--levy", f"@{f}", "--n", "25")
    assert again["pmf"] == out["pmf"]
    # jumps at 1 and 1 + 1e-13 share site 1, and their rates add up to Poisson(2)
    f.write_text(json.dumps({"a": 2, "jumps": [[1.0, 1.0], [1.0000000000001, 0.9999999999999001]]}))
    dup = run_json(capsys, "compound-poisson", "--levy", f"@{f}", "--n", "40")
    want = [math.exp(-2.0 + k * math.log(2.0) - math.lgamma(k + 1)) for k in range(41)]
    assert np.allclose(dup["pmf"], want, rtol=0, atol=1e-12)
    assert dup["tail_bound"] <= 1e-12


def test_borel_past_200_atoms(capsys):
    # the table doubles until its measured tail is below TAIL_CUT
    for r in (0.65, 0.9, 0.99):
        out = run_json(capsys, "transform", "--dist", f"borel:{r}")
        assert out["mean"] == pytest.approx(1.0 / (1.0 - r), rel=1e-15)
        # E X* = E X^2 / E X = 1/(1 - r) + r/(1 - r)^2; the cut moves it by 5.7e-9 at r = 0.99
        atoms = np.array(out["size_biased"]["atoms"])
        assert atoms[:, 0] @ atoms[:, 1] == pytest.approx(1 / (1 - r) + r / (1 - r) ** 2, rel=1e-8)


def test_dickman_grid_schema(capsys):
    out = run_json(capsys, "dickman", "--a", "1.0", "--h", "0.001", "--xmax", "5")
    assert set(out) == {"grid", "mass", "mean"}
    assert out["grid"]["h"] == 0.001
    assert out["mass"] == pytest.approx(1.0, abs=1e-9)
    assert out["mean"] == pytest.approx(1.0, abs=1e-3)


def test_buchstab_grid_schema(capsys):
    out = run_json(capsys, "buchstab", "--a", "1.0", "--b", "0.5", "--xmax", "8")
    assert out["grid"]["atom0"] == pytest.approx(0.25)   # b^(a/(1-b)) exactly
    assert out["mass"] == pytest.approx(1.0, abs=1e-4)


def test_orbit_and_berg(capsys):
    out = run_json(capsys, "orbit", "--b", "1.3", "--c", "2.0")
    assert out["size_bias_check"] is True
    assert out["mean"] == pytest.approx(math.sqrt(2.0), rel=1e-10)
    assert out["normalizer"] == pytest.approx(3.1640376689198240, rel=1e-13)
    bout = run_json(capsys, "berg", "--sign", "1", "--c", "2.0")
    assert bout["size_bias_check"] is False
    assert bout["moments"][1] == pytest.approx(math.sqrt(2.0), rel=1e-8)


def test_stieltjes_and_mixture(capsys):
    out = run_json(capsys, "stieltjes", "--m", "1", "--delta", "1.0", "--kmax", "3")
    assert np.allclose(out["moments"], out["lognormal_moments"], rtol=1e-6)
    mx = run_json(capsys, "mixture-check", "--c", str(math.e))
    assert mx["k_c"] == pytest.approx(1.0, abs=1e-6)
    assert mx["max_reconstruction_gap"] < 1e-6


def test_skorohod_fixture(capsys):
    out = run_json(capsys, "skorohod", "--dist", "atoms:-1=0.6666666666666666,2=0.3333333333333333")
    assert out["uv_atoms"] == [[1.0, 2.0, 1.0]]
    assert out["p_minus"] == pytest.approx(2 / 3)
    exit_atoms = dict((x, p) for x, p in out["exit_atoms"])
    assert exit_atoms == pytest.approx({-1.0: 2 / 3, 2.0: 1 / 3})
    assert out["expected_exit_time"] == pytest.approx(2.0)


def test_stein_fixture(capsys):
    out = run_json(capsys, "stein", "--n", "10", "--p", "0.1")
    assert out["bound"] == pytest.approx(0.06321205588285576, rel=1e-14)
    assert out["exact_tv"] == pytest.approx(0.02931157174283643, rel=1e-10)
    assert out["rate"] == pytest.approx(1.0)


def test_concentration_sides(capsys):
    up = run_json(capsys, "concentration", "--a", "4", "--c", "1", "--x", "8")
    assert up["side"] == "upper"
    assert up["tight"] == pytest.approx(0.21327402356696967, rel=1e-12)
    assert up["iteration"] == pytest.approx(0.15238095238095239, rel=1e-12)
    lo = run_json(capsys, "concentration", "--a", "4", "--c", "1", "--x", "2")
    assert lo["side"] == "lower"
    assert "iteration" not in lo
    at_mean = run_json(capsys, "concentration", "--a", "4", "--c", "1", "--x", "4")
    assert at_mean["side"] == "upper" and "iteration" not in at_mean
    # x/c = 2e-308, so r - m + 1 rounds onto the pole of log Gamma at 0; the bound is min(a/x, 1)
    for c in ("1e308", "1e300"):
        far = run_json(capsys, "concentration", "--a", "1", "--c", c, "--x", "2")
        assert abs(far["iteration"] - 0.5) <= 1e-12, c


# -------------------------------------------------------------------
# determinism

def _write_pop(tmp_path):
    f = tmp_path / "pop.csv"
    rows = ["x,y"] + [f"{x},{y}" for x, y in
                      zip([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.5, 4.0, 3.0, 6.0])]
    f.write_text("\n".join(rows) + "\n")
    return f


def test_midzuno_byte_identical(capsys, tmp_path):
    f = _write_pop(tmp_path)
    code1, out1, _ = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "3", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 7
    assert len(doc["subset"]) == 3
    _, out3, _ = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "3", "--seed", "8")
    assert out3 != out1


def test_default_seed_is_fixed(capsys, tmp_path):
    f = _write_pop(tmp_path)
    _, out_default, _ = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "2")
    _, out_explicit, _ = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "2",
                                 "--seed", str(DEFAULT_SEED))
    assert out_default == out_explicit


def test_renewal_deterministic_and_worker_invariant(capsys):
    argv = ["renewal", "--interarrival", "exponential", "--horizon", "80",
            "--n", "600", "--seed", "11"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    _, out_w2, _ = run_cli(capsys, *argv, "--workers", "2")
    doc1, doc2 = json.loads(out1), json.loads(out_w2)
    assert doc2["workers"] == 2 and doc2["n"] == 600
    # distinct stream layout, same model: means agree statistically
    assert abs(doc1["mean_covering"] - doc2["mean_covering"]) < \
        5 * (doc1["se_covering"] + doc2["se_covering"])
    _, out_w2b, _ = run_cli(capsys, *argv, "--workers", "2")
    assert out_w2 == out_w2b


def test_renewal_draws_blocks_where_a_whole_chunk_passes_the_cap(capsys):
    # one 20,000-stream buffer to 4,200 would take 1.06e8 arrival cells, past the cap;
    # 2,000 streams at a time, each block to its largest T (under 3,780), take 9.6e6
    doc = run_json(capsys, "renewal", "--interarrival", "dirac:1", "--horizon", "4200",
                   "--n", "20000")
    assert doc["n"] == 20000
    # unit gaps: every covering interval is 1, and T spans whole periods, so the wait
    # averages 1/2
    assert doc["mean_covering"] == 1.0 and doc["se_covering"] == 0.0
    assert abs(doc["mean_wait"] - 0.5) < 5 * doc["se_wait"]


def test_renewal_pool_capped_at_streams_and_cpus(capsys, monkeypatch):
    import sizebias.cli as cli
    seen = []

    class Recording(cli.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["renewal", "--interarrival", "exponential", "--n", "4"]
    huge = run_json(capsys, *argv, "--workers", "100000000000")
    four = run_json(capsys, *argv, "--workers", "4")
    one = run_json(capsys, *argv, "--workers", "1")
    assert seen == [2, 2, 1]
    assert huge["workers"] == 100000000000 and four["workers"] == 4
    # streams past n draw nothing, so both runs use streams 0..3 alike
    assert {**huge, "workers": 4} == four
    assert one["n"] == 4


def test_default_stdout_matches_golden(capsys):
    # the first ten take atoms only and involve no exp or log, so their bytes are portable
    # (the tenth keeps the -0 support point the sort order gives); the last four (stein,
    # named binomials, borel, stieltjes) pin the saddle-point masses and the centred
    # quadrature, whose last bits rest on numpy's exp, log and sin.  A delay-equation grid
    # prints 60-100 KB, so those entries keep the SHA-256 of stdout instead; dickman at a = 1
    # and buchstab at a = 1, b = 0.5 take only +, -, *, / and exact powers (x^0 = 1,
    # 0.5^2 = 0.25), so their bytes are portable too
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert len(golden) >= 14
    for case in golden:
        code, out, err = run_cli(capsys, *case["argv"])
        assert code == 0, err
        if "stdout" in case:
            assert out == case["stdout"], case["argv"]
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"], case["argv"]


def test_derived_streams_are_distinct():
    a = derive_rng(5, "midzuno").random(4)
    b = derive_rng(5, "renewal").random(4)
    c = derive_rng(5, "renewal", stream=1).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(b, c)


# A subcommand's random stream is keyed by its row's position in the CLI's
# table.  The order is copied here, not imported, so inserting or reordering
# rows fails; appending a row does not.
STREAM_ORDER = (
    "transform", "sum", "product", "compound-poisson", "id-test",
    "dickman", "buchstab", "orbit", "stieltjes", "berg",
    "mixture-check", "midzuno", "renewal", "skorohod", "stein",
    "concentration",
)


@pytest.mark.parametrize("stream", [0, 1])
def test_stream_order_is_pinned(stream):
    for i, name in enumerate(STREAM_ORDER):
        ss = np.random.SeedSequence(DEFAULT_SEED, spawn_key=(i, stream))
        want = np.random.Generator(np.random.Philox(ss)).random(4)
        assert np.array_equal(derive_rng(DEFAULT_SEED, name, stream).random(4), want), name


def test_run_config_is_a_value():
    argv = ["stein", "--n", "5", "--p", "0.2", "--format", "csv", "--out", "res.csv"]
    cfg1 = RunConfig.from_namespace(build_parser().parse_args(argv))
    cfg2 = RunConfig.from_namespace(build_parser().parse_args(argv))
    assert cfg1 == cfg2 and hash(cfg1) == hash(cfg2)
    assert (cfg1.format, cfg1.out) == ("csv", "res.csv")
    plain = build_parser().parse_args(["stein", "--n", "5", "--p", "0.2"])
    assert RunConfig.from_namespace(plain) == RunConfig("json", None)


def test_only_the_seeded_subcommands_take_a_seed(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {f for a in sp._actions for f in a.option_strings}
             for name, sp in sub.choices.items()}
    assert sorted(name for name, fs in flags.items() if "--seed" in fs) == ["midzuno", "renewal"]
    assert not any("--half-width" in fs for fs in flags.values())
    settable = [a for sp in sub.choices.values() for a in sp._actions
                if a.option_strings and a.dest != "help"]
    assert len(settable) == 70
    for argv in (["stein", "--n", "5", "--p", "0.2", "--seed", "9"],
                 ["orbit", "--b", "1.5", "--c", "2", "--half-width", "20"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "res.json"
    code, out, _ = run_cli(capsys, "stein", "--n", "5", "--p", "0.2", "--out", str(dest))
    assert code == 0 and out == ""
    doc = json.loads(dest.read_text())
    assert doc["n"] == 5


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "stein", "--n", "5", "--p", "0.2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    keys = {ln.split(",")[0] for ln in lines[1:]}
    assert {"n", "p", "rate", "bound", "exact_tv"} <= keys


# -------------------------------------------------------------------
# failure paths

def test_exit_2_on_bad_input(capsys, tmp_path):
    # JSON documents of the wrong shape, each refused with the field it gets wrong
    docs = {"transform": ("5", '{"atoms": 5}', '{"atoms": [1, 2]}', '{"grid": 5}',
                          '{"grid": {"h": 0.5}}'),
            "compound-poisson": ("5", "[1, 2]", '{"a": 1, "jumps": 5}',
                                 '{"a": 1, "jumps": [1, 2]}', '{"a": [1], "jumps": [[1, 1]]}',
                                 '{"jumps": [[1, 1]]}')}
    files = []
    for command, texts in docs.items():
        flag, at = ("--dist", "@") if command == "transform" else ("--levy", "")
        for i, text in enumerate(texts):
            f = tmp_path / f"{command}-{i}.json"
            f.write_text(text)
            files.append([command, flag, at + str(f)])
    # 1,001 negative and 1,000 positive atoms: a (u, v) grid past CONV_ATOM_CAP
    wide = tmp_path / "wide.json"
    xs = [*range(-1001, 0), *range(1, 1000), 2001]
    wide.write_text(json.dumps({"atoms": [[x, 1 / 2001] for x in xs]}))
    cases = [
        *files,
        ["skorohod", "--dist", "@" + str(wide)],
        ["compound-poisson", "--a", "inf", "--increment", "atoms:1=1"],
        ["compound-poisson", "--a", "nan", "--increment", "atoms:1=1"],
        # 1/f(0) overflows before a finite witness is found
        ["id-test", "--pmf", "1e-320,1"],
        ["id-test", "--pmf", "1e-200,1"],
        ["transform", "--dist", "dirac:0"],
        ["transform", "--dist", "nosuchfamily:1"],
        ["midzuno", "--csv", str(tmp_path / "missing.csv"), "--m", "2"],
        ["renewal", "--interarrival", "exponential", "--horizon", "3", "--n", "10"],
        ["skorohod", "--dist", "atoms:1=0.5,2=0.5"],
        ["id-test", "--pmf", "0.5,0.5,x"],
        ["compound-poisson", "--a", "2.0"],
        ["orbit", "--b", "1.0", "--c", "1.001"],
    ]
    big = tmp_path / "big.csv"
    big.write_text("x,y\n1e308,1\n1e308,2\n")
    # non-finite values refused where the object is built, and overflows refused before numpy
    # or the writer sees them; in process, so a RuntimeWarning fails the test
    named = {("dickman", "--a", "nan"): "mean must be finite, got nan",
             ("buchstab", "--a", "nan", "--b", "0.5"): "mean must be finite, got nan",
             ("dickman", "--a", "1", "--xmax", "nan"): "xmax must be finite, got nan",
             ("stieltjes", "--sigma", "nan"): "sigma must be finite, got nan",
             ("stieltjes", "--sigma", "inf"): "sigma must be finite, got inf",
             # the wiggle at or past the Nyquist rate of the quadrature grid aliases
             ("stieltjes", "--m", "5000"):
                 "m/sigma = 5000 is at or past 2500, the Nyquist rate of the 100000-panel "
                 "quadrature grid",
             ("stieltjes", "--m", "1000000000000"):
                 "m/sigma = 1e+12 is at or past 2500, the Nyquist rate of the 100000-panel "
                 "quadrature grid",
             ("midzuno", "--csv", str(big), "--m", "2"): "x values sum past the double range",
             ("dickman", "--a", "500"):
                 "the density's integral at mean 500 leaves the double range before xmax = 5",
             ("transform", "--dist", "lognormal:1000,1"):
                 "mean of lognormal(1000, 1) is past the double range",
             ("renewal", "--interarrival", "lognormal:1000,1"):
                 "mean of lognormal(1000, 1) is past the double range"}
    for argv, message in named.items():
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    errors = []
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")
        errors.append(err)
    fields = ("'atoms' or 'grid'", "'atoms'", "'atoms'", "'grid'", "'values'",
              "'a' and 'jumps'", "'a' and 'jumps'", "'jumps'", "'jumps'", "'a'", "'a'")
    for err, field in zip(errors, fields):
        assert field in err, (err, field)


def test_bad_header_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("u,v\n1,2\n")
    code, _, err = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "1")
    assert code == 2
    assert "header" in err


def test_non_finite_population_csv_exits_2(capsys, tmp_path):
    # the inf-y row is never drawn at this seed, so it once printed an estimate
    f = tmp_path / "pop.csv"
    for rows in ("1,0\nnan,1\n2,3\n", "1,0\ninf,1\n2,3\n", "1,0\n1e-300,inf\n2,3\n"):
        f.write_text("x,y\n" + rows)
        code, out, err = run_cli(capsys, "midzuno", "--csv", str(f), "--m", "1")
        assert code == 2 and out == "", rows
        assert err == "error: x and y values must be finite\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_bad_seed_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["midzuno", "--csv", "pop.csv", "--m", "2", "--seed", "-1"])
    assert exc.value.code == 2


def test_serialization_errors_exit_2(capsys, tmp_path, monkeypatch):
    code, out, err = run_cli(capsys, "stein", "--n", "5", "--p", "0.2",
                             "--out", str(tmp_path / "no-such-dir" / "res.json"))
    assert code == 2 and out == "" and err.startswith("error:")
    import sizebias.cli as C
    monkeypatch.setattr(C, "binomial_poisson_check", lambda n, p: (math.nan, 0.0))
    code, out, err = run_cli(capsys, "stein", "--n", "5", "--p", "0.2")
    assert code == 2 and out == "" and "non-finite" in err


# -------------------------------------------------------------------
# fresh processes: the import path and inputs that once hung or crashed

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*args, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("module", ["sizebias", "sizebias.cli"])
def test_import_loads_no_scipy(module):
    p = _fresh_python("-c", f"import sys, {module}; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


def test_former_crash_and_hang_argv_exit_cleanly():
    bad_input = (["transform", "--dist", "poisson:nan"],
                 ["renewal", "--interarrival", "exponential", "--n", "1"],
                 ["renewal", "--interarrival", "dirac:0", "--n", "10"],
                 ["renewal", "--interarrival", "exponential", "--horizon", "inf", "--n", "10"],
                 *(["renewal", "--interarrival", fam, "--n", "10"]
                   for fam in ("poisson:2", "bernoulli:0.5", "binomial:10,0.3", "geometric:0.5",
                               "borel:0.5", "lognormal:0,2000")),
                 ["transform", "--dist", "lognormal:0,2000"],
                 ["renewal", "--interarrival", "uniform01", "--n", "10", "--horizon", "1e12"],
                 # bases and ratios that are not positive finite numbers
                 ["orbit", "--b", "inf", "--c", "2"],
                 ["orbit", "--b", "0", "--c", "2"],
                 ["orbit", "--b", "nan", "--c", "2"],
                 ["orbit", "--b", "1.5", "--c", "nan"],
                 ["berg", "--sign", "1", "--c", "inf"],
                 ["mixture-check", "--c", "nan"],
                 ["mixture-check", "--c", "inf"],
                 # a h >= 2(1 + h) zeroes the implicit denominator; a/h overflows
                 ["dickman", "--a", "2002", "--h", "0.001"],
                 ["dickman", "--a", "1e308"],
                 ["buchstab", "--a", "1e308", "--b", "0.5"],
                 # b rounds to grid index 0; e^-800 underflows; b c^M overflows;
                 # the dickman seed endpoint 2 h^(a-1)/a overflows
                 ["buchstab", "--a", "1", "--b", "1e-12"],
                 ["compound-poisson", "--a", "800", "--increment", "atoms:1=1", "--n", "10"],
                 ["orbit", "--b", "1", "--c", "1e26"],
                 ["berg", "--sign", "1", "--c", "1e26"],
                 ["dickman", "--a", "1e-305"],
                 # x^3 overflows at the top atoms, which carry no mass: inf * 0 is NaN
                 ["berg", "--sign", "1", "--c", "2e8"],
                 # supports, sums of means and outer sums or products past the double range
                 ["transform", "--dist", "atoms:1e308=0.5,-1e308=0.5"],
                 ["sum", "--dist", "atoms:1e308=1", "--dist", "atoms:1e308=1"],
                 ["product", "--dist", "atoms:1e200=1", "--dist", "atoms:1e200=1"],
                 ["skorohod", "--dist", "atoms:-1e308=0.5,1e308=0.5"])
    # tabulations and grids that would not fit in memory, or take minutes to fill
    unbounded = (["transform", "--dist", "geometric:1e-300"],
                 ["transform", "--dist", "geometric:1e-9"],
                 ["sum", "--dist", "poisson:1e18"],
                 ["sum", "--dist", "binomial:1e8,0.5"],
                 ["stein", "--n", "1000000000000", "--p", "0.5"],
                 ["stein", "--n", "100000000", "--p", "0.5"],
                 ["dickman", "--a", "1", "--h", "1e-9"],
                 ["buchstab", "--a", "1", "--b", "0.5", "--xmax", "1e12"],
                 ["compound-poisson", "--a", "2", "--increment", "atoms:1=1", "--n", "100000000"],
                 ["compound-poisson", "--a", "2", "--increment", "atoms:1=0.5,2=0.5",
                  "--n", "9999999"],
                 ["stieltjes", "--kmax", "1000000000"],
                 ["stieltjes", "--kmax", "40"],
                 ["transform", "--dist", "borel:0.999"])
    for argv in (*bad_input, *unbounded):
        p = _fresh_python("-m", "sizebias.cli", *argv, timeout=30)
        assert p.returncode == 2, argv
        assert p.stdout == "" and p.stderr.startswith("error:")
        assert "Traceback" not in p.stderr and "RuntimeWarning" not in p.stderr, argv
    # x + a and (x - a)^2 overflow near the top of the double range
    p = _fresh_python("-m", "sizebias.cli", "concentration", "--a", "9e307", "--c", "1",
                      "--x", "9e307", timeout=30)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"side": "upper", "tight": 1, "gaussian": 1}
    for a, c, x in (("1e308", "1e10", "1.2e308"), ("1.5e308", "1", "1e307")):
        p = _fresh_python("-m", "sizebias.cli", "concentration", "--a", a, "--c", c, "--x", x,
                          timeout=30)
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        assert 0.0 <= doc["tight"] <= doc["gaussian"] <= 1.0
    # exp(-1000) underflows; the Poisson cut must still be found
    p = _fresh_python("-m", "sizebias.cli", "stein", "--n", "2000", "--p", "0.5", timeout=30)
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert 0.0 < doc["exact_tv"] <= doc["bound"] == 0.5
    # x/a underflows to 0; the log-factorial binomial was refused as not summing to 1
    p = _fresh_python("-m", "sizebias.cli", "concentration", "--a", "1e300", "--c", "1",
                      "--x", "1e-300", timeout=30)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"side": "lower", "tight": 0, "gaussian": 0}
    p = _fresh_python("-m", "sizebias.cli", "sum", "--dist", "binomial:5000,0.5", timeout=30)
    assert p.returncode == 0, p.stderr
    atoms = np.array(json.loads(p.stdout)["size_biased_sum"]["atoms"])
    assert atoms[:, 0].tolist() == list(range(1, 5001))
    assert atoms[:, 1] @ atoms[:, 0] == pytest.approx(2500.5, rel=1e-12)
    # c^-n overflows reducing a subnormal base; 1e-320 = 2024 * 2^-1074 lands on 2024 / 1024
    p = _fresh_python("-m", "sizebias.cli", "orbit", "--b", "1e-320", "--c", "2", timeout=30)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["b"] == pytest.approx(2024 / 1024, rel=1e-12)
    # a reconstruction point on an orbit slot was reduced to b = c and refused
    for c in ("1.0650410894399627", "1.0268865038818877", "1.0489642553230345"):
        p = _fresh_python("-m", "sizebias.cli", "mixture-check", "--c", c, timeout=30)
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        assert doc["k_c"] == pytest.approx(1.0, abs=1e-14)
        assert doc["max_reconstruction_gap"] < 1e-6
    # f(b) at b ~ c/2 underflowed before the slot Jacobian scaled it back: a gap of 0.03
    p = _fresh_python("-m", "sizebias.cli", "mixture-check", "--c", "1e300", timeout=30)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["max_reconstruction_gap"] < 1e-12
    # 1e9 coupling steps: closed forms, no loop and no overflow
    p = _fresh_python("-m", "sizebias.cli", "concentration", "--a", "1", "--c", "1e-9",
                      "--x", "2", timeout=30)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"side": "upper", "tight": 0, "gaussian": 0, "iteration": 0}
