"""Benchmark-owned CLI driver that times the four phases of a call.

Runs in a fresh interpreter, like ``python -m sizebias.cli``, and for
each argv given it times ``import sizebias.cli`` (once), parsing with
``build_parser().parse_args``, the subcommand function, and
``json_text``/``csv_text``.  It maps errors to exit codes the way the
CLI's ``main`` does, and prints one JSON line: per argv, the exit code,
the text the CLI would write, and the phase times in seconds.

    python3 bench/cli_phases.py '[["stein", "--n", "10", "--p", "0.1"]]'
"""

import contextlib
import io
import json
import sys
import time
import traceback

t_import = time.perf_counter()
import sizebias.cli as C  # noqa: E402
from sizebias.errors import SizeBiasError  # noqa: E402
t_ready = time.perf_counter()


def call(argv):
    err = io.StringIO()
    phases = {}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            args = C.build_parser().parse_args(argv)
    except SystemExit as e:
        return {"code": e.code, "out": "", "err": err.getvalue(), "phases": phases}
    cfg = C.RunConfig.from_namespace(args)
    t1 = time.perf_counter()
    phases["parse"] = t1 - t0
    try:
        result = args.func(args)
    except (SizeBiasError, ValueError, OSError, KeyError) as e:
        return {"code": 2, "out": "", "err": f"error: {e}\n", "phases": phases}
    except Exception:
        return {"code": 1, "out": "", "err": traceback.format_exc(), "phases": phases}
    t2 = time.perf_counter()
    phases["compute"] = t2 - t1
    try:
        text = C.json_text(result) + "\n" if cfg.format == "json" else C.csv_text(result)
    except Exception:
        return {"code": 1, "out": "", "err": traceback.format_exc(), "phases": phases}
    phases["emit"] = time.perf_counter() - t2
    return {"code": 0, "out": text, "err": "", "phases": phases}


def main():
    calls = [call(argv) for argv in json.loads(sys.argv[1])]
    print(json.dumps({"import": t_ready - t_import, "calls": calls}))


if __name__ == "__main__":
    main()
