"""Known defects, probed on every traced run and counted as failures.

The end-to-end workloads use only inputs on which every operation
succeeds, so their timings compare like with like.  The inputs below
are kept apart because each one fails at the current code; they are
run under a short wall-clock cap and reported as ``defects.failed`` out
of ``defects.attempted``, so a fix shows up as a drop in that count.

- ``transform --dist poisson:nan``, ``renewal --n 1`` and
  ``concentration --a 1 --c 1e-9 --x 2`` end in a traceback with exit 1
  (NaN reaching the writer; a one-sample standard error; an overflow
  in the closed-form bound, ahead of a 1e9-step loop); bad input
  should exit 2 with an error message.
- ``stein --n 2000 --p 0.5`` does not return: exp(-1000) underflows to
  0 and the Poisson tail loop never meets its stopping test.
- ``extract_increment`` calls a genuine compound-Poisson law with mean
  a = 20 not divisible.
"""

from __future__ import annotations

import numpy as np

from cli_startup import run_cli

PROBE_CAP_S = 6.0
CLI_PROBES = (
    ["transform", "--dist", "poisson:nan"],
    ["renewal", "--interarrival", "exponential", "--n", "1"],
    ["stein", "--n", "2000", "--p", "0.5"],
    ["concentration", "--a", "1", "--c", "1e-9", "--x", "2"],
)
ROUND_TRIP_MEANS = (20.0, 24.0)


def probe():
    """(attempted, failed, messages) over every known-defect input."""
    attempted = failed = 0
    messages = []
    for argv in CLI_PROBES:
        attempted += 1
        secs, code, out, err = run_cli(argv, cap=PROBE_CAP_S)
        if code is None:
            failed += 1
            messages.append(f"{' '.join(argv)}: no exit within {PROBE_CAP_S:.0f} s")
        elif code not in (0, 2) or "Traceback" in err:
            failed += 1
            messages.append(f"{' '.join(argv)}: exit {code} with a traceback")

    import sizebias.dist_core as D
    import sizebias.inf_div as I
    inc = D.DiscreteDist(np.arange(1.0, 4.0), np.array([0.5, 0.3, 0.2]))
    for a in ROUND_TRIP_MEANS:
        attempted += 1
        levy = I.compound_poisson_from_increment(inc, a)
        if not I.extract_increment(I.pmf_recursion(levy, 500)).is_id:
            failed += 1
            messages.append(f"round trip at a={a:g}: compound Poisson law reported not divisible")
    return attempted, failed, messages
