"""One cold start: a fresh interpreter imports nilmoduli and makes the first
call of each op kind of a workload.

Run by ``run.py`` as ``python3 perfbench/coldstart.py`` with the inputs as
JSON on stdin (read before the clock starts, with the standard library
only, so that the numpy import inside ``import nilmoduli`` is timed).
Prints ``{"setup_s": ..., "module": ..., "ok": ...}``; ``ok`` is false if
a call raised or did not succeed.
"""

import contextlib
import io
import json
import sys
import time


def main():
    payload = json.load(sys.stdin)
    kind, items = payload["kind"], payload["items"]
    t0 = time.perf_counter()
    import nilmoduli.cli as cli
    import nilmoduli.hermitian as hm
    import nilmoduli.moduli as mo

    ok = True
    for item in items:
        try:
            if kind == "canonicalize":
                mo.canonicalize(item["label"], mo.Metric(item["label"], item["matrix"]))
            elif kind == "search":
                res = hm.hermitian_search(item["label"],
                                          mo.Metric(item["label"], item["matrix"]), budget=64)
                ok = res.found and ok
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    ok = cli.main(item) == 0 and ok
        except Exception:  # the parent reports the run as incorrect
            ok = False
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "module": cli.__file__, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
