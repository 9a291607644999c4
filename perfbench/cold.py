"""Runs one dualcalc command as ``python -m dualcalc`` does, sampled.

    python3 perfbench/cold.py CALIBRATION_OUT ARGV...

A ``calibrate.Sampler`` runs while the command does, and its slice times are
written as a JSON list to ``CALIBRATION_OUT`` when the command ends; the
process exits with the command's exit code.
"""
from __future__ import annotations

import json
import runpy
import sys

import calibrate


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["dualcalc", *argv]
    code = 0
    sampler = calibrate.Sampler()
    try:
        with sampler:
            runpy.run_module("dualcalc", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        with open(out, "w") as fh:
            json.dump(sampler.slices, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
