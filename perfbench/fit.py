"""Fit the new system's LogSynergy pipeline and save it (set-up step 1).

Runs in its own process, started by ``run.py``, so the fit's memory never
counts towards serving memory.  Usage::

    python3 perfbench/fit.py --out <pipeline-dir>
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import TARGET, fit_config, fit_inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.core import LogSynergy

    sources, target = fit_inputs()
    pipeline = LogSynergy(fit_config())
    pipeline.fit(sources, TARGET, target)
    pipeline.save_pipeline(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
