"""Print every benchmark operation's outputs, one ``repr`` line each.

    python3 tools/dump_outputs.py 1 11 > outputs.txt

Run from the root of a source checkout; geoburn is imported from
``src``.  For each seed and each workload of ``perfbench/workloads.py``
it builds the round of operations, runs each once through the
benchmark's own ``run._call`` and validates the schedule it returns.
A line holds the workload, seed and label, the outcome's key (horizon,
schedule, count, guess entries, error), the reduction layout where the
operation builds one, and geoburn's validation report.  Dumps of two
trees compare with ``cmp``: a change that keeps every output keeps the
dump byte-identical.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "perfbench"):
    path = os.path.join(ROOT, sub)
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402


def dump(gb, workload: str, seed: int) -> None:
    wl = workloads.build(workload, seed)
    inputs = {key: (gb.ioformats.parse_lsat if text.startswith("p lsat")
                    else gb.ioformats.parse_instance)(text)
              for key, text in wl.files.items()}
    state: dict = {}
    for op in wl.ops:
        try:
            out = run._call(gb, op, inputs, state)
            report = (None if out.schedule is None
                      else gb.core.validate_schedule(out.instance, out.schedule))
        except Exception as exc:
            out, report = run.Outcome(error=f"{type(exc).__name__}: {exc}"), None
        print(repr((workload, seed, op.label, out.key(), out.layout, report)))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    gb = run.import_geoburn()
    for seed in map(int, argv):
        for workload in workloads.WORKLOADS:
            dump(gb, workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
