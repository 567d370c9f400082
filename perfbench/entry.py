"""Start the semdisc CLI as its console script does, and note when set-up ends.

usage: python3 perfbench/entry.py MARK_FILE <semdisc arguments>

Set-up ends when the association table has been loaded. At that moment
the perf_counter value (CLOCK_MONOTONIC, shared with the benchmark process)
is written to MARK_FILE; the CLI is otherwise untouched. If the loader is
no longer found under its name, the mark is taken once imports are done.
"""

import sys
import time

from semdisc import cli

mark_path = sys.argv.pop(1)


def _mark():
    with open(mark_path, "x") as fh:
        fh.write(repr(time.perf_counter()))


load = getattr(cli, "load_association_csv", None)
if load is None:
    _mark()
else:

    def load_then_mark(*args, **kwargs):
        table = load(*args, **kwargs)
        cli.load_association_csv = load
        _mark()
        return table

    cli.load_association_csv = load_then_mark

sys.exit(cli.main())
