"""Traced entry point for one `faarm verify` process of the boot-cold workload.

usage: python boot_child.py SPANS_OUT VERIFY_ARGS...

Times `import faarm.cli`, installs the layer wrappers, runs faarm.cli.main
with VERIFY_ARGS, writes the spans to SPANS_OUT as JSON and exits with the
exit code of main.
"""

import sys
import time


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import faarm.cli

    t1 = time.perf_counter_ns()
    from spans import Recorder, write_child_spans

    rec = Recorder()
    rec.add("cli.import", 0, -1, t0, t1)
    rec.install(0)
    try:
        code = faarm.cli.main(argv)
    finally:
        rec.uninstall()
    write_child_spans(rec, spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
