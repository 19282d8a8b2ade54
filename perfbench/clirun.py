"""Run one hopf CLI command for the benchmark.

Usage: python3 clirun.py OUT_JSON plain|trace HOPF_ARGS...

Behaves like ``python3 -m hopfsim.cli HOPF_ARGS...`` (same exit status, an
uncaught exception still ends in a traceback).  When the command ends it
writes OUT_JSON: the command's own peak RSS in MB and, with ``trace``, the
spans and counts of the benchmark's tracer.  The peak is the VmHWM of this
process; its ru_maxrss would also hold the peak of the benchmark process
that spawned it, which a child inherits when it execs.
"""

import json
import sys


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return int(fields["VmHWM"].split()[0]) / 1024.0


def main():
    out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from hopfsim import cli

    doc = {}
    if mode == "trace":
        import layers
        from spans import Patches, Tracer

        tracer, patches = Tracer(), Patches()
        layers.install(tracer, patches)
    try:
        return cli.main(argv)
    finally:
        if mode == "trace":
            patches.restore()
            doc = layers.dump(tracer)
        doc["peak_rss_mb"] = peak_rss_mb()
        with open(out, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
