"""Run one session in this interpreter by calling treelab.cli.main(argv).

Usage: python3 perfbench/inproc.py SPEC.json

SPEC names the program's source directory, the commands (argv, and the
file that receives each command's standard output), whether to trace,
and where to write the result.  The program is imported before the clock
starts, so the session wall time covers the commands alone.  With tracing
on, the spans are written to the result file when the session ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import treelab.cli

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.install()
    commands = spec["commands"]
    sinks = [open(c["stdout"], "w", encoding="utf-8") for c in commands]
    walls, codes = [], []
    try:
        session_start = time.perf_counter()
        for command, sink in zip(commands, sinks):
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                try:
                    code = treelab.cli.main(command["argv"])
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
            walls.append(time.perf_counter() - start)
            codes.append(code)
        session_wall = time.perf_counter() - session_start
    finally:
        for sink in sinks:
            sink.close()
    result = {"session_wall_s": session_wall, "walls_s": walls, "codes": codes}
    if recorder is not None:
        counts = recorder.counts()
        oracle_windows = 0
        if recorder.deferred_windows:
            from oracle import window_total

            for k, tree in recorder.deferred_windows:
                oracle_windows += window_total(tree.n, tree.edges, k)
        counts["counting.windows"] += oracle_windows
        result.update(
            calling_thread=recorder.calling_thread,
            spans=recorder.spans,
            counts=dict(counts),
        )
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
