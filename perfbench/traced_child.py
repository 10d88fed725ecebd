"""Run one freshkit CLI call with the span recorder installed.

Usage: python3 traced_child.py SPANS_JSONL REQUEST_ID -- FRESHKIT_ARGS...

The program itself is unchanged: the wrappers are bound from here, the
report goes to stdout exactly as with the `freshkit` entry point, and the
spans are written to SPANS_JSONL when the call returns.
"""
from __future__ import annotations

import sys

from spans import Recorder


def main() -> int:
    spans_path, request_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_child.py SPANS_JSONL REQUEST_ID -- ARGS...")
    recorder = Recorder()
    recorder.install()
    import freshkit.cli

    try:
        return freshkit.cli.main(argv)
    finally:
        recorder.write_jsonl(spans_path, {"request": request_id,
                                          "subcommand": argv[0] if argv else ""})


if __name__ == "__main__":
    raise SystemExit(main())
