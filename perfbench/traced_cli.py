"""Run the subrad CLI with every public subrad function traced.

Usage: python3 perfbench/traced_cli.py SPANS_DIR SUBCOMMAND [CLI ARGS...]

Span files land in SPANS_DIR (see tracer.py); the CLI's exit code is kept.
"""

import sys

import tracer


def main() -> int:
    recorder = tracer.Tracer(sys.argv[1])
    tracer.install(recorder)
    import subrad.cli

    return subrad.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
