"""Run one ``attenpat`` CLI command in-process with the tracer installed.

usage: python perfbench/cli_child.py <dump.json> <scenario id> <cli args...>

Exits with the CLI's exit code after writing the span dump.
"""

import json
import sys

import tracer


def main(argv):
    out_path, scenario, cli_args = argv[0], argv[1], argv[2:]
    from attenpat import cli

    tr = tracer.install()
    tr.scenario = scenario
    try:
        code = cli.main(cli_args)
    finally:
        unrestored = tr.uninstall()
        dump = tr.dump()
        dump["unrestored"] = unrestored
        with open(out_path, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
