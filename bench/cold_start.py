"""One cold start of hyplyap, timed by the process that launches it.

Usage: python3 bench/cold_start.py SRC_DIR CONFIG [MODULE ...]

Covers what a user pays per process before the first path-step: interpreter
start, ``import hyplyap.cli``, the modules listed (the scipy submodules that
operations import lazily), ``build_genus2``, config parse and
representation build.
"""

import importlib
import sys


def main(argv):
    src, config, *modules = argv
    sys.path.insert(0, src)
    from hyplyap import cli

    for name in modules:
        importlib.import_module(name)
    group = cli.build_genus2()
    cli.build_representation(cli.load_config(config), group)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
