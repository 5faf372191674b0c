"""Set-up probe: a fresh interpreter imports the CLI and loads one config.

usage: python perfbench/probe.py <config.json>

The caller times the whole process.  It prints the library versions the
import loaded and the config's array sizes, as one JSON line.
"""

import json
import sys

import attenpat.cli  # noqa: F401  (the CLI's import is part of set-up)
from attenpat.experiments import ScenarioConfig

with open(sys.argv[1]) as fh:
    config = ScenarioConfig.from_dict(json.load(fh))

import numpy
import scipy

blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    "sizes": {"r1": [[config.forward_quad_nodes, config.forward_time_count],
                     [config.quad_nodes, config.inversion_time_count]]},
}))
