"""Every catalog entry and every benchmark instance, as pytest parameters
that build (graded ring, bound) on demand."""

import pathlib

import pytest

from z2spec.catalog import CATALOG
from z2spec.instances import build_instance, effective_bound, parse_instance

PERFBENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "instances"


def _perfbench_instance(path):
    inst = parse_instance(path.read_text())
    bound = effective_bound(inst)
    return build_instance(inst, bound), bound


INSTANCE_CASES = [pytest.param(lambda e=entry: (e.build(), None), id=entry.instance_id)
                  for entry in CATALOG]
INSTANCE_CASES += [pytest.param(lambda p=path: _perfbench_instance(p), id=path.stem)
                   for path in sorted(PERFBENCH_DIR.glob("*.json"))]
