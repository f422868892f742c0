"""Every tolerance in the record is applied somewhere: a field that no
library code reads is a dead knob."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

import prolongation
from prolongation.config import Tolerances

LIBRARY = [p for p in Path(prolongation.__file__).parent.glob("*.py") if p.name != "config.py"]


@pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
def test_every_tolerance_is_read_by_the_library(name):
    pattern = re.compile(rf"\.{name}\b")
    assert any(pattern.search(p.read_text()) for p in LIBRARY), f"nothing reads {name}"
