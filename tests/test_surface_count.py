"""The surface counter on a small package whose counts are worked out by hand."""

import subprocess
import sys
from pathlib import Path

from surface_count import count

FIXTURE = '''\
"""A fixture module."""
from dataclasses import dataclass
from typing import ClassVar
import math

__version__ = "1"
LIMIT = 3
_HIDDEN = 4


def public(a, b=1, *rest, c=2, d, **more):
    return a


def _private(x, y):
    return x


@dataclass(frozen=True)
class Config:
    SCALE: ClassVar[float] = 2.0
    size: int = 1
    name: str = "a"

    def __post_init__(self):
        self._checked = True

    @property
    def area(self):
        return self.size * self.SCALE


class Holder:
    KIND = "holder"

    def __init__(self, value, other=None):
        self.value = value
        self._other = other

    def reset(self, value):
        self.value = value
        self.count = 0


class _Internal:
    def method(self, x):
        return x
'''


def test_counts_a_fixture_package(tmp_path):
    (tmp_path / "mod.py").write_text(FIXTURE)
    # the second module adds one public constant and a line
    (tmp_path / "other.py").write_text("WIDTH = 2\n")
    # public: LIMIT, public, Config (+ SCALE, size, name, area), Holder
    # (+ KIND, value, reset, count), WIDTH; not __version__, _HIDDEN,
    # _private, _checked, _other or _Internal
    # settable: public a, b, rest, c, d, more (6); Config size, name (2;
    # SCALE is a ClassVar); Holder.__init__ value, other (2); reset value (1)
    # optional: public b, c; Config size, name (defaults the generated
    # __init__ takes; not SCALE); Holder.__init__ other
    lines = FIXTURE.count("\n") + 1
    assert count(tmp_path) == {
        "lines": lines, "public_names": 13, "settable_values": 11, "optional_parameters": 5
    }


def test_cli_prints_the_four_counts(tmp_path):
    (tmp_path / "mod.py").write_text("def f(x, y=0):\n    return x\n")
    script = Path(__file__).with_name("surface_count.py")
    out = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert out == "lines 2\npublic_names 1\nsettable_values 2\noptional_parameters 1\n"
