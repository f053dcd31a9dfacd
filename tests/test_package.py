"""Tests for the package's public namespace."""

import re
from pathlib import Path

import ramfourier

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in ramfourier.__all__:
        assert hasattr(ramfourier, name), name
    assert len(set(ramfourier.__all__)) == len(ramfourier.__all__)


def test_readme_quick_start_runs():
    # A removed or renamed public name breaks this, not just the docs.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    ns = {}
    exec(block, ns)
    assert ns["ramanujan_sum"](2, 4) == -2
    assert ns["spectrum"].coeffs == {1: 8, 2: 4, 4: 2}
    assert ns["irft"](ns["spectrum"]) == ns["f"]
    assert ns["irft"](ns["rft_divisor_form"](ns["g"])) == ns["g"]
    assert ns["verify_orthogonality"](12).passed
