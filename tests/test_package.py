"""Tests for the package's public namespace."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ramfourier
from ramfourier import arith, errors, even, funcfile, periodic, ramanujan

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in ramfourier.__all__:
        assert hasattr(ramfourier, name), name
    assert len(set(ramfourier.__all__)) == len(ramfourier.__all__)


def test_package_exports_each_modules_all():
    modules = (arith, errors, even, funcfile, periodic, ramanujan)
    assert set(ramfourier.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))


def test_cli_import_skips_dataclasses_and_inspect():
    # Only what the import adds counts, so a .pth file that loads either
    # module at start-up cannot fail this.
    code = (
        "import sys; before = set(sys.modules); import ramfourier.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(ramfourier.__file__).resolve().parent.parent)
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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
