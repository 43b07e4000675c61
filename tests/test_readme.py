"""The library example in README.md runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README}:python", "exec"), namespace)
    # a Werner state has maximally mixed marginals, so it is lazy; the
    # squeezed Gaussian example is not
    assert namespace["report"].is_lazy
    assert not namespace["lz"].is_lazy_gaussian(namespace["gform"])
