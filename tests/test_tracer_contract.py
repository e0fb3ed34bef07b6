"""The benchmark's tracer contract: `perfbench/spans.py` wraps each
(module, attribute) of its TRACED table right after `import polinv.cli`, so
every one must exist by then.  TRACED is read with `ast`, so the benchmark's
own imports (numpy) are not needed."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced():
    """[(module or None, attribute), ...] of TRACED, in order."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return [(ast.literal_eval(row.elts[1]), ast.literal_eval(row.elts[2]))
                    for row in node.value.elts]
    raise AssertionError("perfbench/spans.py assigns no TRACED")


def test_every_traced_attribute_exists_after_importing_the_cli():
    traced = _traced()
    assert ("polinv.groups", "reynolds") in traced and (None, "substitute") in traced
    script = textwrap.dedent("""
        import json, sys
        import polinv.cli
        missing = []
        for module, attribute in json.loads(sys.argv[1]):
            owner = (sys.modules["polinv.poly"].Poly if module is None
                     else sys.modules.get(module))
            if not hasattr(owner, attribute):
                missing.append([module, attribute])
        print(json.dumps(missing))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(traced)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
