"""The README's Python examples run against the current API, and its
tables quote the module constants."""

import re
from pathlib import Path

from gensym.detection import PROBE_MARGIN, PROBE_UPPER, PROBES

from test_cli import CASE2_OP_PEAKS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_gates_table_quotes_the_probe_screen_constants():
    row = next(line for line in README.read_text(encoding="utf-8").split("\n")
               if line.startswith("| `no_gensym` probe screen"))
    for quoted in ("every dense `M`", f"`V` of {PROBES} probes",
                   f"√(2·{PROBES}·u)",
                   f"`u = {PROBE_UPPER:.2f}`", f"`{PROBE_MARGIN:.1f}·rtol`"):
        assert quoted in row


def test_cost_model_quotes_the_case2_op_peak_bounds():
    lines = README.read_text(encoding="utf-8").split("\n")
    for name, model, dim in (
            ("hardcore_8", "`hardcore_chain(8, 0.3+0.1j)`", 256),
            ("hardcore_7", "`hardcore_chain(7, 0.3+0.1j)`", 128),
            ("jc_127", "`jaynes_cummings(1, 1, 0.1, 127)`", 256),
            ("hardcore_8_unitary",
             "`hardcore_chain(8, 0.3+0.1j)` under a random unitary", 256),
            ("projection_256", "`projection_example(256, 3)`", 256)):
        row = next(line for line in lines
                   if line.startswith(f"| {model} | {dim} |"))
        assert row.endswith(f"| {CASE2_OP_PEAKS[name]} |")
