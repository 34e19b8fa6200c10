"""``scripts/output_digests.txt`` holds one line per output of
``scripts/output_digests.py``, in printout order.  The check reads the
script and the record and runs no command, so a config added under
``configs/`` without recording the file again fails here, not only under
``output_digests.py --check``."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "(-|[0-9a-f]{64})"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_holds_one_line_per_output_in_printout_order():
    digests = load_script()
    # the shipped configs and field_3d, the generated 2D run, then the
    # variants and the /dev/full write, which add a stderr digest
    plain = ([f"{command} {config.relative_to(ROOT)}" for command, config in digests.scenarios()]
             + [f"run {digests.GENERATED_2D}"])
    with_stderr = ([digests.variant_prefix(*variant) for variant in digests.VARIANTS]
                   + ["run configs/flat_1d.json --out /dev/full"])
    header, *lines = digests.RECORD.read_text().splitlines()
    assert re.fullmatch(r"# numpy=\S+ machine=\S+", header)
    assert [line[:line.index(" exit=")] for line in lines] == plain + with_stderr
    tails = [line[line.index(" exit="):] for line in lines]
    for i, tail in enumerate(tails):
        stderr = f" stderr_sha256={DIGEST}" if i >= len(plain) else ""
        assert re.fullmatch(rf" exit=\d sha256={DIGEST}{stderr}", tail), lines[i]
