"""Byte-for-byte golden comparison for the fault-sweep CLIs.

Each golden pair under ``tests/golden/`` is the captured stdout
(``<name>.out``) and ``--json`` file (``<name>.json``) of one CLI
invocation.  The invocation runs inside a scratch working directory
with ``--json <name>.json``, so the "wrote ..." line of stdout is the
same on every host.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def run_golden(name, argv, tmp_path, monkeypatch, capsys):
    """Run ``python -m repro <argv>`` and compare against the goldens.

    Returns ``(exit code, stdout, parsed JSON payload)`` so the caller
    can keep asserting on the semantic content as well.
    """
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    rc = main(list(argv) + ["--json", f"{name}.json"])
    out = capsys.readouterr().out
    written = (tmp_path / f"{name}.json").read_bytes()
    assert out == (GOLDEN / f"{name}.out").read_text(), \
        f"stdout of {name} differs from tests/golden/{name}.out"
    assert written == (GOLDEN / f"{name}.json").read_bytes(), \
        f"--json of {name} differs from tests/golden/{name}.json"
    return rc, out, json.loads(written)
