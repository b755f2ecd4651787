"""The reports of a short README-shaped pipeline are byte-identical to the
committed digests (``report_digests.py`` regenerates them).

The digests hold only on the platform that made them; elsewhere the test
skips and names what differs, so it never passes without comparing.
"""

import json

import pytest

import report_digests


def test_reports_match_committed_digests(tmp_path):
    stored = json.loads(report_digests.DIGESTS.read_text(encoding="utf-8"))
    here = report_digests.platform()
    differs = {key: (stored["platform"].get(key), value)
               for key, value in here.items() if stored["platform"].get(key) != value}
    if differs:
        pytest.skip("report digests were made on another platform "
                    f"(stored, here): {differs}")
    got = report_digests.run_pipeline(tmp_path)
    moved = sorted(name for name in stored["digests"].keys() | got.keys()
                   if stored["digests"].get(name) != got.get(name))
    assert not moved, f"outputs whose bytes moved: {moved}"
