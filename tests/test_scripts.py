import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bcoend_ladder_script_reproduces_its_hashes():
    # the stdout digests of the certified K^2 and K^3 rungs, kept fixed so
    # that a change to the normed coend's output shows here
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bcoend_ladder.py"), "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rungs = re.findall(r"exit (\d+), carrier_dim (\d+), [0-9.]+ s, stdout sha256 ([0-9a-f]{64})",
                       proc.stdout)
    assert rungs == [
        ("0", "4", "ad168780902ca93d9ddc81a726c0cc002e379a0dba00ec61cf062b251cf917ff"),
        ("0", "9", "73b72e43b887dfde7b8dce250a2aea815d254ef651f6e86119b762f058b47538"),
    ]
