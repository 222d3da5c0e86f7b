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


def test_og_ladder_script_reproduces_its_hashes():
    # O(S3) and O(S4) from their regular comodules over q and fp:7: the
    # digests of h and of the coend's comultiplication, kept fixed so that a
    # change to the descent or to the hom solve shows here (the entries are
    # all integral, so both fields agree)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "og_ladder.py"), "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rungs = re.findall(r"over (\S+): (\w+), carrier_dim (\d+), [0-9.]+ s, maxrss \d+ kB, "
                       r"sha256 ([0-9a-f]{64})", proc.stdout)
    s3 = "d047ef6f44ab9089909c41389188862b096c2b47b44d28e4502cc0af9db2634e"
    s4 = "2e5c36b2d01b57477100d7bcf142fc9e0918f41a5c47205aa7fee5729ef32003"
    assert rungs == [("q", "Isomorphism", "6", s3), ("fp:7", "Isomorphism", "6", s3),
                     ("q", "Isomorphism", "24", s4), ("fp:7", "Isomorphism", "24", s4)]


def test_hopf_ladder_script_reproduces_its_hashes():
    # the stdout digests of hopf on Z/8 and Z/16 over q and fp:7, kept fixed
    # so that a change to the induced Hopf algebra or its checks shows here
    # (the coboundary scalars differ, but K[Z/n] is the same over both)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "hopf_ladder.py"), "16"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rungs = re.findall(r"Z/(\d+) over (\S+): exit (\d+), carrier_dim (\d+), [0-9.]+ s, "
                       r"stdout sha256 ([0-9a-f]{64})", proc.stdout)
    z8 = "bf5ec7823ad14fe068c9f0f2a7a76932d370620e5c15c8ef4273487cb88658f1"
    z16 = "1f9b8e2559ad445a4ae1b7cb4fcea517e38f89f16bad57571dc65e9410a004f8"
    assert rungs == [("8", "q", "0", "8", z8), ("8", "fp:7", "0", "8", z8),
                     ("16", "q", "0", "16", z16), ("16", "fp:7", "0", "16", z16)]


def test_reconstruction_sweep_script_prints_its_verdicts():
    # K[Z/2] and K[Z/3] over Q and F_5 with and without the top seed, and
    # comatrix(1) and comatrix(2) with the regular probe; timings stripped
    proc = subprocess.run([sys.executable, str(SCRIPTS / "reconstruction_sweep.py"), "3", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [re.sub(r", [0-9.]+ ms\)", ")", line) for line in proc.stdout.splitlines()]
    group = []
    for field in ["Q   ", "F_5 "]:
        for n in [2, 3]:
            group += [f"K[Z/{n}] over {field} -> Isomorphism   (coend dim {n})",
                      "   without the top seed -> NotGenerated"]
    assert lines == [
        "== cyclic group coalgebras ==", *group,
        "== comatrix coalgebras ==",
        "comatrix(1x1)     -> Isomorphism   (coend dim 1)",
        "   equivalence with regular probe -> ok=True",
        "comatrix(2x2)     -> Isomorphism   (coend dim 4)",
        "   equivalence with regular probe -> ok=True",
    ]


def test_comatrix_ladder_script_reproduces_its_hashes():
    # comatrix(4) from one seeded monomial comodule over q and fp:7: the
    # digests of h and of the coend's comultiplication, kept fixed so that a
    # change to the hom solve, the descent or the rank shows here (the
    # seeded scalars differ between the fields, and so does h)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "comatrix_ladder.py"), "4"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rungs = re.findall(r"comatrix\((\d+)\) over (\S+): (\w+), carrier_dim (\d+), [0-9.]+ ms, "
                       r"maxrss \d+ kB, sha256 ([0-9a-f]{64})", proc.stdout)
    assert rungs == [
        ("4", "q", "Isomorphism", "16",
         "4ab23a10678561992ce552ac3b2b345135d142c3e303992c8cd79062db6b58cf"),
        ("4", "fp:7", "Isomorphism", "16",
         "f4d93913b684be0b5389a7916e9415b64323a1cfdd2868eb412f823db083fe1d"),
    ]
