"""From an arbitrary symmetric resource state to a channel.

Builds a resource from a named family and from a file, runs the reduction ->
spin-coefficient -> Choi pipeline, compares with the basis-free closed form,
and extracts the channel's Kraus operators.
"""

import tempfile
from pathlib import Path

import numpy as np

from pbtsim import (AdChoi, apply_kraus, choi_from_reduced, choi_to_kraus,
                    load_resource, make_family, pbt_ad_choi, save_resource)
from pbtsim.cli import format_deviation

reduced = make_family(AdChoi(0.3), 2)
c = choi_from_reduced(reduced)
print("Choi matrix of the channel simulated by two damping-Choi ports (p1 = 0.3):")
print(np.round(c.real, 6))

print("\ndeviation from the basis-free closed form:",
      format_deviation(np.abs(c - pbt_ad_choi(2, 0.3)).max()))

ks = choi_to_kraus(c)
print(f"\n{len(ks.ops)} Kraus operators; completeness defect:",
      format_deviation(np.abs(sum(k.conj().T @ k for k in ks.ops) - np.eye(2)).max()))

rho_in = np.array([[0.75, 0.1j], [-0.1j, 0.25]], dtype=complex)
print("\nAction on a test state:")
print(np.round(apply_kraus(ks, rho_in), 6))

# resources can round-trip through the PBTRES text format, which stores the
# operator on (A, B_1) as its four conditional blocks r11, r12, r21, r22
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "resource.pbtres"
    save_resource(path, reduced)
    again = load_resource(path)
    print("\nfile round trip max deviation:",
          format_deviation(np.abs(again.joint - reduced.joint).max()))
