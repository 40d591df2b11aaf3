"""Maximally entangled ports enact a depolarising channel.

Walks from the coupled spin basis to the closed-form output Choi matrix and
cross-checks everything against the dense measurement oracle.
"""

import numpy as np

from pbtsim import (Bell, build_spin_basis, choi_from_reduced,
                    depolarizing_choi, make_family, oracle_choi, xi)
from pbtsim.cli import format_deviation

print("Depolarising probability of the n-port protocol with Bell ports:")
for n in range(2, 11):
    print(f"  n={n:2d}: xi = {xi(n):.12f}")

print("\nThe two-port value is (6 - sqrt(3))/6 =", (6 - np.sqrt(3)) / 6)

n = 4
basis = build_spin_basis(n)
print(f"\nCoupled basis of {n} qubits: {len(basis)} vectors, "
      f"unitarity defect {format_deviation(np.abs(basis.u.conj().T @ basis.u - np.eye(2 ** n)).max())}")
first = build_spin_basis(n, first_only=True)
print(f"The channel reads only the first multiplet of each (j, kind): "
      f"{first.u.shape[1]} of those columns")

reduced = make_family(Bell(), n)
closed = choi_from_reduced(reduced)
dense = oracle_choi(reduced)
model = depolarizing_choi(xi(n))

print(f"\nOutput Choi matrix for n={n} Bell ports (closed form):")
print(np.round(closed.real, 6))
print("closed form vs dense oracle:   ", format_deviation(np.abs(closed - dense).max()))
print("closed form vs depolarising fit:", format_deviation(np.abs(closed - model).max()))
