"""The protocol itself as a channel from resource states to Choi matrices.

The map taking Tr_{B2..Bn}[resource] to the simulated channel's Choi matrix
has an explicit Kraus family: a kernel-sector block and one operator per
(total spin, projection, multiplet) stratum of the measurement.  Its
operators are the measurement rows the closed-form Choi assembly sums over,
so the dense oracle is the independent check.  Both apply as one real
(2^n, 4, 2^n) transfer matrix, laid out in the index order of the resource's
operator on (A, B_1): the Gram of the operators' rows here, (n/2) pi_1 from
a dense eigh in the oracle.
"""

import numpy as np

from pbtsim import (Alternate, apply_protocol, build_povm, choi_from_reduced,
                    make_family, oracle_choi, protocol_gram, protocol_kraus,
                    reduced_port_state)
from pbtsim.cli import format_deviation

n = 3
pk = protocol_kraus(n)
print(f"n={n}: {len(pk.k2)} kernel-sector operators + {len(pk.k1)} bulk operators,")
print(f"each 4 x {2 ** (n + 1)}; the family with explicit receiver qubits has")
print(f"{2 ** (n - 1)} copies of each.")

family = Alternate(0.8)
rho_red = reduced_port_state(family, n)
via_kraus = apply_protocol(pk, rho_red)
reduced = make_family(family, n)
print("\nprotocol Kraus vs Choi assembly:",
      format_deviation(np.abs(via_kraus - choi_from_reduced(reduced)).max()))
print("protocol Kraus vs dense oracle: ", format_deviation(np.abs(via_kraus - oracle_choi(reduced)).max()))
print("output trace defect:", format_deviation(abs(np.trace(via_kraus) - 1)))

# sum_k K_k^dag K_k is not the identity: trace preservation is guaranteed
# only on port-symmetric inputs
gram = protocol_gram(pk)
print(f"\nGram operator sum_k K^dag K: trace {np.trace(gram).real:.12f}"
      f"  vs identity defect {np.abs(gram - np.eye(2 ** (n + 1))).max():.12f}")

# the whole map, not only its value on one resource
print("transfer matrix vs dense (n/2) pi_1:",
      format_deviation(np.abs(pk.transfer - build_povm(n).transfer).max()))
