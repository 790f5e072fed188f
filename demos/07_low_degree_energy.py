"""Low-degree Fourier energy of the promise-constrained planted clique.

The low-degree likelihood-ratio norm is the square root of the Fourier
energy below: the sum over nonempty cross-part edge subsets alpha (|alpha|
<= D) of the squared coefficient (k/n)^{|V(alpha)|}, zero whenever V(alpha)
hits a part twice, with an extra (2p-1)^{|alpha|} for the dense-subgraph
signal.  Small energy at degree D is evidence that degree-D polynomial tests
fail.  Everything here is brute force at desk scale, cross-checked against
an oracle that averages the planted law explicitly over all clique
positions.
"""

from avgcase.verify import (EnergyQuery, low_degree_energy,
                            low_degree_energy_oracle,
                            low_degree_energy_counting_bound)

for n, k in ((6, 3), (8, 4), (8, 2)):
    print(f"n={n}, k={k} (parts of size {n // k}):")
    for D in (1, 2, 3):
        q = EnergyQuery(n=n, k=k, D=D)
        e = low_degree_energy(q)
        o = low_degree_energy_oracle(q)
        b = low_degree_energy_counting_bound(q)
        print(f"  D={D}: energy {e:.6f}  oracle {o:.6f}  equal: {e == o}  "
          f"counting bound {b:.3g}")

print("\ndense-subgraph signal decays with (2p-1)^|alpha|:")
for p in (1.0, 0.9, 0.75, 0.6, 0.5):
    q = EnergyQuery(n=8, k=4, D=3, signal="pds", p=p)
    print(f"  p={p:4.2f}: energy {low_degree_energy(q):.6f}")
print("(at p = 1/2 the signal vanishes identically)")
