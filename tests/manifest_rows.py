"""The reproduction manifest's fixed columns, pinned.

``MANIFEST_ROWS`` lists every row of ``causalkit manifest`` in its order as
(claim_id, command, expected text at ``DEFAULT_TOL``, tolerance). A row's
tolerance is its fixed one, or ``DEFAULT_TOL`` where it takes the run's.
``EXACT_COMPUTED`` pins the computed text of the rows whose text involves no
float: the classical rows and cyril's order verdicts.
"""

from __future__ import annotations

MANIFEST_ROWS = [
    ("gyni-cyril-value", "causalkit gyni --process cyril",
     "5/16*(1+1/sqrt(2)) = 0.53347086912079611", 1e-09),
    ("process-cyril-valid", "causalkit validate --process cyril",
     "all residuals <= 1e-09", 1e-09),
    ("process-cyril-unordered", "causalkit manifest",
     "incompatible with A<B, B<A, and no-signaling", 1e-09),
    ("process-cyril-ppt", "causalkit ppt --process cyril --cut B",
     "PPT across the party cut (min eig >= -1e-09)", 1e-09),
    ("process-cyril-separable", "causalkit manifest",
     "eight-product-term rebuild residual <= 1e-12", 1e-12),
    ("gyni-relay-value", "causalkit gyni --process relay",
     "0.5", 1e-09),
    ("gyni-constant-value", "causalkit gyni --process constant",
     "0.25", 1e-09),
    ("drb-pauli-y-value", "causalkit drb --strategy pauli-y",
     "0.5", 1e-09),
    ("drb-cyril-dual-value", "causalkit drb --strategy cyril-dual",
     "5/16*(1+1/sqrt(2)) = 0.53347086912079611", 1e-09),
    ("duality-gyni2dr-cyril", "causalkit duality --direction gyni2dr --process cyril",
     "deviation <= 1e-09", 1e-09),
    ("duality-dr2gyni-pauli-y", "causalkit duality --direction dr2gyni --process pauli-y",
     "deviation <= 1e-09", 1e-09),
    ("duality-random-d2", "causalkit duality --direction gyni2dr --seed 20260817 --dim 2",
     "max deviation <= 1e-09 over 6 seeded round trips", 1e-09),
    ("duality-random-d3", "causalkit duality --direction gyni2dr --seed 20260818 --dim 3",
     "max deviation <= 1e-09 over 4 seeded round trips", 1e-09),
    ("readout-correlation", "causalkit manifest",
     "off-rule probability mass <= 1e-09 at d=2 and d=3", 1e-09),
    ("process-shared-bell-npt", "causalkit ppt --process shared-bell --cut B",
     "valid no-signaling process with min transposed eig -0.5", 1e-09),
    ("classical-tdr-ebw", "causalkit classical tdr --strategy ebw --exact",
     "27/32", 0.0),
    ("classical-tdr-branches", "causalkit classical tdr --strategy ebw --exact",
     "majority-0 weight 27/32 with conditional success 1; majority-1 success 0", 0.0),
    ("classical-ebw-consistent", "causalkit classical tdr --strategy ebw --exact",
     "each of the 64 local-function choices has exactly one fixed point", 0.0),
    ("classical-tdr-no-collab", "causalkit classical tdr --strategy none --exact",
     "27/64", 0.0),
    ("classical-tdr-relay", "causalkit classical tdr --strategy definite --exact",
     "3/4 (players: 3/4, 1, 1)", 0.0),
    ("classical-ftdr-ebw", "causalkit classical ftdr --strategy ebw --exact",
     "27/32 with both rounds 27/32", 0.0),
    ("classical-ftdr-definite", "causalkit classical ftdr --strategy definite --exact",
     "21/32 with rounds 3/4 and 9/16", 0.0),
    ("mutation-resend-same-detected", "causalkit manifest",
     "re-preparing the measured bit unchanged shifts the value by > 0.05", 0.05),
    ("codes-hide-marginals", "causalkit manifest",
     "single-wire marginals of all four qubit codes equal I/2 within 1e-12", 1e-12),
]

EXACT_COMPUTED = {
    "process-cyril-unordered": "A<B: False, B<A: False, no-signaling: False",
    "classical-tdr-ebw": "27/32 (per input 27/32..27/32)",
    "classical-tdr-branches": "weights 27/32, 5/32; success 1, 0",
    "classical-ebw-consistent": "logically consistent",
    "classical-tdr-no-collab": "27/64",
    "classical-tdr-relay": "3/4 (players 3/4, 1, 1)",
    "classical-ftdr-ebw": "27/32 (rounds 27/32, 27/32)",
    "classical-ftdr-definite": "21/32 (rounds 3/4, 9/16)",
}
