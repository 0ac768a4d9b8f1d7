"""causalkit: process matrices, causal-order tests, and retrieval games.

The package builds process matrices over labeled tensor wires and checks
their validity and causal order for any number of parties, evaluates two
classically scored two-party games on them (mutual input guessing and
coded-state retrieval), translates strategies between the games in both
directions with certified value preservation, and enumerates the classical
tripartite counterparts with exact rationals.
"""

from .tensor import (
    DEFAULT_TOL,
    KronSum,
    LabeledOperator,
    OperatorStack,
    WireLabel,
    batched_trace,
    conjugate_wires,
    dump_operator,
    identity_operator,
    kron,
    load_operator,
    min_eigenvalue,
    partial_trace,
    permute_wires,
    stack_operators,
)
from .processes import (
    OrderReport,
    PartySlot,
    ProcessMatrix,
    ValidityReport,
    build_cyril,
    channel_process,
    check_order,
    dump_process,
    extend_with_state,
    is_ppt_cut,
    load_process,
    maximally_mixed_process,
    shared_state_process,
    validate_process,
    verify_cyril_separable_decomposition,
)
from .instruments import (
    Instrument,
    InstrumentReport,
    PartyArm,
    choi_of_unitary,
    conjugate_instrument,
    extend_instrument_with_measurement,
    identity_channel_instrument,
    measure_prepare_instrument,
    validate_instrument,
)
from .games import (
    CYRIL_GYNI_VALUE,
    BellCode,
    GameStrategy,
    bell_state,
    bell_vector,
    behaviour,
    constant_output_gyni_strategy,
    cyril_gyni_strategy,
    game_terms,
    game_value,
    pauli_y_baseline_strategy,
    relay_gyni_strategy,
)
from .duality import (
    DualityCertificate,
    check_duality,
    controlled_shift,
    dr_to_gyni,
    fourier,
    gyni_to_dr,
    party_readout_unitaries,
    pauli_xd,
    pauli_zd,
    readout_correlation_residual,
)
from .classical import (
    ClassicalProcess3,
    e_bw,
    ebw_process,
    ftdr_accounting,
    is_logically_consistent,
    score_round,
    shared_process_accounting,
    tdr_accounting_ebw,
    tdr_relay_accounting,
    tdr_success_no_collab,
)

__version__ = "0.1.0"
