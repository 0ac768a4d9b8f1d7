"""causalkit: process matrices, causal-order tests, and retrieval games.

The package builds and validates bipartite process matrices over labeled
tensor wires, evaluates two classically scored games on them (mutual input
guessing and coded-state retrieval), translates strategies between the games
in both directions with certified value preservation, and enumerates the
classical tripartite counterparts with exact rationals.
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
    partial_transpose,
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
    choi_of_unitary,
    coarse_grain,
    conjugate_instrument,
    extend_instrument_with_measurement,
    identity_channel_instrument,
    measure_prepare_instrument,
    stack_instruments,
    validate_instrument,
)
from .games import (
    CAUSAL_GYNI_BOUND,
    CONSTANT_GUESS_VALUE,
    CYRIL_GYNI_VALUE,
    LOCC_RETRIEVAL_BOUND,
    BellCode,
    GameStrategy,
    PartyArm,
    bell_state,
    bell_vector,
    behaviour,
    constant_output_gyni_strategy,
    cyril_gyni_strategy,
    dr_terms,
    eval_dr,
    eval_gyni,
    gyni_terms,
    pauli_y_baseline_strategy,
    relay_gyni_strategy,
)
from .duality import (
    QUBIT_READOUT_UNITARY,
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
    two_copy_locc_decode,
)

__version__ = "0.1.0"
