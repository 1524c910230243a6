"""Compiled engine: equivalence against the dense oracle (and qtensor).

The compiled program must be *indistinguishable* from the statevector
engine — energies and parameter-shift gradients pinned to 1e-10 across the
full mixer token alphabet, random depths, both ``initial_hadamard``
settings, and batched vs. single evaluation — because the search treats
the two engines as interchangeable via one config flag.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_REGISTRY
from repro.circuits.parameters import Parameter
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.qaoa.ansatz import QAOAAnsatz, build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.mixers import MIXER_TOKENS
from repro.simulators.compiled import CompiledProgram, compile_ansatz, compile_circuit
from repro.simulators.statevector import plus_state, simulate, zero_state
from repro.workloads import get_workload

ATOL = 1e-10


@pytest.fixture(scope="module")
def er6():
    return erdos_renyi_graph(6, 0.5, seed=21, require_connected=True)


def _engines(ansatz):
    return (
        AnsatzEnergy(ansatz, engine="compiled"),
        AnsatzEnergy(ansatz, engine="statevector"),
    )


# -- diag_phase is the compiled engine's ground truth ------------------------


def test_every_diagonal_spec_publishes_its_phase_generator():
    rng = np.random.default_rng(7)
    for name, spec in GATE_REGISTRY.items():
        if not spec.is_diagonal:
            assert spec.diag_phase is None
            continue
        params = list(rng.uniform(-3, 3, spec.num_params))
        expected = np.diag(spec.matrix_fn(params))
        actual = np.exp(1j * spec.diag_exponent(params))
        np.testing.assert_allclose(actual, expected, atol=1e-14, err_msg=name)


def test_diag_exponent_rejects_non_diagonal():
    with pytest.raises(ValueError, match="not diagonal"):
        GATE_REGISTRY["h"].diag_exponent()


# -- property-style equivalence over the token alphabet ----------------------


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=4),
    p=st.integers(1, 3),
    initial_hadamard=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_energy_matches_statevector(tokens, p, initial_hadamard, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(
        graph, p, tuple(tokens), initial_hadamard=initial_hadamard
    )
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert compiled.value(x) == pytest.approx(oracle.value(x), abs=ATOL)


@settings(max_examples=20, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=3),
    p=st.integers(1, 2),
    initial_hadamard=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_gradient_matches_statevector(tokens, p, initial_hadamard, seed):
    graph = cycle_graph(4)
    ansatz = build_qaoa_ansatz(
        graph, p, tuple(tokens), initial_hadamard=initial_hadamard
    )
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.num_parameters)
    np.testing.assert_allclose(
        compiled.gradient(x), oracle.gradient(x), atol=ATOL
    )


@settings(max_examples=15, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_matches_single(tokens, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(graph, 2, tuple(tokens))
    program = compile_ansatz(ansatz)
    X = np.random.default_rng(seed).uniform(-np.pi, np.pi, (6, ansatz.num_parameters))
    batched = program.energies(X)
    single = np.array([program.energy(row) for row in X])
    np.testing.assert_allclose(batched, single, atol=1e-12)


def test_qtensor_agrees_where_supported(er6):
    """Third engine cross-check on the paper's winning mixer."""
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    compiled = AnsatzEnergy(ansatz, engine="compiled")
    qtensor = AnsatzEnergy(ansatz, engine="qtensor")
    x = [0.3, -0.2, 0.5, 0.1]
    assert compiled.value(x) == pytest.approx(qtensor.value(x), abs=1e-9)


# -- paper-workload pinning --------------------------------------------------


@pytest.mark.parametrize("tokens", [("rx",), ("rx", "ry"), ("ry", "p"), ("h", "rz")])
@pytest.mark.parametrize("initial_hadamard", [True, False])
def test_paper_scale_energy_and_gradient(tokens, initial_hadamard):
    graph = erdos_renyi_graph(10, 0.5, seed=3, require_connected=True)
    ansatz = build_qaoa_ansatz(graph, 4, tokens, initial_hadamard=initial_hadamard)
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(11).uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert compiled.value(x) == pytest.approx(oracle.value(x), abs=ATOL)
    np.testing.assert_allclose(compiled.gradient(x), oracle.gradient(x), atol=ATOL)


@pytest.mark.parametrize("workload", ["maxcut", "wmaxcut", "maxsat", "ising"])
def test_gradient_matches_statevector_per_workload(workload):
    """Batched compiled gradients of every registered workload's objective
    against the dense engine's per-row parameter shift, with entangler
    tokens in the mixer."""
    graph = get_workload(workload).dataset(1, num_nodes=5, dataset_seed=17)[0]
    mixers = {1: ("rx", "cx_ring"), 2: ("cz_ring", "ry", "p"), 3: ("ry", "cx_ring", "rx")}
    rng = np.random.default_rng(23)
    for p, tokens in mixers.items():
        ansatz = build_qaoa_ansatz(graph, p, tokens, workload=workload)
        compiled, oracle = _engines(ansatz)
        X = rng.uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
        np.testing.assert_allclose(
            compiled.gradients(X), oracle.gradients(X), atol=ATOL, err_msg=f"p={p}"
        )


def test_final_state_matches_dense_simulation(er6):
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(5).uniform(-1, 1, ansatz.num_parameters)
    np.testing.assert_allclose(
        compiled.final_state(x), oracle.final_state(x), atol=ATOL
    )


# -- program structure -------------------------------------------------------


def test_cost_layer_fuses_to_one_op(er6):
    """Each cost layer (m rzz gates) plus adjacent diagonal mixer columns
    must collapse into a single fused diagonal block."""
    ansatz = build_qaoa_ansatz(er6, 3, ("rx",))
    program = compile_ansatz(ansatz)
    # H column folds into |+>, then per layer: one diag block + one fused
    # rx column (shared angle -> one op covering all qubits).
    assert program.initial_state_label == "+"
    assert program.num_ops == 2 * 3
    assert program.source_gates == 6 + 3 * (er6.num_edges + 6)


def test_shift_site_count_matches_parameterized_occurrences(er6):
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    program = compile_ansatz(ansatz)
    expected = 2 * (er6.num_edges + 2 * 6)  # p * (rzz edges + 2 tokens x 6 qubits)
    assert program.num_shift_sites == expected


def test_gradient_evaluation_accounting(er6):
    """The compiled engine reports the same 2-evals-per-occurrence cost
    model as the dense engine."""
    ansatz = build_qaoa_ansatz(er6, 1, ("rx",))
    compiled, oracle = _engines(ansatz)
    compiled.gradient([0.2, 0.3])
    oracle.gradient([0.2, 0.3])
    assert compiled.num_evaluations == oracle.num_evaluations


# -- generic circuits via compile_circuit ------------------------------------


def test_compile_circuit_state_without_graph():
    theta = Parameter("theta")
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).rz(theta * 2.0, 1).rxx(theta, 0, 2).u3(0.3, 0.2, 0.1, 2)
    program = compile_circuit(qc, [theta])
    dense = simulate(qc, zero_state(3), {theta: 0.7})
    np.testing.assert_allclose(program.state([0.7]), dense, atol=ATOL)
    with pytest.raises(ValueError, match="without a graph"):
        program.energy([0.7])


def test_compile_circuit_plus_initial_state():
    theta = Parameter("t")
    qc = QuantumCircuit(2)
    qc.rzz(theta, 0, 1).ry(0.4, 0)
    program = compile_circuit(qc, [theta], initial_state="+")
    dense = simulate(qc, plus_state(2), {theta: -1.2})
    np.testing.assert_allclose(program.state([-1.2]), dense, atol=ATOL)


@pytest.mark.parametrize("initial_state", ["0", "+"])
def test_generic_circuit_gradient_matches_dense_shift_rule(initial_state):
    """The reverse sweep's non-full-column branches: partial parameterized
    columns (shared and per-qubit chains), parameterized multi-qubit gates
    (``rxx`` as a matrix column, ``cp``/``rzz`` in diagonal blocks) and a
    static ``cx``, against the dense parameter-shift gradient."""
    a, b, c, d = (Parameter(name) for name in "abcd")
    qc = QuantumCircuit(4)
    qc.h(0).h(2).rx(a, 0).ry(b * 2.0, 1).rxx(c, 1, 2).cx(0, 3)
    qc.cp(d, 2, 3).rzz(a * -0.5 + 0.3, 0, 3).rx(b, 0).rx(b, 2)
    qc.h(1).ry(c, 1).ry(d, 3).rx(d * 1.5, 3).rxx(a + d, 0, 3)
    graph = cycle_graph(4)
    program = compile_circuit(qc, [a, b, c, d], initial_state=initial_state, graph=graph)
    assert program.initial_state_label == initial_state
    dense = AnsatzEnergy(
        QAOAAnsatz(
            circuit=qc,
            gammas=(a, b),
            betas=(c, d),
            graph=graph,
            mixer_tokens=(),
            initial_hadamard=initial_state == "0",
        ),
        engine="statevector",
    )
    X = np.random.default_rng(29).uniform(-np.pi, np.pi, (3, 4))
    np.testing.assert_allclose(program.gradients(X), dense.gradients(X), atol=ATOL)


def test_unknown_parameter_rejected():
    theta, phi = Parameter("theta"), Parameter("phi")
    qc = QuantumCircuit(1)
    qc.rx(phi, 0)
    with pytest.raises(ValueError, match="phi"):
        compile_circuit(qc, [theta])


def test_u3_energy_works_but_gradient_raises(er6):
    """Non-shiftable parameterized gates evaluate fine and fail the
    gradient exactly like the dense engine does."""
    theta = Parameter("theta")
    qc = QuantumCircuit(2)
    qc.u3(theta, 0.1, 0.2, 0).rzz(theta * -1.0, 0, 1)
    from repro.graphs.generators import path_graph

    program = compile_circuit(qc, [theta], graph=path_graph(2))
    assert isinstance(program, CompiledProgram)
    assert np.isfinite(program.energy([0.5]))
    with pytest.raises(NotImplementedError, match="u3"):
        program.gradient([0.5])


def test_partial_hadamard_prefix_not_folded():
    """An incomplete H column must stay in the program, not fold to |+>."""
    qc = QuantumCircuit(2)
    qc.h(0).rz(0.3, 0).h(1)
    program = compile_circuit(qc, [])
    assert program.initial_state_label == "0"
    np.testing.assert_allclose(program.state([]), simulate(qc), atol=ATOL)


def test_wrong_parameter_count_rejected(er6):
    program = compile_ansatz(build_qaoa_ansatz(er6, 2))
    with pytest.raises(ValueError, match="expected 4 parameters"):
        program.energy([0.1, 0.2])
