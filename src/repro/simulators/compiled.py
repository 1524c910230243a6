"""Compiled statevector evaluation: the optimizer's inner loop as pure NumPy.

The dense engine in :mod:`repro.simulators.statevector` is exact but pays
Python-object overhead on *every* energy call: the ansatz is re-bound into
a fresh :class:`~repro.circuits.circuit.QuantumCircuit`, every gate matrix
is re-materialized, and every ``apply_gate`` re-derives its contraction
metadata. None of that depends on the parameter values — only the angles
change between the ~200 COBYLA steps the Evaluator spends per candidate.

:func:`compile_circuit` runs once per candidate and lowers the symbolic
circuit into a :class:`CompiledProgram`, a flat list of three op kinds:

* **Fused diagonal blocks** — a maximal run of diagonal gates (the entire
  cost layer ``e^{-i gamma C}``, plus any adjacent ``rz``/``p``/``cz``
  mixer columns) collapses into per-parameter *generator vectors* built
  from each gate's :attr:`~repro.circuits.gates.GateSpec.diag_phase`
  (Lykov & Alexeev 2021's diagonal-gate observation, taken to its dense
  conclusion). Applying the block is one ``state *= exp(1j * (g0 + sum_j
  x_j * G_j))`` elementwise op, independent of how many gates it fuses.
* **Matrix columns** — a run of non-diagonal single-qubit gates is grouped
  per qubit (gates on distinct qubits commute) and chained into one 2x2
  product per qubit; qubits whose chain is structurally identical (the
  weight-shared mixer columns) share a single op whose matrix is built
  once per call and applied with a strided in-place kernel.
* **Static gates** — anything parameter-free has its matrix materialized
  at compile time; a complete leading Hadamard column is folded into the
  ``|+>^n`` initial state outright.

``CompiledProgram.energies(X)`` therefore runs a whole batch of optimizer
points with zero circuit rebuilds, zero dict bindings, and zero matrix
re-materialization, through one state-evolution routine with a leading
batch axis; ``energy(x)`` and ``state(x)`` are batches of one through it.
``gradients(X)`` is the exact adjoint (reverse-mode) gradient of Jones &
Gacon (arXiv:2009.02823): one forward run to the final state, then one
reverse sweep that un-applies every op to both the state and the
cost-weighted adjoint state and reads each op's parameter derivatives off
their overlap — about three energy evaluations per gradient, however many
gate occurrences share the parameters.

The array library itself is a knob: every array the program allocates is
born under an :class:`~repro.simulators.backends.ArrayBackend` (NumPy by
default — behavior and speed identical to the pre-backend engine — or a
CuPy/mock-GPU device backend), program constants are uploaded to the
device once and memoized, and results cross back to the host only through
``to_host`` at the public entry points. See
:mod:`repro.simulators.backends` for the seam and the registered
backends.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter, ParameterExpression
from repro.graphs.generators import Graph
from repro.simulators.backends import ArrayBackend, get_array_backend
from repro.simulators.expectation import bit_table, cut_values
from repro.simulators.statevector import plus_state, zero_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (qaoa imports us)
    from repro.qaoa.ansatz import QAOAAnsatz

__all__ = [
    "SHIFT_RULE_GATES",
    "CompiledProgram",
    "compile_ansatz",
    "compile_circuit",
]

#: gates whose expectation is single-frequency in the angle, so the exact
#: two-term shift rule applies (shared with repro.qaoa.energy)
SHIFT_RULE_GATES = frozenset({"rx", "ry", "rz", "p", "rzz", "rxx", "cp"})

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

#: ``K`` with ``dU/da = K U`` for the non-diagonal shift-rule gates, each a
#: half-angle rotation ``exp(-1j * a * G / 2)`` about a Pauli word ``G``
#: (the diagonal ones fuse into phase blocks with generator ``1j * gens``)
_GENERATORS = {
    "rx": -0.5j * _PAULI_X,
    "ry": -0.5j * np.array([[0, -1j], [1j, 0]]),
    "rxx": -0.5j * np.kron(_PAULI_X, _PAULI_X),
}

#: linear angle expression lowered to flat-parameter indices:
#: ``(((j, coeff), ...), offset)``
_Expr = tuple[tuple[tuple[int, float], ...], float]


def _lower_expr(value, index: dict[Parameter, int]) -> _Expr:
    """Lower a gate angle (number or linear expression) to index space."""
    if isinstance(value, ParameterExpression):
        try:
            terms = tuple(
                (index[param], coeff) for param, coeff in value.terms.items()
            )
        except KeyError:
            unknown = sorted(
                p.name for p in value.parameters if p not in index
            )
            raise ValueError(
                f"circuit uses parameters {unknown} missing from the "
                "compile-time parameter ordering"
            ) from None
        return terms, value.offset
    return (), float(value)


def _expand_diag(small: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Lift a ``2^m`` per-gate vector to the full ``2^n`` basis."""
    bits = bit_table(num_qubits)
    local = np.zeros(2**num_qubits, dtype=np.int64)
    for j, q in enumerate(qubits):
        local += bits[:, q].astype(np.int64) << j
    return np.asarray(small)[local]


# -- compiled op kinds ----------------------------------------------------


@dataclass
class _DiagBlock:
    """A maximal run of diagonal gates fused into phase-exponent vectors."""

    #: parameter-independent part of the exponent (None when zero)
    gen_const: np.ndarray | None
    #: flat indices of the parameters this block depends on
    param_indices: np.ndarray
    #: ``(k, 2^n)`` generator vectors, one row per parameter above
    gens: np.ndarray
    #: ``exp(1j * gen_const)`` precomputed when the block is parameter-free
    static_phase: np.ndarray | None


@dataclass(frozen=True)
class _Factor:
    """One primitive gate inside a fused matrix chain."""

    name: str
    matrix_fn: object
    exprs: tuple[_Expr, ...]
    has_free: bool


@dataclass
class _MatrixColumn:
    """One factor chain applied to each of several disjoint qubit tuples.

    For the weight-shared mixer columns all qubits carry the identical
    chain, so the matrix is built once per call and applied n times.
    """

    targets: tuple[tuple[int, ...], ...]
    factors: tuple[_Factor, ...]
    #: precomputed product when no factor has free parameters
    static_matrix: np.ndarray | None
    #: the factors' angle expressions as one affine map: the angle rows of
    #: a ``(B, num_parameters)`` batch are ``X @ angle_map + angle_offset``
    angle_map: np.ndarray
    angle_offset: np.ndarray
    #: the ``angle_map`` columns of the factors with free parameters, in
    #: factor order: chains their angle derivatives to the flat parameters
    free_map: np.ndarray
    #: one single-qubit target per qubit (the weight-shared mixer case),
    #: applied and differentiated with the grouped-kron kernels
    full_column: bool


@dataclass(frozen=True)
class _ShiftSite:
    """One parameterized gate occurrence (gradient accounting and the
    shift-rule check)."""

    gate_name: str
    shiftable: bool


# -- kernels ---------------------------------------------------------------


def _apply_1q(
    state: np.ndarray, matrix: np.ndarray, qubit: int, backend: ArrayBackend
) -> np.ndarray:
    """Strided in-place 2x2 apply on a flat (or flattened-batch) state.

    ``state`` may be ``(2^n,)`` or a ``(2^n, B)`` batch — either way bit
    ``qubit`` of the basis index has stride ``2^qubit * B``, so one
    reshape exposes it as the middle axis. Mutates (and returns) ``state``,
    copying first only if it is not C-contiguous — a reshape of a
    non-contiguous array would silently write into a throwaway copy.
    ``state`` and ``matrix`` must live under ``backend``.
    """
    if not state.flags.c_contiguous:
        state = backend.xp.ascontiguousarray(state)
    inner = (1 << qubit) * (state.size // state.shape[0])
    view = state.reshape(-1, 2, inner)
    a = view[:, 0, :]
    b = view[:, 1, :]
    new_a = matrix[0, 0] * a + matrix[0, 1] * b
    view[:, 1, :] = matrix[1, 0] * a + matrix[1, 1] * b
    view[:, 0, :] = new_a
    return state


def _contract(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: ArrayBackend,
) -> np.ndarray:
    """Lean apply_gate: same contraction, validation and reshape math done
    at compile time. Supports trailing batch axes."""
    m = len(qubits)
    batch_shape = state.shape[1:]
    tensor = state.reshape((2,) * num_qubits + batch_shape)
    gate_tensor = matrix.reshape((2,) * (2 * m))
    axes = [num_qubits - 1 - qubits[j] for j in reversed(range(m))]
    moved = backend.tensordot(
        gate_tensor, tensor, axes=(list(range(m, 2 * m)), axes)
    )
    result = backend.moveaxis(moved, list(range(m)), axes)
    return result.reshape(state.shape)


def _batch_mat_rx(angles: np.ndarray) -> np.ndarray:
    half = angles / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty((angles.size, 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -1j * s
    out[:, 1, 0] = -1j * s
    out[:, 1, 1] = c
    return out


def _batch_mat_ry(angles: np.ndarray) -> np.ndarray:
    half = angles / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty((angles.size, 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c
    return out


#: vectorized (angle-vector -> (B, 2, 2)) builders for the hot mixer
#: rotations; factors of any other gate are built row by row
_BATCH_MATRIX_FNS = {"rx": _batch_mat_rx, "ry": _batch_mat_ry}


def _kron_pairs(hi, lo, backend: ArrayBackend):
    """Per-point ``kron(hi, lo)``: ``(B, d, d)`` x ``(B, e, e)`` stacks
    -> ``(B, d*e, d*e)``, computed under ``backend``."""
    dim = hi.shape[1] * lo.shape[1]
    return backend.einsum("bij,bkl->bikjl", hi, lo).reshape(hi.shape[0], dim, dim)


def _kron_power(memo: dict, size: int, backend: ArrayBackend):
    """``kron`` of ``size`` copies of the ``(B, 2, 2)`` stack ``memo[1]``
    (``size`` a power of two), memoized in ``memo`` by size."""
    stack = memo.get(size)
    if stack is None:
        half = _kron_power(memo, size // 2, backend)
        memo[size] = stack = _kron_pairs(half, half, backend)
    return stack


def _group_sizes(num_qubits: int) -> list[int]:
    """Qubit group sizes for :func:`_rotate_groups`: 4s, then a 2, then
    a 1, summing to ``num_qubits``."""
    sizes = [4] * (num_qubits // 4)
    remaining = num_qubits % 4
    if remaining >= 2:
        sizes.append(2)
    if remaining % 2:
        sizes.append(1)
    return sizes


@functools.lru_cache(maxsize=None)
def _pair_sum_map(size: int) -> np.ndarray:
    """``(4^g, 4)`` 0/1 map from a flattened ``g``-qubit cross overlap
    ``G[a, c]`` to ``sum_k S_k`` flattened, where ``S_k[i, j]`` sums the
    entries whose bit ``k`` is ``i`` in ``a`` and ``j`` in ``c`` and whose
    other bits agree (see :meth:`CompiledProgram._qubit_overlap_sum`)."""
    dim = 1 << size
    a, c = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    out = np.zeros((dim, dim, 2, 2))
    for k in range(size):
        agree = ((a ^ c) | (1 << k)) == 1 << k
        ak, ck = a[agree], c[agree]
        out[ak, ck, (ak >> k) & 1, (ck >> k) & 1] += 1
    out.flags.writeable = False  # shared by every program through the cache
    return out.reshape(dim * dim, 4)


def _rotate_groups(state, groups: Sequence) -> np.ndarray:
    """Apply one 2x2 per qubit to every qubit of a batch-major ``(B, 2^n)``
    state, ``groups`` holding the transposed kron'd ``(B or 1, 2^g, 2^g)``
    matrix of each :func:`_group_sizes` group, top qubits first.

    Each round exposes the next group of original qubits as the leading
    basis bits of every row; right-multiplying the ``(B, 2^{n-g}, 2^g)``
    view by the group matrix cycles the axis order left by g, so once the
    group sizes sum to n every qubit has been hit once and the layout is
    back where it started. Grouping (4s, then a 2, then a 1) cuts gemm
    dispatches and fattens their inner dimension — measurably faster than
    per-qubit or per-pair rounds.
    """
    batch = state.shape[0]
    for group_T in groups:
        dim = group_T.shape[-1]
        state = (
            state.reshape(batch, dim, -1).transpose(0, 2, 1) @ group_T
        ).reshape(batch, -1)
    return state


def _apply_1q_per_column(
    state: np.ndarray, matrices: np.ndarray, qubit: int, backend: ArrayBackend
) -> np.ndarray:
    """Apply a different 2x2 matrix to every batch column on one qubit.

    ``state`` is ``(2^n, B)``; ``matrices`` is ``(2, 2, B)``. In the
    C-contiguous layout the batch index is the fastest axis, so exposing
    bit ``qubit`` as its own axis leaves ``B`` trailing — the per-column
    matrix entries then broadcast straight across it, turning the apply
    into six ufunc sweeps instead of a per-qubit einsum contraction.
    Mutates (and returns) ``state``; copies first only if non-contiguous.
    """
    if not state.flags.c_contiguous:
        state = backend.xp.ascontiguousarray(state)
    batch = state.shape[1]
    view = state.reshape(-1, 2, 1 << qubit, batch)
    a = view[:, 0]
    b = view[:, 1]
    new_a = matrices[0, 0] * a + matrices[0, 1] * b
    view[:, 1] = matrices[1, 0] * a + matrices[1, 1] * b
    view[:, 0] = new_a
    return state


def _contract_per_column(
    state: np.ndarray,
    matrices: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: ArrayBackend,
) -> np.ndarray:
    """Apply a different ``2^m x 2^m`` matrix to every batch column.

    ``state`` is ``(2^n, B)``; ``matrices`` is ``(2^m, 2^m, B)``.
    """
    m = len(qubits)
    batch = state.shape[1]
    axes = [num_qubits - 1 - qubits[j] for j in reversed(range(m))]
    tensor = state.reshape((2,) * num_qubits + (batch,))
    moved = backend.moveaxis(tensor, axes, range(m))
    rest = moved.shape[m:]
    view = moved.reshape((2**m, -1, batch))
    out = backend.einsum("ijb,jrb->irb", matrices, view)
    out = out.reshape((2,) * m + rest)
    out = backend.moveaxis(out, range(m), axes)
    return out.reshape(state.shape)


# -- the program -----------------------------------------------------------


class CompiledProgram:
    """A lowered circuit: flat vectorized ops over a fixed parameter order.

    Produced by :func:`compile_circuit` / :func:`compile_ansatz`; see the
    module docstring for the op kinds. All evaluation entry points take
    flat parameter vectors in the compile-time ordering.
    """

    def __init__(
        self,
        num_qubits: int,
        num_parameters: int,
        ops: list[object],
        shift_sites: list[_ShiftSite],
        initial_state_label: str,
        graph: Graph | None,
        source_gates: int,
        backend: ArrayBackend | str | None = None,
        cost_values: np.ndarray | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.num_parameters = num_parameters
        self.ops = ops
        self.shift_sites = shift_sites
        self.initial_state_label = initial_state_label
        self.graph = graph
        #: gate count of the source circuit (fusion diagnostics)
        self.source_gates = source_gates
        #: the array backend every evaluation runs under (see
        #: :mod:`repro.simulators.backends`); program constants are
        #: uploaded to it lazily, once, via :meth:`_dev`
        self.backend = get_array_backend(backend if backend is not None else "numpy")
        self._device: dict[int, object] = {}
        # the objective diagonal `energy`/`energies` contract against: an
        # explicit workload table when given, else the graph's MaxCut cuts
        # (the seed behavior — the maxcut workload passes the identical
        # memoized cut_values array, so this path stays bit-for-bit)
        if cost_values is not None:
            self._cut = np.asarray(cost_values, dtype=float)
            if self._cut.shape != (2**num_qubits,):
                raise ValueError(
                    f"cost_values has shape {self._cut.shape}; expected "
                    f"({2**num_qubits},) for {num_qubits} qubits"
                )
        else:
            self._cut = None if graph is None else cut_values(graph)
        # Per-op unique-value decompositions of diagonal generators (phase
        # lookup tables, see _diag_lookup).
        self._diag_lookups: dict[int, tuple] = {}
        self._initial_host: np.ndarray | None = None
        # Transposed kron'd group matrices of full static columns (see
        # _rotate_groups), built on the device once per (op, direction).
        self._static_groups: dict[tuple[int, bool], list] = {}

    # -- introspection -----------------------------------------------------

    @property
    def num_ops(self) -> int:
        """Fused op count — compare against :attr:`source_gates`."""
        return len(self.ops)

    @property
    def num_shift_sites(self) -> int:
        """Parameterized gate occurrences: what the dense engine's shift
        rule pays 2 energy evaluations each for, and what
        :class:`~repro.qaoa.energy.AnsatzEnergy` charges a gradient."""
        return len(self.shift_sites)

    # -- device constants --------------------------------------------------

    def _dev(self, host: np.ndarray):
        """Device-resident view of a *persistent* host constant.

        Program constants (generator vectors, static phases, the cut
        table, the overlap maps) are built on the host at compile
        time and uploaded through ``backend.asarray`` the first time an
        evaluation touches them; the upload is memoized by object
        identity, so a device backend pays one transfer per constant per
        program lifetime. On the NumPy backend this is the identity.
        """
        key = id(host)
        dev = self._device.get(key)
        if dev is None:
            dev = self.backend.asarray(host)
            self._device[key] = dev
        return dev

    def _initial_state(self):
        """The device-resident initial state, uploaded once through
        :meth:`_dev` (read-only: :meth:`_states_batch` copies it into
        every batch row)."""
        if self._initial_host is None:
            if self.initial_state_label == "+":
                self._initial_host = plus_state(self.num_qubits)
            elif self.initial_state_label == "0":
                self._initial_host = zero_state(self.num_qubits)
            else:
                raise ValueError(
                    f"unknown initial state label {self.initial_state_label!r}"
                )
        return self._dev(self._initial_host)

    def _diag_lookup(self, op_index: int, op: _DiagBlock) -> tuple:
        """Unique-value decomposition of a diag block's phase exponent.

        The exponent column at basis state ``z`` is ``const[z] + sum_j x_j
        gens[j, z]``; a cost layer takes only ~num_edges distinct values
        over all 2^n basis states, so exponentials are computed per
        *unique* column and gathered — O(B*U) exps plus an O(B*2^n) take
        instead of O(B*2^n) exps. Returns ``(gens_u, const_u, inverse)``
        as device-resident arrays; ``inverse`` is None when the block is
        too dense to pay off. The decomposition itself runs on the host
        (it is a one-time compile-style pass), only the results live on
        the backend.
        """
        cached = self._diag_lookups.get(op_index)
        if cached is None:
            if op.gen_const is None:
                rows = op.gens
            else:
                rows = np.vstack([op.gen_const[None, :], op.gens])
            unique_cols, inverse = np.unique(rows, axis=1, return_inverse=True)
            asarray = self.backend.asarray
            if unique_cols.shape[1] * 4 > rows.shape[1]:
                cached = (None, None, None)  # dense block: exp directly
            elif op.gen_const is None:
                cached = (asarray(unique_cols), None, asarray(inverse.reshape(-1)))
            else:
                cached = (
                    asarray(unique_cols[1:]),
                    asarray(unique_cols[0]),
                    asarray(inverse.reshape(-1)),
                )
            self._diag_lookups[op_index] = cached
        return cached

    # -- evaluation: every entry point runs a batch -----------------------

    def _check_batch(self, X) -> np.ndarray:
        """``X`` as a float ``(B, num_parameters)`` batch, or ValueError."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters per row, "
                f"got shape {X.shape}"
            )
        return X

    def state(self, x: Sequence[float]) -> np.ndarray:
        """The final statevector at the flat parameter vector ``x``, as a
        host array (a batch of one through :meth:`states`)."""
        return self.states(np.reshape(x, (1, -1)))[:, 0]

    def energy(self, x: Sequence[float]) -> float:
        """``<C>`` of the attached graph at ``x`` (a batch of one through
        :meth:`energies`)."""
        return float(self.energies(np.reshape(x, (1, -1)))[0])

    def _cut_table(self) -> np.ndarray:
        if self._cut is None:
            raise ValueError(
                "program was compiled without a graph; only state() is available"
            )
        return self._cut

    def states(self, X: np.ndarray) -> np.ndarray:
        """Final statevectors of a ``(B, num_parameters)`` batch, as
        ``(2^n, B)`` host columns."""
        xp = self.backend.xp
        return self.backend.to_host(xp.ascontiguousarray(self._states_batch(X).T))

    def _states_batch(self, X: np.ndarray) -> np.ndarray:
        """Batch-major final statevectors: row ``b`` is the state at
        ``X[b]``. This is the program's only forward state-evolution
        routine — every entry point, the scalar ones as batches of one,
        runs through it, and the gradient's reverse sweep runs the same
        per-op kernels backwards. The batch axis leads so every per-point
        quantity (diag exponents, probabilities, cut energies) stays
        row-contiguous and the per-column matrix applies reduce to stacked
        gemms.

        ``X`` stays on the host (angle-expression evaluation is host
        bookkeeping) and is uploaded once as ``Xd``; the state and every
        per-basis-state quantity live on the array backend.
        """
        X = self._check_batch(X)
        xp = self.backend.xp
        Xd = self.backend.asarray(X)
        state = xp.empty((X.shape[0], 2**self.num_qubits), dtype=complex)
        state[:] = self._initial_state()
        for op_index, op in enumerate(self.ops):
            if isinstance(op, _DiagBlock):
                state = self._apply_diag(op_index, op, state, Xd)
            else:
                matrices, _ = self._column_matrices(op, X)
                state = self._apply_column(op_index, op, state, matrices)
        return state

    def _apply_diag(
        self, op_index: int, op: _DiagBlock, state, Xd, adjoint: bool = False
    ):
        """Multiply a batch-major state by one diagonal block's phases, or
        by their conjugates when ``adjoint``. ``state`` holds one or more
        stacked copies of the ``Xd`` batch (the gradient's ``[psi; lam]``
        pair); each copy's row ``b`` gets point ``b``'s phases."""
        backend = self.backend
        if op.static_phase is not None:
            phase = self._dev(op.static_phase)
            # broadcasts across rows
            return backend.multiply(
                state, phase.conj() if adjoint else phase, out=state
            )
        sign = -1j if adjoint else 1j
        gens_u, const_u, inverse = self._diag_lookup(op_index, op)
        if inverse is not None:
            # few distinct generator values: exponentiate unique columns
            # and gather
            exponent_u = Xd[:, self._dev(op.param_indices)] @ gens_u
            if const_u is not None:
                exponent_u += const_u
            phases = backend.take(backend.exp(sign * exponent_u), inverse, axis=1)
        else:
            exponent = Xd[:, self._dev(op.param_indices)] @ self._dev(op.gens)
            if op.gen_const is not None:
                exponent += self._dev(op.gen_const)
            phases = backend.exp(sign * exponent)
        blocks = state.reshape(-1, Xd.shape[0], state.shape[1])
        return backend.multiply(blocks, phases, out=blocks).reshape(state.shape)

    def _column_matrices(
        self, op: _MatrixColumn, X: np.ndarray, derivatives: bool = False
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per-point chain matrices ``M = F_m ... F_1`` of a parameterized
        column as a ``(B, dim, dim)`` host stack (None for a static
        column), plus — with ``derivatives`` — the ``(B, F, dim*dim)``
        stack of ``M^-1 dM/da_f = P_f^dagger K_f P_f`` for each free factor
        ``f`` in order, where ``P_f = F_f ... F_1`` and ``K_f`` is the
        factor's :data:`_GENERATORS` entry.
        """
        if op.static_matrix is not None:
            return None, None
        angle_rows = X @ op.angle_map + op.angle_offset
        batch = X.shape[0]
        dim = 2 ** len(op.targets[0])
        chain = None
        derivs = []
        cursor = 0
        for factor in op.factors:
            count = len(factor.exprs)
            angles = angle_rows[:, cursor:cursor + count]
            cursor += count
            if not count:
                stack = np.broadcast_to(factor.matrix_fn([]), (batch, dim, dim))
            elif count == 1 and factor.name in _BATCH_MATRIX_FNS:
                # the hot mixer rotations: the whole angle vector at once
                stack = _BATCH_MATRIX_FNS[factor.name](angles[:, 0])
            else:
                stack = np.stack([factor.matrix_fn(list(row)) for row in angles])
            chain = stack if chain is None else stack @ chain
            if derivatives and factor.has_free:
                chain_H = chain.conj().transpose(0, 2, 1)
                derivs.append(chain_H @ _GENERATORS[factor.name] @ chain)
        chain = np.ascontiguousarray(chain)
        if not derivatives:
            return chain, None
        return chain, np.stack(derivs, axis=1).reshape(batch, len(derivs), dim * dim)

    def _apply_column(
        self,
        op_index: int,
        op: _MatrixColumn,
        state,
        matrices: np.ndarray | None,
        adjoint: bool = False,
    ):
        """Apply one matrix column, or its inverse when ``adjoint``, to a
        batch-major state.

        ``matrices`` is the column's chain stack from
        :meth:`_column_matrices` (None for a static column); ``state``
        holds one or more stacked copies of that batch. The stacks are
        built on the host (tiny per-point stacks, heavy Python
        bookkeeping) and uploaded right before the device gemms — the
        natural host→device transfer point a real GPU backend pays per
        column.
        """
        n = self.num_qubits
        backend = self.backend
        xp = backend.xp
        if matrices is None:
            if op.full_column:
                groups = self._static_groups.get((op_index, adjoint))
                if groups is None:
                    # _rotate_groups right-multiplies by transposes, and
                    # the transpose of M^dagger is conj(M)
                    host = op.static_matrix.conj() if adjoint else op.static_matrix.T
                    memo = {1: backend.asarray(np.ascontiguousarray(host)[None])}
                    groups = [_kron_power(memo, size, backend) for size in _group_sizes(n)]
                    self._static_groups[(op_index, adjoint)] = groups
                return _rotate_groups(state, groups)
            static_dev = self._dev(op.static_matrix)
            if adjoint:
                static_dev = static_dev.conj().T
            batch = state.shape[0]
            for target in op.targets:
                if len(target) == 1:
                    # the flat view's bit strides match the single-state
                    # case, so the strided 2x2 kernel applies unchanged
                    state = _apply_1q(
                        state.reshape(-1), static_dev, target[0], backend
                    ).reshape(batch, -1)
                else:
                    work = xp.ascontiguousarray(state.T)
                    work = _contract(work, static_dev, target, n, backend)
                    state = xp.ascontiguousarray(work.T)
            return state

        if adjoint:
            matrices = matrices.conj().transpose(0, 2, 1)
        copies = state.shape[0] // matrices.shape[0]
        if copies > 1:
            matrices = np.concatenate([matrices] * copies)
        if op.full_column:
            # Only the (B, 2, 2) chain stacks cross to the device, and
            # transposed: the kron of transposes is the transposed kron,
            # so the group stacks built there from them are already the
            # right-hand factors _rotate_groups multiplies by.
            memo = {1: backend.asarray(np.ascontiguousarray(matrices.transpose(0, 2, 1)))}
            groups = [_kron_power(memo, size, backend) for size in _group_sizes(n)]
            return _rotate_groups(state, groups)

        # General fallback (multi-qubit targets, partial columns): the
        # trailing-batch kernels on a transposed view, with one upload of
        # the matrix stack per column.
        work = xp.ascontiguousarray(state.T)
        trailing = backend.asarray(np.ascontiguousarray(np.moveaxis(matrices, 0, -1)))
        for target in op.targets:
            if len(target) == 1:
                work = _apply_1q_per_column(work, trailing, target[0], backend)
            else:
                work = _contract_per_column(work, trailing, target, n, backend)
        return xp.ascontiguousarray(work.T)

    def energies(self, X: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of a ``(B, num_parameters)`` batch."""
        return self._cut_energies(self._states_batch(X))

    def _cut_energies(self, states) -> np.ndarray:
        """Row-wise ``sum_z |amp|^2 cut(z)`` on the backend; only the
        ``(B,)`` energy vector crosses back to the host. Each probability
        is formed before the weighted sum, so a parameter-independent
        distribution (an all-diagonal circuit) scores the same energy at
        every point instead of round-off noise an optimizer would chase."""
        probs = states.real**2 + states.imag**2
        return self.backend.to_host(probs @ self._dev(self._cut_table()))

    # -- gradient ----------------------------------------------------------

    def gradient(self, x: Sequence[float]) -> np.ndarray:
        """Exact gradient of :meth:`energy` at ``x`` (a batch of one
        through :meth:`gradients`)."""
        return self.gradients(np.reshape(x, (1, -1)))[0]

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Exact gradients of :meth:`energies` for every row of a ``(B,
        num_parameters)`` batch, as ``(B, num_parameters)``.

        Adjoint differentiation (Jones & Gacon, arXiv:2009.02823): one
        forward run to the final state ``psi``, the adjoint state ``lam =
        C psi``, then one reverse sweep that un-applies every op ``U`` to
        the stacked ``[psi; lam]`` pair and reads ``dE/da = 2 Re <lam| U^-1
        dU/da |psi>`` off the pair — a generator-weighted overlap for a
        diagonal block, a reduced per-target overlap contracted with
        :meth:`_column_matrices`' derivative stack for a matrix column.
        That is about three state evolutions per row, however many gate
        occurrences share the parameters. Rows run in chunks that keep the
        pair within ``2^22`` amplitudes, and only the ``(B,
        num_parameters)`` result crosses back to the host. Gates without a
        two-term shift rule (``u3``) raise ``NotImplementedError``, like
        the dense engine.
        """
        X = self._check_batch(X)
        for site in self.shift_sites:
            if not site.shiftable:
                raise NotImplementedError(
                    f"no shift rule for gate '{site.gate_name}'"
                )
        grads = np.zeros(X.shape)
        if not self.shift_sites:
            return grads
        chunk = max(1, (1 << 21) >> self.num_qubits)
        for start in range(0, X.shape[0], chunk):
            grads[start:start + chunk] = self._adjoint(X[start:start + chunk])
        return grads

    def _adjoint(self, X: np.ndarray) -> np.ndarray:
        """One row chunk of :meth:`gradients`, on the array backend."""
        backend = self.backend
        xp = backend.xp
        batch = X.shape[0]
        Xd = backend.asarray(X)
        pair = xp.concatenate([self._states_batch(X)] * 2)
        pair[batch:] *= self._dev(self._cut_table())
        grads = xp.zeros((batch, self.num_parameters))
        for op_index in reversed(range(len(self.ops))):
            op = self.ops[op_index]
            if isinstance(op, _DiagBlock):
                pair = self._apply_diag(op_index, op, pair, Xd, adjoint=True)
                if op.static_phase is None:
                    # U^-1 dU/dx_j = 1j * gens[j]
                    overlap = (xp.conj(pair[batch:]) * pair[:batch]).imag
                    grads[:, self._dev(op.param_indices)] -= 2.0 * (
                        overlap @ self._dev(op.gens).T
                    )
                continue
            matrices, derivs = self._column_matrices(op, X, derivatives=True)
            pair = self._apply_column(op_index, op, pair, matrices, adjoint=True)
            if derivs is None:
                continue
            if op.full_column:
                overlap = self._qubit_overlap_sum(pair, batch)
            else:
                overlap = sum(
                    self._target_overlap(pair, batch, target)
                    for target in op.targets
                )
            # every target shares the chain, so one overlap sum serves all
            factor_grads = 2.0 * (backend.asarray(derivs) @ overlap[:, :, None])[..., 0].real
            grads += factor_grads @ self._dev(op.free_map).T
        return backend.to_host(grads)

    def _qubit_overlap_sum(self, pair, batch: int):
        """``sum_q S_q`` over all qubits, as ``(B, 4)``, for a stacked
        ``[psi; lam]`` pair: ``S_q[b, i, j]`` sums ``conj(lam_b) psi_b``
        over basis-state pairs holding ``i`` and ``j`` on qubit ``q`` and
        agreeing on every other qubit.

        Cycles the layout like :func:`_rotate_groups`: each round exposes
        the next group of ``g`` qubits as the leading basis bits, one
        stacked gemm forms the group's ``(B, 2^g, 2^g)`` cross overlap, and
        the constant :func:`_pair_sum_map` folds it into the group's
        per-qubit sum.
        """
        xp = self.backend.xp
        total = 0
        for size in _group_sizes(self.num_qubits):
            view = pair.reshape(2 * batch, 1 << size, -1)
            cross = xp.conj(view[batch:]) @ view[:batch].transpose(0, 2, 1)
            total = total + cross.reshape(batch, -1) @ self._dev(_pair_sum_map(size))
            pair = xp.ascontiguousarray(view.transpose(0, 2, 1))
        return total

    def _target_overlap(self, pair, batch: int, target: tuple[int, ...]):
        """``S`` of one target tuple, as ``(B, 4^m)``: ``S[b, i, j]`` sums
        ``conj(lam_b) psi_b`` over basis-state pairs holding local indices
        ``i`` and ``j`` (bit ``k`` on ``target[k]``, as in the gate
        matrix) on the target and agreeing on every other qubit."""
        n = self.num_qubits
        m = len(target)
        tensor = pair.reshape((2 * batch,) + (2,) * n)
        # qubit q is tensor axis n - q; the local index's high bit leads
        moved = self.backend.moveaxis(
            tensor, [n - q for q in reversed(target)], list(range(1, m + 1))
        )
        view = moved.reshape(2 * batch, 1 << m, -1)
        cross = self.backend.xp.conj(view[batch:]) @ view[:batch].transpose(0, 2, 1)
        return cross.reshape(batch, -1)


# -- the compile pass ------------------------------------------------------


def compile_circuit(
    circuit: QuantumCircuit,
    parameters: Sequence[Parameter],
    *,
    initial_state: str = "0",
    graph: Graph | None = None,
    backend: ArrayBackend | str | None = None,
    cost_values: np.ndarray | None = None,
) -> CompiledProgram:
    """Lower ``circuit`` over the flat parameter ordering ``parameters``.

    ``initial_state`` is ``"0"`` or ``"+"``; pass ``graph`` to enable the
    ``energy``/``energies``/``gradient`` entry points, and optionally
    ``cost_values`` (a ``(2^n,)`` objective diagonal from a
    :mod:`repro.workloads` workload) to contract against something other
    than the graph's MaxCut table. ``backend`` selects the array backend
    the program evaluates under — a registered name or an
    :class:`~repro.simulators.backends.ArrayBackend` instance (default
    ``"numpy"``); the compile pass itself always runs on the host.
    """
    n = circuit.num_qubits
    index = {param: j for j, param in enumerate(parameters)}
    if len(index) != len(parameters):
        raise ValueError("duplicate parameters in the compile-time ordering")
    instructions = list(circuit.instructions)
    source_gates = len(instructions)

    # Fold a complete leading Hadamard column into the |+>^n start.
    initial_label = initial_state
    if initial_state == "0":
        seen: set = set()
        cursor = 0
        while (
            cursor < len(instructions)
            and instructions[cursor].gate.name == "h"
            and instructions[cursor].qubits[0] not in seen
        ):
            seen.add(instructions[cursor].qubits[0])
            cursor += 1
        if len(seen) == n:
            instructions = instructions[cursor:]
            initial_label = "+"

    ops: list[object] = []
    sites: list[_ShiftSite] = []
    diag_run: list = []  # pending diagonal instructions
    sq_run: list = []  # pending non-diagonal single-qubit instructions

    def flush_diag() -> None:
        if not diag_run:
            return
        gen_const: np.ndarray | None = None
        gen_by_param: dict[int, np.ndarray] = {}

        def add_const(vector: np.ndarray) -> None:
            nonlocal gen_const
            if gen_const is None:
                gen_const = np.zeros(2**n)
            gen_const += vector

        for instr in diag_run:
            spec = instr.gate.spec
            h_small, g0_small = spec.diag_phase
            if any(g0_small):
                add_const(_expand_diag(g0_small, instr.qubits, n))
            if spec.num_params == 0:
                continue
            terms, offset = _lower_expr(instr.gate.params[0], index)
            if offset:
                add_const(offset * _expand_diag(h_small, instr.qubits, n))
            if terms:
                h_full = _expand_diag(h_small, instr.qubits, n)
                for j, coeff in terms:
                    if j not in gen_by_param:
                        gen_by_param[j] = np.zeros(2**n)
                    gen_by_param[j] += coeff * h_full
                sites.append(
                    _ShiftSite(spec.name, spec.name in SHIFT_RULE_GATES)
                )
        diag_run.clear()

        if not gen_by_param:
            if gen_const is None:
                return  # a run of identity gates
            ops.append(
                _DiagBlock(
                    gen_const=None,
                    param_indices=np.empty(0, dtype=np.int64),
                    gens=np.empty((0, 2**n)),
                    static_phase=np.exp(1j * gen_const),
                )
            )
            return
        indices = sorted(gen_by_param)
        ops.append(
            _DiagBlock(
                gen_const=gen_const,
                param_indices=np.asarray(indices, dtype=np.int64),
                gens=np.stack([gen_by_param[j] for j in indices]),
                static_phase=None,
            )
        )

    def make_factor(gate) -> _Factor:
        exprs = tuple(_lower_expr(value, index) for value in gate.params)
        return _Factor(
            name=gate.spec.name,
            matrix_fn=gate.spec.matrix_fn,
            exprs=exprs,
            has_free=any(terms for terms, _ in exprs),
        )

    def emit_column(
        targets: tuple[tuple[int, ...], ...], factors: tuple[_Factor, ...]
    ) -> None:
        static_matrix = None
        if not any(factor.has_free for factor in factors):
            matrix = None
            for factor in factors:
                values = [offset for _, offset in factor.exprs]
                factor_matrix = factor.matrix_fn(values)
                matrix = factor_matrix if matrix is None else factor_matrix @ matrix
            static_matrix = matrix
        exprs = [expr for factor in factors for expr in factor.exprs]
        angle_map = np.zeros((len(parameters), len(exprs)))
        for column, (terms, _) in enumerate(exprs):
            for j, coeff in terms:
                angle_map[j, column] = coeff
        starts = np.cumsum([0] + [len(factor.exprs) for factor in factors])
        free_columns = [
            start for start, factor in zip(starts, factors) if factor.has_free
        ]
        ops.append(
            _MatrixColumn(
                targets=targets,
                factors=factors,
                static_matrix=static_matrix,
                angle_map=angle_map,
                angle_offset=np.array([offset for _, offset in exprs], dtype=float),
                free_map=angle_map[:, free_columns],
                full_column=len(targets) == n and len(targets[0]) == 1,
            )
        )
        for _ in targets:
            for factor in factors:
                if factor.has_free:
                    sites.append(
                        _ShiftSite(
                            factor.name,
                            factor.name in SHIFT_RULE_GATES
                            and len(factor.exprs) == 1,
                        )
                    )

    def flush_sq() -> None:
        if not sq_run:
            return
        # Group the run per qubit (distinct qubits commute, per-qubit order
        # is preserved), then share one op across qubits whose factor
        # chains are structurally identical — the weight-shared mixer case.
        per_qubit: dict[int, list[_Factor]] = {}
        qubit_order: list[int] = []
        for instr in sq_run:
            qubit = instr.qubits[0]
            if qubit not in per_qubit:
                per_qubit[qubit] = []
                qubit_order.append(qubit)
            per_qubit[qubit].append(make_factor(instr.gate))
        sq_run.clear()
        groups: dict[tuple, list[int]] = {}
        group_order: list[tuple] = []
        for qubit in qubit_order:
            signature = tuple(
                (factor.name, factor.exprs) for factor in per_qubit[qubit]
            )
            if signature not in groups:
                groups[signature] = []
                group_order.append(signature)
            groups[signature].append(qubit)
        for signature in group_order:
            qubits = groups[signature]
            emit_column(
                tuple((q,) for q in qubits), tuple(per_qubit[qubits[0]])
            )

    for instr in instructions:
        spec = instr.gate.spec
        if spec.is_diagonal:
            flush_sq()
            diag_run.append(instr)
        elif spec.num_qubits == 1:
            flush_diag()
            sq_run.append(instr)
        else:
            flush_diag()
            flush_sq()
            emit_column((instr.qubits,), (make_factor(instr.gate),))
    flush_diag()
    flush_sq()

    return CompiledProgram(
        num_qubits=n,
        num_parameters=len(parameters),
        ops=ops,
        shift_sites=sites,
        initial_state_label=initial_label,
        graph=graph,
        source_gates=source_gates,
        backend=backend,
        cost_values=cost_values,
    )


def compile_ansatz(
    ansatz: QAOAAnsatz, *, backend: ArrayBackend | str | None = None
) -> CompiledProgram:
    """One-time lowering of a QAOA ansatz into its compiled program.

    The parameter ordering is the ansatz's flat ``[gammas..., betas...]``
    layout — the same vectors the optimizers drive — and the ansatz's
    graph plus its workload's objective diagonal are attached so the
    energy entry points are live for whichever problem built the ansatz.
    ``backend`` picks the array backend evaluations run under (see
    :mod:`repro.simulators.backends`; default ``"numpy"``).
    """
    from repro.workloads import get_workload

    workload = getattr(ansatz, "workload", "maxcut") or "maxcut"
    cost = (
        None
        if ansatz.graph is None
        else get_workload(workload).objective_values(ansatz.graph)
    )
    return compile_circuit(
        ansatz.circuit,
        ansatz.parameters,
        initial_state=ansatz.initial_state_label,
        graph=ansatz.graph,
        backend=backend,
        cost_values=cost,
    )
