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
``gradients(X)`` implements the exact two-term parameter-shift rule by
injecting per-row shifts into the same batched run instead of
reconstructing shifted circuits per gate occurrence.

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

_SHIFT = np.pi / 2

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


@dataclass(frozen=True)
class _DiagAtom:
    """One parameterized diagonal gate occurrence inside a fused block,
    kept in compact per-gate form so gradient shifts can re-expand it."""

    h_small: tuple[float, ...]
    qubits: tuple[int, ...]


@dataclass
class _DiagBlock:
    """A maximal run of diagonal gates fused into phase-exponent vectors."""

    #: parameter-independent part of the exponent (None when zero)
    gen_const: np.ndarray | None
    #: flat indices of the parameters this block depends on
    param_indices: np.ndarray
    #: ``(k, 2^n)`` generator vectors, one row per parameter above
    gens: np.ndarray
    #: per-occurrence generators for parameter-shift injection
    atoms: list[_DiagAtom]
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


@dataclass(frozen=True)
class _ShiftSite:
    """One parameterized gate occurrence, addressable for a shift rule."""

    op_index: int
    #: atom index for diagonal occurrences, -1 otherwise
    atom: int
    #: (factor, target) indices for matrix occurrences, (-1, -1) otherwise
    factor: int
    target: int
    coeffs: tuple[tuple[int, float], ...]
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


#: vectorized (angle-vector -> (U, 2, 2)) builders for the hot mixer
#: rotations; chains of anything else fall back to the per-row loop
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
        # Atom generators expanded to the full basis, memoized per distinct
        # (h_small, qubits): a cost-layer edge appears once per QAOA layer,
        # so this caches p-fold fewer vectors than storing one per atom
        # while sparing the gradient path any repeated expansion.
        self._atom_vectors: dict[tuple, np.ndarray] = {}
        # Batched-path memos: per-op unique-value decompositions of diagonal
        # generators (phase lookup tables) and exp(1j * s * atom) vectors
        # for the +-pi/2 gradient shifts.
        self._diag_lookups: dict[int, tuple] = {}
        self._atom_shift_phases: dict[tuple, np.ndarray] = {}
        self._initial_host: np.ndarray | None = None
        # Transposed kron'd group matrices of full static columns (see
        # _rotate_groups), built on the device once per op.
        self._static_groups: dict[int, list] = {}

    # -- introspection -----------------------------------------------------

    @property
    def num_ops(self) -> int:
        """Fused op count — compare against :attr:`source_gates`."""
        return len(self.ops)

    @property
    def num_shift_sites(self) -> int:
        """Parameterized gate occurrences (2 energy evals each per
        gradient, matching the dense engine's accounting)."""
        return len(self.shift_sites)

    # -- device constants --------------------------------------------------

    def _dev(self, host: np.ndarray):
        """Device-resident view of a *persistent* host constant.

        Program constants (generator vectors, static phases, the cut
        table, memoized atom vectors) are built on the host at compile
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

    def _atom_vector(self, atom: _DiagAtom) -> np.ndarray:
        key = (atom.h_small, atom.qubits)
        vector = self._atom_vectors.get(key)
        if vector is None:
            vector = _expand_diag(atom.h_small, atom.qubits, self.num_qubits)
            self._atom_vectors[key] = vector
        return vector

    def _atom_shift_phase(self, atom: _DiagAtom, shift: float) -> np.ndarray:
        """``exp(1j * shift * atom_generator)`` memoized per (atom, shift):
        the gradient's +-pi/2 shifts reuse two vectors per distinct edge
        generator instead of re-exponentiating every call."""
        key = (atom.h_small, atom.qubits, shift)
        phase = self._atom_shift_phases.get(key)
        if phase is None:
            phase = np.exp(1j * shift * self._atom_vector(atom))
            self._atom_shift_phases[key] = phase
        return phase

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

    def _states_batch(
        self,
        X: np.ndarray,
        shifts: Sequence[tuple[_ShiftSite, float] | None] | None = None,
    ) -> np.ndarray:
        """Batch-major final statevectors: row ``b`` is the state at
        ``X[b]``. This is the program's only state-evolution routine —
        every entry point, the scalar ones as batches of one, runs
        through it. The batch axis leads so every per-point quantity (diag
        exponents, probabilities, cut energies) stays row-contiguous and
        the per-column matrix applies reduce to stacked gemms.

        ``X`` stays on the host (angle-expression evaluation and dedup
        are host bookkeeping) and is uploaded once as ``Xd``; the state
        and every per-basis-state quantity live on the array backend.
        """
        X = self._check_batch(X)
        batch = X.shape[0]
        by_op: dict[int, list[tuple[int, _ShiftSite, float]]] = {}
        if shifts is not None:
            for column, entry in enumerate(shifts):
                if entry is not None:
                    site, s = entry
                    by_op.setdefault(site.op_index, []).append((column, site, s))

        backend = self.backend
        xp = backend.xp
        Xd = backend.asarray(X)
        state = xp.empty((batch, 2**self.num_qubits), dtype=complex)
        state[:] = self._initial_state()
        for op_index, op in enumerate(self.ops):
            shifts_here = by_op.get(op_index, ())
            if isinstance(op, _DiagBlock):
                if op.static_phase is not None:
                    # broadcasts across rows
                    state = backend.multiply(
                        state, self._dev(op.static_phase), out=state
                    )
                    continue
                gens_u, const_u, inverse = self._diag_lookup(op_index, op)
                if inverse is not None:
                    # few distinct generator values: exponentiate unique
                    # columns, gather, and fold gradient shifts in as
                    # cached per-atom phase factors
                    exponent_u = Xd[:, self._dev(op.param_indices)] @ gens_u
                    if const_u is not None:
                        exponent_u += const_u
                    phases = backend.take(
                        backend.exp(1j * exponent_u), inverse, axis=1
                    )
                    for column, site, s in shifts_here:
                        phases[column] *= self._dev(
                            self._atom_shift_phase(op.atoms[site.atom], s)
                        )
                    state = backend.multiply(state, phases, out=state)
                    continue
                exponent = Xd[:, self._dev(op.param_indices)] @ self._dev(op.gens)
                if op.gen_const is not None:
                    exponent += self._dev(op.gen_const)
                for column, site, s in shifts_here:
                    exponent[column] += s * self._dev(
                        self._atom_vector(op.atoms[site.atom])
                    )
                state = backend.multiply(state, backend.exp(1j * exponent), out=state)
            else:
                # gradient batches tile one x across 2*sites rows, so
                # matrix columns dedup their angle rows before building
                state = self._apply_column_batch(
                    op_index, op, state, X, shifts_here, dedup=shifts is not None
                )
        return state

    def _column_matrices(
        self,
        op: _MatrixColumn,
        X: np.ndarray,
        dedup: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point chain matrices ``(B, dim, dim)`` plus the raw angle
        rows (for shift re-builds).

        ``dedup`` collapses duplicate angle rows before building — worth
        it on gradient batches (one x tiled 2*sites times carries a
        handful of distinct combinations), pure overhead on optimizer
        batches whose rows are all distinct.
        """
        angle_rows = X @ op.angle_map + op.angle_offset
        if dedup:
            unique_rows, inverse = np.unique(
                angle_rows, axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
        else:
            unique_rows, inverse = angle_rows, None
        dim = 2 ** len(op.targets[0])
        num_unique = unique_rows.shape[0]
        if dim == 2 and all(
            not factor.exprs
            or (len(factor.exprs) == 1 and factor.name in _BATCH_MATRIX_FNS)
            for factor in op.factors
        ):
            # mixer-chain fast path: build all unique 2x2 factors from the
            # whole angle vector at once and chain them as stacked matmuls
            built = None
            cursor = 0
            for factor in op.factors:
                if factor.exprs:
                    stack = _BATCH_MATRIX_FNS[factor.name](
                        unique_rows[:, cursor]
                    )
                    cursor += 1
                else:
                    stack = np.broadcast_to(
                        factor.matrix_fn([]), (num_unique, 2, 2)
                    )
                built = stack if built is None else stack @ built
        else:
            built = np.empty((num_unique, dim, dim), dtype=complex)
            for u_index in range(num_unique):
                built[u_index] = self._chain_matrix(op, unique_rows[u_index])
        if inverse is not None:
            built = built[inverse]
        return np.ascontiguousarray(built), angle_rows

    def _apply_column_batch(
        self,
        op_index: int,
        op: _MatrixColumn,
        state: np.ndarray,
        X: np.ndarray,
        shifts_here: Sequence[tuple[int, _ShiftSite, float]],
        dedup: bool = False,
    ) -> np.ndarray:
        """Apply one matrix column to a batch-major ``(B, 2^n)`` state.

        The chain matrices themselves are built on the host (tiny per-point
        stacks, heavy Python bookkeeping) and uploaded right before the
        device gemms — the natural host→device transfer point a real GPU
        backend pays per column.
        """
        n = self.num_qubits
        batch = state.shape[0]
        backend = self.backend
        xp = backend.xp
        full_column = len(op.targets) == n and len(op.targets[0]) == 1
        if op.static_matrix is not None:
            # parameter-free, so never shifted
            if full_column:
                groups = self._static_groups.get(op_index)
                if groups is None:
                    static_T = np.ascontiguousarray(op.static_matrix.T)[None]
                    memo = {1: backend.asarray(static_T)}
                    groups = [_kron_power(memo, size, backend) for size in _group_sizes(n)]
                    self._static_groups[op_index] = groups
                return _rotate_groups(state, groups)
            static_dev = self._dev(op.static_matrix)
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

        base_stack, angle_rows = self._column_matrices(op, X, dedup)

        if full_column:
            shifts_by_qubit: dict[int, list[tuple[int, _ShiftSite, float]]] = {}
            for column, site, s in shifts_here:
                shifts_by_qubit.setdefault(op.targets[site.target][0], []).append(
                    (column, site, s)
                )

            # Only the (B, 2, 2) chain stacks cross to the device, and
            # transposed: the kron of transposes is the transposed kron,
            # so the group stacks built there from them are already the
            # right-hand factors _rotate_groups multiplies by.
            base_T = np.ascontiguousarray(base_stack.transpose(0, 2, 1))
            memo = {1: backend.asarray(base_T)}

            def qubit_stack_T(qubit: int):
                shifted = shifts_by_qubit.get(qubit, ())
                if not shifted:
                    return memo[1]
                stack = base_T.copy()
                for column, site, s in shifted:
                    stack[column] = self._chain_matrix(
                        op, angle_rows[column], shift_factor=site.factor, shift=s
                    ).T
                return backend.asarray(stack)

            groups = []
            top = n - 1
            for size in _group_sizes(n):
                qubits = [top - j for j in range(size)]
                top -= size
                if any(q in shifts_by_qubit for q in qubits):
                    group = qubit_stack_T(qubits[0])
                    for qubit in qubits[1:]:
                        group = _kron_pairs(group, qubit_stack_T(qubit), backend)
                    groups.append(group)
                else:
                    groups.append(_kron_power(memo, size, backend))
            return _rotate_groups(state, groups)

        # General fallback (multi-qubit targets, partial columns): the
        # trailing-batch kernels on a transposed view. Matrix stacks are
        # assembled (and shift-patched) on the host, uploaded per target.
        work = xp.ascontiguousarray(state.T)
        base_trailing = np.ascontiguousarray(np.moveaxis(base_stack, 0, -1))
        base_trailing_dev = None
        for t_index, target in enumerate(op.targets):
            shifted = [
                (column, site, s)
                for column, site, s in shifts_here
                if site.target == t_index
            ]
            if shifted:
                patched = base_trailing.copy()
                for column, site, s in shifted:
                    patched[:, :, column] = self._chain_matrix(
                        op, angle_rows[column], shift_factor=site.factor, shift=s
                    )
                matrices = backend.asarray(patched)
            else:
                if base_trailing_dev is None:
                    base_trailing_dev = backend.asarray(base_trailing)
                matrices = base_trailing_dev
            if len(target) == 1:
                work = _apply_1q_per_column(work, matrices, target[0], backend)
            else:
                work = _contract_per_column(work, matrices, target, n, backend)
        return xp.ascontiguousarray(work.T)

    def _chain_matrix(
        self,
        op: _MatrixColumn,
        angles: np.ndarray,
        *,
        shift_factor: int = -1,
        shift: float = 0.0,
    ) -> np.ndarray:
        matrix = None
        cursor = 0
        for f_index, factor in enumerate(op.factors):
            count = len(factor.exprs)
            values = list(angles[cursor:cursor + count])
            cursor += count
            if f_index == shift_factor:
                values[0] += shift
            factor_matrix = factor.matrix_fn(values)
            matrix = factor_matrix if matrix is None else factor_matrix @ matrix
        return matrix

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
        """Exact parameter-shift gradient of :meth:`energy` at ``x``.

        All ``2 * num_shift_sites`` shifted evaluations run as one batched
        pass (chunked to bound memory) with the shift injected into the
        relevant op, instead of rebuilding a shifted circuit per site.
        """
        return self.gradients(np.reshape(x, (1, -1)))[0]

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Parameter-shift gradients for every row of a ``(B,
        num_parameters)`` batch, as ``(B, num_parameters)``.

        The ``B * 2 * num_shift_sites`` shifted evaluations of the whole
        batch share chunked passes of the state evolution — the seam
        batch-native gradient optimizers (Adam over a restart population)
        ride instead of looping per-point :meth:`gradient` calls.
        """
        X = self._check_batch(X)
        batch = X.shape[0]
        grads = np.zeros((batch, self.num_parameters))
        sites = self.shift_sites
        if not sites or batch == 0:
            return grads
        for site in sites:
            if not site.shiftable:
                raise NotImplementedError(
                    f"no shift rule for gate '{site.gate_name}'"
                )
        specs: list[tuple[_ShiftSite, float]] = []
        for site in sites:
            specs.append((site, +_SHIFT))
            specs.append((site, -_SHIFT))
        per_point = len(specs)
        total = batch * per_point
        energies = np.empty(total)
        chunk = max(1, (1 << 22) >> self.num_qubits)
        for start in range(0, total, chunk):
            rows = np.arange(start, min(start + chunk, total))
            shifted = self._states_batch(
                X[rows // per_point], [specs[r % per_point] for r in rows]
            )
            energies[rows] = self._cut_energies(shifted)
        paired = energies.reshape(batch, len(sites), 2)
        for k, site in enumerate(sites):
            site_grad = (paired[:, k, 0] - paired[:, k, 1]) / 2.0
            for j, coeff in site.coeffs:
                grads[:, j] += coeff * site_grad
        return grads


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
        atoms: list[_DiagAtom] = []
        op_index = len(ops)

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
                    _ShiftSite(
                        op_index=op_index,
                        atom=len(atoms),
                        factor=-1,
                        target=-1,
                        coeffs=terms,
                        gate_name=spec.name,
                        shiftable=spec.name in SHIFT_RULE_GATES,
                    )
                )
                atoms.append(_DiagAtom(tuple(h_small), instr.qubits))
        diag_run.clear()

        if not gen_by_param:
            if gen_const is None:
                return  # a run of identity gates
            ops.append(
                _DiagBlock(
                    gen_const=None,
                    param_indices=np.empty(0, dtype=np.int64),
                    gens=np.empty((0, 2**n)),
                    atoms=[],
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
                atoms=atoms,
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
        op_index = len(ops)
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
        ops.append(
            _MatrixColumn(
                targets=targets,
                factors=factors,
                static_matrix=static_matrix,
                angle_map=angle_map,
                angle_offset=np.array([offset for _, offset in exprs], dtype=float),
            )
        )
        for t_index in range(len(targets)):
            for f_index, factor in enumerate(factors):
                if not factor.has_free:
                    continue
                sites.append(
                    _ShiftSite(
                        op_index=op_index,
                        atom=-1,
                        factor=f_index,
                        target=t_index,
                        coeffs=factor.exprs[0][0],
                        gate_name=factor.name,
                        shiftable=(
                            factor.name in SHIFT_RULE_GATES
                            and len(factor.exprs) == 1
                        ),
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
