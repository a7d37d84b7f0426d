"""Structural causal models: linear structure-matrix algebra and general
finite-state mechanisms.

Linear models are stored through their structure matrix A, where A[j, i] is
the coefficient of variable i in the equation for variable j, so that
X = A X + offsets + N and X = (I - A)^{-1} (offsets + N). General models
carry one deterministic mechanism per node plus an independent noise term.

Random draws use counter-based Philox generators (``_philox``). Noise
columns are keyed by (seed, node index, stream, chunk), so per-node noise
columns are reproducible independently of each other and chunks can be
filled in any order (or in parallel) with identical output.

``Dataset.from_csv`` reads plain CSV (printable ASCII data lines without
quotes) with one ``np.loadtxt`` call. ``_read_csv``, row by row through
``csv.reader``, is the fallback for everything else and the oracle: it reads
quotes and CR line ends, refuses a data field that holds ``_`` or a non-ASCII
character, and names the line at fault in every refusal.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .graphs import Dag, CycleError
from .tables import _tabulate

__all__ = [
    "NoiseSpec",
    "Dataset",
    "LinearScm",
    "GeneralScm",
    "ScmError",
    "SingularStructureError",
    "solve_structure",
    "total_effect",
    "unit_map",
    "structure_preserving_intervention",
    "exact_joint",
    "NOISE_COMBO_CAP",
]

_CHUNK = 8192  # fixed chunk size; defines the reproducible parallel layout
_EDGE_TOL = 1e-12

# Exact joints enumerate every noise assignment and refuse above this many.
NOISE_COMBO_CAP = 1 << 16


class ScmError(ValueError):
    """Malformed structural model or invalid simulation request."""


class SingularStructureError(ScmError):
    """The mixing matrix S is numerically singular."""


# ---------------------------------------------------------------------------
# Noise specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Noise distribution given as a family name plus parameters.

    Every family has finite support, so every model built from these specs
    has an exact joint. Families:

    * ``binomdiff(rounds, p_plus, p_minus)`` -- difference of two
      independent binomial counts, the law of a coin-controlled action
      tally. Finite support {-rounds, ..., rounds}.
    * ``degenerate(value)`` -- point mass at a real value, stored as a
      float.
    * ``finite(atoms, probs)`` -- explicit real atoms, stored as floats,
      with probabilities.
    """

    family: str
    params: tuple = ()
    atoms: tuple = ()
    probs: tuple = ()

    @classmethod
    def binomdiff(cls, rounds: int, p_plus: float, p_minus: float) -> "NoiseSpec":
        try:
            r = operator.index(rounds)
        except TypeError:
            r = -1
        if r < 0:
            raise ScmError(f"binomdiff rounds must be an integer >= 0, got {rounds!r}")
        for name, q in (("p_plus", p_plus), ("p_minus", p_minus)):
            if not 0.0 <= float(q) <= 1.0:
                raise ScmError(f"binomdiff {name} must lie in [0, 1], got {q!r}")
        return cls("binomdiff", (r, float(p_plus), float(p_minus)))

    @classmethod
    def degenerate(cls, value: float) -> "NoiseSpec":
        if not isinstance(value, numbers.Real):
            raise ScmError(f"degenerate noise value must be a real number, got {value!r}")
        return cls("degenerate", (float(value),))

    @classmethod
    def finite(cls, atoms: Sequence, probs: Sequence[float]) -> "NoiseSpec":
        probs = tuple(float(p) for p in probs)
        if len(atoms) != len(probs):
            raise ScmError("atoms and probs must have equal length")
        total = sum(probs)  # a NaN entry passes both checks after the first
        if not math.isfinite(total) or abs(total - 1.0) > 1e-12 or min(probs) < 0:
            raise ScmError("probs must be a probability vector")
        if not all(isinstance(a, numbers.Real) for a in atoms):
            raise ScmError(f"finite noise atoms must be real numbers, got {atoms!r}")
        return cls("finite", (), tuple(map(float, atoms)), probs)

    # -- law ----------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "binomdiff":
            r, pp, pm = self.params
            return (rng.binomial(r, pp, size) - rng.binomial(r, pm, size)).astype(float)
        if self.family == "degenerate":
            return np.full(size, self.params[0])
        if self.family == "finite":
            idx = rng.choice(len(self.atoms), size=size, p=np.asarray(self.probs))
            return np.asarray(self.atoms)[idx]
        raise ScmError(f"unknown noise family {self.family!r}")

    def support(self) -> tuple[tuple, tuple[float, ...]]:
        """(atoms, probabilities) of the law; a spec constructed directly
        with an unknown family is refused.

        ``binomdiff`` convolves the two binomial pmfs, each entry in the
        closed form C(r, k) q^k (1 - q)^(r - k) (see ``_binomial_pmf``).
        Each binomial entry is within 4 ulp of the exact rational pmf of the
        given float bias for r <= 50 (3.2 ulp at worst over 4500 random
        biases) and within a relative 1e-14 at r = 2000, with no overflow or
        underflow where the exact entry is a normal float.
        """
        if self.family == "binomdiff":
            r, pp, pm = self.params
            pmf = np.convolve(_binomial_pmf(r, pp), _binomial_pmf(r, pm)[::-1])
            values = np.arange(-r, r + 1, dtype=float)
            return tuple(values), tuple(float(v) for v in pmf)
        if self.family == "degenerate":
            return self.params, (1.0,)
        if self.family == "finite":
            return self.atoms, self.probs
        raise ScmError(f"noise family {self.family!r} has no finite support")

    def to_json_obj(self) -> dict:
        if self.family == "finite":
            return {"family": "finite", "atoms": list(self.atoms),
                    "probs": list(self.probs)}
        return {"family": self.family, "params": list(self.params)}


def _frexp_power(m: float, n: int) -> tuple[float, int]:
    """m**n for m = 0 or 0.5 <= m < 1 as ``math.frexp`` of it, with no
    underflow: m**999 >= 2**-999 is a normal float, and longer powers are
    taken in chunks of 1000 whose binary exponents are kept apart."""
    if n < 1000:
        return math.frexp(m**n)
    hi, lo = divmod(n, 1000)
    m_chunk, e_chunk = math.frexp(m**1000)
    m_hi, e_hi = _frexp_power(m_chunk, hi)
    m_out, e_out = math.frexp(m_hi * m**lo)
    return m_out, e_out + e_hi + e_chunk * hi


def _binomial_pmf(r: int, q: float) -> np.ndarray:
    """Binomial(r, q) pmf, entry k = C(r, k) q^k (1 - q)^(r - k), for a bias
    q in [0, 1].

    Each of the three factors is split into a mantissa in [0.5, 1) and a
    binary exponent (the integer C(r, k) by its bit length), so the product
    of the mantissas neither overflows nor underflows and the exponents are
    applied once by ``math.ldexp``. 1 - q = a + t exactly, with a = fl(1 - q)
    and |t / a| <= 2**-53, so (1 - q)^n = a^n (1 + n t / a) up to a relative
    (n 2**-53)^2, far below an ulp for the r that ``exact_joint`` admits.
    """
    a = 1.0 - q
    t = (1.0 - a) - q
    m_q, e_q = math.frexp(q)
    m_a, e_a = math.frexp(a)
    out = np.empty(r + 1)
    comb = 1
    for k in range(r + 1):
        if k:
            comb = comb * (r - k + 1) // k
        shift = max(comb.bit_length() - 64, 0)  # C(r, k) to 0.51 ulp
        m_c, e_c = math.frexp(float(comb >> shift))
        m_k, e_k = _frexp_power(m_q, k)
        m_n, e_n = _frexp_power(m_a, r - k)
        fix = 1.0 + (r - k) * t / a if t else 1.0
        out[k] = math.ldexp(m_c * m_k * m_n * fix,
                            e_c + shift + e_k + e_q * k + e_n + e_a * (r - k))
    return out


def _philox(seed: int, *key: int) -> np.random.Generator:
    """The package's one seeded generator: Philox on ``SeedSequence(seed)``,
    or on its child ``key`` (``SeedSequence(seed, spawn_key=key)``)."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _noise_column(spec: NoiseSpec, n: int, seed: int, node_index: int,
                  stream: int) -> np.ndarray:
    parts = []
    for chunk, start in enumerate(range(0, n, _CHUNK)):
        size = min(_CHUNK, n - start)
        parts.append(spec.sample(_philox(seed, node_index, stream, chunk), size))
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Rectangular finite numeric data with its generation seed recorded."""

    columns: tuple[str, ...]
    rows: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        columns = tuple(self.columns)
        if len(set(columns)) != len(columns):
            raise ScmError(f"duplicate column names in {columns}")
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ScmError(
                f"rows shape {rows.shape} does not match {len(columns)} columns")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ScmError(f"row {k} holds a non-finite value: {rows[k].tolist()}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", columns)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def to_csv(self) -> str:
        """Header line, then one line per row; integral values below 1e15
        in magnitude print as integers, others as ``repr(float)``."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(self.columns)
        if not self.columns:
            return buf.getvalue() + "\n" * len(self.rows)
        cells = [_format_column(col) for col in self.rows.T]
        return buf.getvalue() + "".join(
            line + "\n" for line in map(",".join, zip(*cells)))

    @classmethod
    def from_csv(cls, text: str, seed: int | None = None) -> "Dataset":
        """Parse a header line and at least one data row; every non-blank
        row must hold one finite number per column. Malformed input raises
        ScmError naming the offending line."""
        parsed = _read_plain_csv(text)
        header, rows = parsed if parsed is not None else _read_csv(text)
        return cls(header, rows, seed)


def _format_number(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def _format_column(col: np.ndarray) -> list[str]:
    """``_format_number`` of every entry, with one int64 cast when all of
    them print as integers."""
    if (np.abs(col) < 1e15).all() and (col == np.trunc(col)).all():
        return list(map(str, col.astype(np.int64).tolist()))
    return list(map(_format_number, col.tolist()))


def _read_plain_csv(text: str) -> tuple[tuple[str, ...], np.ndarray] | None:
    """One ``np.loadtxt`` call on data lines of printable ASCII without
    quotes, where numpy's parser and ``float`` read a field alike.

    Returns None whenever the text needs the csv module or is malformed, so
    that ``_read_csv`` reads it and names the line at fault. numpy splits
    lines and skips blank ones as ``csv.reader`` does; a field that it
    refuses but ``float`` reads, such as ``1_0``, goes to the fallback.
    """
    first, _, body = text.partition("\n")
    limit = csv.field_size_limit()
    if (not first or any(c in text for c in '"\r\0') or not body.strip("\n")
            or not (body.isascii() and body.replace("\n", "").isprintable())
            # no field is above the limit when no line is
            or len(text) > limit and max(map(len, text.split("\n"))) > limit):
        return None
    header = first.split(",")
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2,
                          dtype=float)
    except ValueError:
        return None
    if rows.shape[1] != len(header) or not np.isfinite(rows).all():
        return None
    return tuple(header), rows


def _read_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Row-by-row reading with ``csv.reader``: quoted fields and CR line
    ends, and the ScmError that names a malformed line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if not header:
            raise ScmError("CSV has no header line")
        cells, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ScmError(f"line {reader.line_num}: {len(row)} fields, "
                               f"header has {len(header)}")
            bad = [f for f in row if "_" in f or not f.isascii()]
            if bad:
                raise ScmError(f"line {reader.line_num}: {bad[0]!r} is not a CSV number")
            cells.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:  # a bare CR in a field, a field above the size limit
        raise ScmError(f"line {reader.line_num}: {exc}") from None
    if not cells:
        raise ScmError("CSV has a header but no data rows")
    try:
        rows = np.array(cells, dtype=float)
    except ValueError as exc:
        # the same parser, row by row, finds the line at fault
        for row, line in zip(cells, lines):
            try:
                np.array(row, dtype=float)
            except ValueError:
                raise ScmError(f"line {line}: {exc}") from None
        raise
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ScmError(f"line {lines[k]}: non-finite value in {cells[k]}")
    return tuple(header), rows


# ---------------------------------------------------------------------------
# Linear SCM
# ---------------------------------------------------------------------------


def _support_dag(nodes: Sequence[str], a: np.ndarray) -> Dag:
    """Edge i -> j for every nonzero off-diagonal entry a[j, i]; raises
    CycleError when the support is cyclic."""
    return Dag(nodes, [(u, v) for j, v in enumerate(nodes) for i, u in enumerate(nodes)
                       if i != j and abs(a[j, i]) > _EDGE_TOL])


@dataclass(frozen=True)
class LinearScm:
    """X = A X + offsets + N with mutually independent noises.

    ``a[j, i]`` is the coefficient of node i in the equation of node j. The
    support of A must be acyclic (strictly lower triangular under some node
    permutation); this is validated at construction.
    """

    nodes: tuple[str, ...]
    a: np.ndarray
    offsets: np.ndarray
    noises: tuple[NoiseSpec, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        a = np.asarray(self.a, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        d = len(nodes)
        if a.shape != (d, d):
            raise ScmError(f"structure matrix shape {a.shape}, expected {(d, d)}")
        if offsets.shape != (d,):
            raise ScmError("offsets must be one per node")
        if len(self.noises) != d:
            raise ScmError("need one noise spec per node")
        a.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "noises", tuple(self.noises))
        self.graph()  # acyclicity check

    def graph(self) -> Dag:
        try:
            return _support_dag(self.nodes, self.a)
        except CycleError as exc:
            raise ScmError(f"structure matrix support is cyclic: {exc}") from exc

    def mixing(self) -> np.ndarray:
        """S = (I - A)^{-1}, mapping offsets + noise to node values."""
        d = len(self.nodes)
        return np.linalg.solve(np.eye(d) - self.a, np.eye(d))

    def general(self) -> "GeneralScm":
        """The same model as one mechanism per node over its parents in
        ``graph()``: X_v = offset_v + sum_p a[v, p] X_p + N_v, with the same
        noise specs. ``general().simulate`` is how a linear model is
        simulated."""
        g = self.graph()
        mechanisms = {}
        for j, v in enumerate(self.nodes):
            terms = tuple((p, float(self.a[j, self.nodes.index(p)]))
                          for p in g.parents(v))
            mechanisms[v] = _affine(float(self.offsets[j]), terms)
        return GeneralScm(
            nodes=self.nodes, parents={v: g.parents(v) for v in self.nodes},
            mechanisms=mechanisms, noises=dict(zip(self.nodes, self.noises)))

    def to_json_obj(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "a": [[float(v) for v in row] for row in self.a],
            "offsets": [float(v) for v in self.offsets],
            "noises": [s.to_json_obj() for s in self.noises],
        }


def _affine(offset: float, terms: tuple[tuple[str, float], ...]) -> Mechanism:
    def mechanism(pa: Mapping[str, float], noise: float) -> float:
        x = offset
        for p, c in terms:
            x += c * pa[p]
        return x + noise

    return mechanism


def solve_structure(s: np.ndarray) -> np.ndarray:
    """The structure matrix A = I - S^{-1} of an invertible mixing matrix S.

    Singularity is detected from the pivots of one partial-pivot LU
    factorization, whose two triangular solves give S^{-1}.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.size == 0:
        raise ScmError("S must be a nonempty square matrix")
    d = len(s)
    if not np.isfinite(s).all():
        raise ScmError("S must be finite")
    lu = s.copy()
    inv = np.eye(d)
    for k in range(d):
        p = k + int(np.abs(lu[k:, k]).argmax())
        lu[[k, p]] = lu[[p, k]]
        inv[[k, p]] = inv[[p, k]]
        if abs(lu[k, k]) < 1e-10:
            raise SingularStructureError("mixing matrix is singular (pivot < 1e-10)")
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    for k in range(d):                # L y = P I, L unit lower triangular
        inv[k + 1:] -= np.outer(lu[k + 1:, k], inv[k])
    for k in range(d - 1, -1, -1):    # U x = y
        inv[k] /= lu[k, k]
        inv[:k] -= np.outer(lu[:k, k], inv[k])
    a = np.eye(d) - inv
    a[np.abs(a) < _EDGE_TOL] = 0.0
    return a


def total_effect(scm: LinearScm, i: str, j: str) -> float:
    """Total causal effect of a unit shift of node ``i`` on node ``j``:
    entry [j, i] of (I - A)^{-1}, with the diagonal convention S[i, i] = 1."""
    s = scm.mixing()
    ji = scm.nodes.index(j), scm.nodes.index(i)
    return float(s[ji])


# ---------------------------------------------------------------------------
# General SCM
# ---------------------------------------------------------------------------


Mechanism = Callable[[Mapping[str, float], object], float]


@dataclass(frozen=True)
class GeneralScm:
    """Per-node deterministic mechanisms driven by independent noises.

    ``mechanisms[v]`` is called as f(parent_values, noise) where
    parent_values maps each declared parent name to its value. Mechanisms
    are elementwise: on parent and noise columns of one shape they return a
    column of that shape (a scalar if they read neither), on scalars a
    scalar, so ``evaluate`` is the one forward pass for one unit or many.
    """

    nodes: tuple[str, ...]
    parents: dict[str, tuple[str, ...]]
    mechanisms: dict[str, Mechanism]
    noises: dict[str, NoiseSpec]
    noise_streams: dict[str, int] = field(default_factory=dict)
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        parents = {v: tuple(ps) for v, ps in self.parents.items()}
        for v in self.nodes:
            parents.setdefault(v, ())
        object.__setattr__(self, "parents", parents)
        missing = [v for v in self.nodes
                   if v not in self.mechanisms or v not in self.noises]
        if missing:
            raise ScmError(f"missing mechanism or noise for {missing}")
        # validates acyclicity and parent names
        object.__setattr__(self, "_order", self.graph().topological_order())

    def graph(self) -> Dag:
        edges = [(p, v) for v in self.nodes for p in self.parents[v]]
        return Dag(self.nodes, edges)

    def _stream(self, node: str) -> int:
        return self.noise_streams.get(node, 0)

    def sample_noise(self, n: int, seed: int) -> dict[str, np.ndarray]:
        return {
            v: _noise_column(self.noises[v], n, seed, k, self._stream(v))
            for k, v in enumerate(self.nodes)
        }

    def evaluate(self, noise_row: Mapping[str, object]) -> dict[str, float]:
        """Deterministic state implied by a full noise assignment (scalars or
        columns): the mechanisms applied in topological order."""
        state: dict[str, float] = {}
        for v in self._order:
            pa = {p: state[p] for p in self.parents[v]}
            state[v] = self.mechanisms[v](pa, noise_row[v])
        return state

    def simulate(self, n: int, seed: int) -> Dataset:
        """``evaluate`` on ``sample_noise(n, seed)``, as rows in node order."""
        if n < 1:
            raise ScmError("need n >= 1 samples")
        state = self.evaluate(self.sample_noise(n, seed))
        rows = np.column_stack([np.broadcast_to(state[v], n) for v in self.nodes])
        return Dataset(self.nodes, rows, seed)


def unit_map(scm: GeneralScm, j: str, noise_value) -> Callable[[Mapping[str, float]], float]:
    """The deterministic section of node ``j``'s mechanism at a fixed noise
    value: a map from parent values to the value of ``j``."""
    if j not in scm.mechanisms:
        raise ScmError(f"unknown node {j!r}")
    mech = scm.mechanisms[j]

    def section(parent_values: Mapping[str, float]) -> float:
        return mech(parent_values, noise_value)

    return section


def structure_preserving_intervention(scm: GeneralScm, j: str,
                                      fresh_seed: int) -> GeneralScm:
    """Replace node ``j``'s noise by an independent copy with the same law.

    The mechanism is untouched, so all dependences on the parents are
    preserved; only the noise stream index changes. A linear model is
    intervened on through ``LinearScm.general()``.
    """
    if not isinstance(scm, GeneralScm):
        raise ScmError(f"unsupported model type {type(scm).__name__}")
    if j not in scm.nodes:
        raise ScmError(f"unknown node {j!r}")
    streams = dict(scm.noise_streams)
    streams[j] = int(fresh_seed)
    return replace(scm, noise_streams=streams)


def exact_joint(scm: GeneralScm):
    """Exact joint of a finite general SCM over all its noise assignments.

    Returns (joint over value indices, levels) where levels maps each node
    to its sorted tuple of attainable values. Requires every noise to have
    finite support, the support product to stay at or below
    ``NOISE_COMBO_CAP`` and every state on the grid to be finite.

    One ``evaluate`` on the whole noise grid (each mechanism runs once, on
    columns of prod_v |atoms_v| rows), then one ``_tabulate`` of the state
    columns. An assignment's weight is the product of its atoms'
    probabilities, multiplied left to right in node order, and each state's
    weights are added in ``itertools.product`` order, so the tables are
    bit-identical to enumerating the assignments one by one.
    """
    supports = [scm.noises[v].support() for v in scm.nodes]
    shape = tuple(len(atoms) for atoms, _ in supports)
    combos = math.prod(shape)
    if combos > NOISE_COMBO_CAP:
        raise ScmError(
            f"noise support product {combos} exceeds enumeration cap {NOISE_COMBO_CAP}")
    grid = np.indices(shape).reshape(len(shape), combos)
    state = scm.evaluate({v: np.asarray(atoms)[index]
                          for v, (atoms, _), index in zip(scm.nodes, supports, grid)})
    columns = {v: np.broadcast_to(state[v], combos) for v in scm.nodes}
    for v in scm._order:
        if not np.isfinite(columns[v]).all():
            raise ScmError(f"node {v!r} takes a non-finite value on the noise grid")
    weights = np.ones(())
    for _, probs in supports:
        weights = np.multiply.outer(weights, probs)
    levels, (joint,) = _tabulate(scm.nodes, [([columns[v] for v in scm.nodes],
                                              weights.ravel())])
    return joint, dict(zip(scm.nodes, levels))
