"""The benchmark's three workloads: inputs, timed op lists and checks.

Each workload is a closed loop in one process: an op starts only after
the previous one has returned.  The benchmark seed reaches only the
input generators here; the library sees nothing but the generated
matrices, vectors and command-line arguments.

A workload object has four steps.  ``setup`` builds the inputs from the
seed (counted in ``setup_s``).  ``fresh`` rebuilds the per-pass matrix
objects outside the timed region, so caches such as a structured
matrix's dense form never carry over from one pass to the next.
``run`` is the timed pass; it catches each op's exception and returns
it as that op's output.  ``check`` turns one pass's outputs into one
:class:`Record` per op, and ``finalize`` runs the checks that need
reference values, after the timed passes and after peak memory has been
read.  ``notes`` gives lines about how the checks ran, for the report.

The library is reached only through module attributes looked up at
call time (``norms.op_norm``, not ``from ... import op_norm``), so the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opschur import analysis, cli, experiments, kernels, matrices, norms, serialize
from opschur.blocks import BlockVector
from opschur.kernels import ScalarSymbol
from opschur.matrices import BlockMatrix
from platform_info import platform_key

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass
class Record:
    """Outcome of one op: passed its checks or not, with a reason."""

    op: str
    ok: bool
    detail: str = ""
    value: float | None = None


def _fail(op: str, detail: str) -> Record:
    return Record(op, False, detail)


def _seeded(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _capture(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return exc


class Workload:
    """Defaults: no reference checks after the passes, no notes."""

    def finalize(self, state: dict, records: list[Record]) -> list[Record]:
        return records

    def notes(self, state: dict) -> list[str]:
        return []


# -- suite ---------------------------------------------------------------


class Suite(Workload):
    """``opschur run --experiment all --format json`` in-process, default sizes.

    One op per experiment file.  An op fails when the run raises or exits
    non-zero, when the file reports a failed assertion, or when the file's
    bytes or assertion verdicts differ from the first pass or from the
    digest recorded for this seed.  The digest table is check-only data:
    it is read at the first check, not in ``setup``.
    """

    name = "suite"

    def setup(self, seed: int, out_dir: Path) -> dict:
        return {
            "argv": ["run", "--experiment", "all", "--format", "json",
                     "--seed", str(seed), "--out", str(out_dir)],
            "seed": seed,
            "out_dir": out_dir,
            "recorded": None,
            "first": None,
        }

    @staticmethod
    def load_digests(state: dict) -> None:
        """Fill ``state["recorded"]`` and say whether digests apply here."""
        table = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        platform = platform_key()
        seed = str(state["seed"])
        if table["platform"] != platform:
            state["recorded"] = {}
            state["digest_note"] = (
                f"no recorded digests apply: recorded on {table['platform']!r}, "
                f"running on {platform!r}; checked against the first pass only")
        elif seed not in table["seeds"]:
            state["recorded"] = {}
            state["digest_note"] = (
                f"no recorded digests for seed {seed}; checked against the first "
                "pass only")
        else:
            state["recorded"] = table["seeds"][seed]
            state["digest_note"] = f"checked against the digests recorded for seed {seed}"

    def notes(self, state: dict) -> list[str]:
        return [state["digest_note"]] if "digest_note" in state else []

    def fresh(self, state: dict):
        state["out_dir"].mkdir(parents=True, exist_ok=True)
        for path in state["out_dir"].glob("*.json"):
            path.unlink()

    def run(self, state: dict, _fresh):
        with contextlib.redirect_stdout(io.StringIO()):
            return _capture(cli.main, state["argv"])

    def check(self, state: dict, _fresh, code) -> list[Record]:
        if state["recorded"] is None:
            self.load_digests(state)
        outputs = {}
        for name in experiments.experiment_names():
            path = state["out_dir"] / f"{name}.json"
            outputs[name] = path.read_bytes() if path.exists() else None
        if state["first"] is None:
            state["first"] = outputs
        return [
            self.check_experiment(state, name, code, data)
            for name, data in outputs.items()
        ]

    @staticmethod
    def check_experiment(state: dict, name: str, code, data: bytes | None) -> Record:
        op = f"suite.{name}"
        if isinstance(code, Exception):
            return _fail(op, f"raised {code!r}")
        if code != 0:
            return _fail(op, f"exit code {code}")
        if data is None:
            return _fail(op, "no output file")
        failing = _failed_assertions(data)
        if failing:
            return _fail(op, f"assertions failed: {failing}")
        first = state["first"][name]
        if data != first:
            verdicts = _verdicts(data)
            if verdicts != _verdicts(first):
                return _fail(op, f"assertion verdicts {verdicts} differ from first pass")
            return _fail(op, "canonical JSON differs from first pass")
        recorded = state["recorded"].get(name)
        if recorded is not None and hashlib.sha256(data).hexdigest() != recorded:
            return _fail(op, "canonical JSON differs from recorded digest")
        return Record(op, True)


def _failed_assertions(data: bytes) -> list[str] | None:
    """Names of the failed assertions, or None when the file reports a pass.

    A file that does not parse, or whose top-level ``passed`` is not true
    with every assertion passed, yields a non-empty list.
    """
    try:
        payload = json.loads(data)
        failing = [a["name"] for a in payload["assertions"] if a["passed"] is not True]
        if payload["passed"] is True and not failing:
            return None
    except (TypeError, ValueError, KeyError) as exc:
        return [f"unreadable result: {exc!r}"]
    return failing or ["top-level passed is false"]


def _verdicts(data: bytes | None):
    try:
        payload = json.loads(data)
        return [(a["name"], a["passed"]) for a in payload["assertions"]]
    except (TypeError, ValueError, KeyError):
        return None


# -- structured-norm -----------------------------------------------------

# (structure, N, d) of the separated class: flat sizes 520..1024, just
# above the exact-SVD limit, so every op takes the power-iteration path.
SEPARATED_SHAPES = (
    ("banded", 260, 2), ("banded", 320, 2), ("banded", 384, 2),
    ("banded", 448, 2), ("banded", 512, 2), ("banded", 130, 4),
    ("banded", 160, 4), ("banded", 192, 4), ("banded", 256, 4),
    ("banded", 300, 2), ("banded", 416, 2), ("banded", 224, 4),
    ("dense", 260, 2), ("dense", 384, 2), ("dense", 512, 2),
    ("dense", 130, 4), ("dense", 192, 4), ("dense", 256, 4),
)
SEPARATED_BAND = (-2, 2)
# The planted block's singular values are PLANT_SCALE * (1, PLANT_SECOND),
# against a background of operator norm about 2, which fixes the gap
# (and so the iteration count) whatever the seed.
PLANT_SCALE = 4.0
PLANT_SECOND = 0.5

# Clustered class: a toeplitz truncation whose symbol is a fixed profile
# times random unitaries.  The unitaries leave the singular values, and
# hence the stall, the same for every seed: the top two singular values
# are ~3e-4 apart relative, so power iteration needs ~7e4 iterations,
# hits its 1e4 cap, and op_norm falls back to the exact path.
CLUSTERED_SHAPE = (260, 2)
CLUSTERED_PROFILE = {l: 0.3 ** abs(l) for l in range(-2, 3)}

NORM_REL_TOL = 1e-7
CERTIFICATE_REL_TOL = 1e-8


@dataclass(frozen=True)
class MatrixSpec:
    """Stored arrays of one input matrix; ``build`` makes a fresh object."""

    label: str
    structure: str
    size: int
    arrays: object

    def build(self) -> BlockMatrix:
        if self.structure == "dense":
            return BlockMatrix.dense(self.arrays)
        if self.structure == "toeplitz":
            return BlockMatrix.toeplitz(self.arrays, self.size)
        return BlockMatrix.banded(self.arrays, self.size)

    def dense_blocks(self) -> np.ndarray:
        """Reference (N, N, d, d) array, assembled without the library."""
        if self.structure == "dense":
            return np.asarray(self.arrays)
        first = next(iter(self.arrays.values()))
        d = first.shape[-1]
        out = np.zeros((self.size, self.size, d, d), dtype=complex)
        for offset, run in self.arrays.items():
            rows = np.arange(max(0, -offset), self.size - max(0, offset))
            out[rows, rows + offset] = run
        return out

    def diagonals(self) -> dict[int, np.ndarray]:
        """Reference map offset -> run of blocks (structured storage).

        A toeplitz diagonal is a run of length one, which broadcasts along
        the diagonal in arithmetic and in :func:`_compare`.
        """
        if self.structure == "toeplitz":
            return {l: block[None] for l, block in self.arrays.items()}
        return dict(self.arrays)


def _separated(rng, structure: str, size: int, dim: int) -> MatrixSpec:
    plant = PLANT_SCALE * (
        _unitary(rng, dim) @ np.diag(np.linspace(1.0, PLANT_SECOND, dim))
        @ _unitary(rng, dim)
    )
    slot = int(rng.integers(size))
    if structure == "dense":
        blocks = _gaussian(rng, (size, size, dim, dim)) / math.sqrt(size * dim)
        blocks[slot, slot] += plant
        return MatrixSpec(f"dense {size}x{dim}", "dense", size, blocks)
    lo, hi = SEPARATED_BAND
    width = (hi - lo + 1) * dim
    diags = {
        l: _gaussian(rng, (size - abs(l), dim, dim)) / math.sqrt(width)
        for l in range(lo, hi + 1)
    }
    diags[0][slot] += plant
    return MatrixSpec(f"banded {size}x{dim}", "banded", size, diags)


def _clustered(rng) -> MatrixSpec:
    size, dim = CLUSTERED_SHAPE
    left, right = _unitary(rng, dim), _unitary(rng, dim)
    spread = np.diag(np.linspace(1.0, 0.7, dim))
    angle = float(rng.uniform(-math.pi, math.pi))
    coeffs = {
        l: c * np.exp(1j * l * angle) * (left @ spread @ right)
        for l, c in CLUSTERED_PROFILE.items()
    }
    return MatrixSpec(f"clustered toeplitz {size}x{dim}", "toeplitz", size, coeffs)


class StructuredNorm(Workload):
    """Certified ``op_norm`` of structured matrices above the exact limit.

    Each op is checked twice: ``|apply(a, certificate)|`` must reproduce
    the value (in the pass), so the value is at most the norm, and a
    dense reference assembled by the benchmark must have no larger norm
    (in ``finalize``, outside the timed region).
    """

    name = "structured-norm"

    def setup(self, seed: int, _out_dir: Path) -> dict:
        rng = _seeded(seed, 1)
        specs = [_separated(rng, *shape) for shape in SEPARATED_SHAPES]
        specs.append(_clustered(rng))
        return {"specs": specs}

    def fresh(self, state: dict) -> list[BlockMatrix]:
        return [spec.build() for spec in state["specs"]]

    def run(self, _state: dict, fresh: list[BlockMatrix]) -> list:
        return [_capture(norms.op_norm, a) for a in fresh]

    def check(self, state: dict, fresh, outputs) -> list[Record]:
        return [
            self.check_norm(spec.label, a, estimate)
            for spec, a, estimate in zip(state["specs"], fresh, outputs)
        ]

    @staticmethod
    def check_norm(label: str, a: BlockMatrix, estimate) -> Record:
        op = f"op_norm {label}"
        if isinstance(estimate, Exception):
            return _fail(op, f"raised {estimate!r}")
        value = float(estimate.value)
        certificate = estimate.certificate
        if not (math.isfinite(value) and value > 0 and isinstance(certificate, BlockVector)):
            return _fail(op, f"bad estimate {estimate!r}")
        if abs(certificate.norm() - 1.0) > 1e-10:
            return _fail(op, f"certificate norm {certificate.norm()}")
        witnessed = matrices.apply(a, certificate).norm()
        if abs(witnessed - value) > CERTIFICATE_REL_TOL * value:
            return _fail(op, f"value {value!r} but |a v| = {witnessed!r}")
        return Record(op, True, value=value)

    def finalize(self, state: dict, records: list[Record]) -> list[Record]:
        specs = {spec.label: spec for spec in state["specs"]}
        bounded = {}
        checked = []
        for record in records:
            if record.ok:
                key = (record.op, record.value)
                if key not in bounded:
                    spec = specs[record.op.removeprefix("op_norm ")]
                    bounded[key] = self.bounds_norm(spec, record.value)
                if not bounded[key]:
                    record = _fail(record.op, f"value {record.value!r} is below the norm "
                                              f"by more than {NORM_REL_TOL:g} relative")
            checked.append(record)
        return checked

    @staticmethod
    def bounds_norm(spec: MatrixSpec, value: float) -> bool:
        """Whether ``|A| <= value * (1 + NORM_REL_TOL)`` for a dense reference.

        That holds exactly when ``c I - A* A`` with
        ``c = (value * (1 + NORM_REL_TOL))**2`` is positive definite, which
        a Cholesky factorization (LAPACK) decides at a fraction of the cost
        of the eigenvalues.  With the certificate check ``|A v| = value``
        it pins the value to the norm within ``NORM_REL_TOL``.
        """
        blocks = spec.dense_blocks()
        n, d = blocks.shape[0], blocks.shape[2]
        flat = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
        bound = (value * (1 + NORM_REL_TOL)) ** 2
        try:
            np.linalg.cholesky(bound * np.eye(n * d) - flat.conj().T @ flat)
        except np.linalg.LinAlgError:
            return False
        return True


# -- calculus ------------------------------------------------------------

CALCULUS_SIZE = 4096
CALCULUS_DENSE_SIZE = 128
CALCULUS_DIM = 2
CALCULUS_GROUPS = 6
PAYLOAD_BAND = (-1, 1)
CALCULUS_TOL = 1e-12


def _random_spec(rng, structure: str, size: int, dim: int, lo: int, hi: int,
                 label: str) -> MatrixSpec:
    """Gaussian blocks on offsets ``lo..hi``, decaying away from the diagonal."""
    if structure == "dense":
        blocks = _gaussian(rng, (size, size, dim, dim))
        if lo >= 0:
            blocks = blocks * (np.arange(size)[None, :] >= np.arange(size)[:, None]
                               )[:, :, None, None]
        return MatrixSpec(label, "dense", size, blocks)
    if structure == "toeplitz":
        coeffs = {l: 0.9 ** abs(l) * _gaussian(rng, (dim, dim)) for l in range(lo, hi + 1)}
        return MatrixSpec(label, "toeplitz", size, coeffs)
    diags = {l: 0.7 ** abs(l) * _gaussian(rng, (size - abs(l), dim, dim))
             for l in range(lo, hi + 1)}
    return MatrixSpec(label, "banded", size, diags)


# Per structure: bands of the two general operands and of the upper one
# (dense bands span all of N = CALCULUS_DENSE_SIZE).
CALCULUS_BANDS = {
    "banded": ((-3, 3), (-2, 4), (0, 5)),
    "toeplitz": ((-20, 20), (-10, 30), (0, 24)),
    "dense": ((-127, 127), (-127, 127), (0, 127)),
}


class Calculus(Workload):
    """Schur calculus without norms, plus one payload round trip per pass.

    Every output is checked diagonal by diagonal against references the
    benchmark computes from the stored input arrays, and ``apply`` and
    ``adjoint`` against ``<A x, y> = <x, A* y>``; nothing is densified
    beyond the dense inputs themselves.
    """

    name = "calculus"

    def setup(self, seed: int, _out_dir: Path) -> dict:
        rng = _seeded(seed, 2)
        groups = []
        for group in range(CALCULUS_GROUPS):
            for structure, bands in CALCULUS_BANDS.items():
                size = CALCULUS_DENSE_SIZE if structure == "dense" else CALCULUS_SIZE
                a, b, upper = (
                    _random_spec(rng, structure, size, CALCULUS_DIM, lo, hi,
                                 f"{structure}{group}.{role}")
                    for (lo, hi), role in zip(bands, ("a", "b", "upper"))
                )
                x = _gaussian(rng, (size, CALCULUS_DIM))
                y = _gaussian(rng, (size, CALCULUS_DIM))
                params = {
                    "fejer": int(rng.integers(4, 16)),
                    "poisson": float(rng.uniform(0.5, 0.95)),
                    "angle": float(rng.uniform(-math.pi, math.pi)),
                    "z": complex(rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(-math.pi, math.pi))),
                    "truncate": int(rng.integers(size // 4, 3 * size // 4)),
                }
                groups.append({"a": a, "b": b, "upper": upper, "x": x, "y": y,
                               "params": params})
        lo, hi = PAYLOAD_BAND
        payload = _random_spec(rng, "banded", CALCULUS_SIZE, CALCULUS_DIM, lo, hi,
                               "payload")
        return {"groups": groups, "payload": payload}

    def fresh(self, state: dict) -> dict:
        return {
            "groups": [
                {
                    "a": g["a"].build(), "b": g["b"].build(), "upper": g["upper"].build(),
                    "x": BlockVector(g["x"]), "y": BlockVector(g["y"]),
                }
                for g in state["groups"]
            ],
            "payload": state["payload"].build(),
        }

    def run(self, state: dict, fresh: dict) -> list:
        outputs = []
        for spec, objects in zip(state["groups"], fresh["groups"]):
            a, b, upper, x = objects["a"], objects["b"], objects["upper"], objects["x"]
            p = spec["params"]
            outputs += [
                _capture(matrices.schur_product, a, b),
                _capture(kernels.smooth, a, ScalarSymbol.fejer(p["fejer"])),
                _capture(kernels.smooth, a, ScalarSymbol.poisson(p["poisson"])),
                _capture(analysis.modulate, a, p["angle"]),
                _capture(analysis.analytic_eval, upper, p["z"]),
                _capture(matrices.adjoint, a),
                _capture(lambda: a - b),
                _capture(matrices.truncate, a, p["truncate"]),
                _capture(matrices.apply, a, x),
            ]
        outputs.append(_capture(_round_trip, fresh["payload"]))
        return outputs

    OPS = ("schur_product", "smooth_fejer", "smooth_poisson", "modulate",
           "analytic_eval", "adjoint", "difference", "truncate", "apply")

    def check(self, state: dict, fresh: dict, outputs: list) -> list[Record]:
        records = []
        width = len(self.OPS)
        for index, (spec, objects) in enumerate(zip(state["groups"], fresh["groups"])):
            group_outputs = outputs[index * width:(index + 1) * width]
            for op, output in zip(self.OPS, group_outputs):
                records.append(self.check_op(op, spec, objects, output))
        records.append(self.check_round_trip(state["payload"], outputs[-1]))
        return records

    @staticmethod
    def check_op(op: str, spec: dict, objects: dict, output) -> Record:
        label = f"{op} {spec['a'].label}"
        if isinstance(output, Exception):
            return _fail(label, f"raised {output!r}")
        try:
            if op == "apply":
                return _check_apply(label, spec["a"], spec["x"], output)
            if op == "adjoint" and not _adjoint_identity(objects, output):
                return _fail(label, "<A x, y> != <x, A* y>")
            return _compare(label, output, _expected(op, spec))
        except (ValueError, IndexError, TypeError, AttributeError) as exc:
            return _fail(label, f"check raised {exc!r}")

    @staticmethod
    def check_round_trip(spec: MatrixSpec, output) -> Record:
        label = "payload round trip"
        if isinstance(output, Exception):
            return _fail(label, f"raised {output!r}")
        matrix, text = output
        if matrix.structure != spec.structure or not text.endswith("\n"):
            return _fail(label, f"structure {matrix.structure}")
        return _compare(label, matrix, spec.diagonals(), exact=True)


def _round_trip(matrix: BlockMatrix):
    text = serialize.dumps_canonical(serialize.matrix_to_payload(matrix))
    return serialize.matrix_from_payload(json.loads(text)), text


def _expected(op: str, spec: dict):
    """Reference result: a full (N, N, d, d) array for dense inputs, else a
    map offset -> diagonal run."""
    p = spec["params"]
    a, b = spec["a"], spec["b"]
    scalings = {
        "smooth_fejer": (a, lambda l: np.maximum(0.0, 1 - np.abs(l) / (p["fejer"] + 1))),
        "smooth_poisson": (a, lambda l: p["poisson"] ** np.abs(l)),
        "modulate": (a, lambda l: np.exp(1j * l * p["angle"])),
        "analytic_eval": (spec["upper"],
                          lambda l: np.where(l >= 0, p["z"] ** np.maximum(l, 0), 0)),
    }
    if op in scalings:
        source, weight = scalings[op]
        return _scaled(source, weight)
    m = p["truncate"]
    if a.structure == "dense":
        if op == "schur_product":
            return a.arrays @ b.arrays
        if op == "adjoint":
            return a.arrays.transpose(1, 0, 3, 2).conj()
        if op == "difference":
            return a.arrays - b.arrays
        return a.arrays[:m, :m]
    runs_a, runs_b = a.diagonals(), b.diagonals()
    if op == "schur_product":
        return {l: run @ runs_b[l] for l, run in runs_a.items() if l in runs_b}
    if op == "adjoint":
        return {-l: run.conj().transpose(0, 2, 1) for l, run in runs_a.items()}
    if op == "difference":
        return {l: runs_a.get(l, 0) - runs_b.get(l, 0) for l in set(runs_a) | set(runs_b)}
    return {l: run[:m - abs(l)] for l, run in runs_a.items() if abs(l) < m}


def _scaled(spec: MatrixSpec, weight):
    """Entry ``(k, j)`` of ``spec`` scaled by ``weight(j - k)``."""
    if spec.structure == "dense":
        index = np.arange(spec.size)
        return spec.arrays * weight(index[None, :] - index[:, None])[:, :, None, None]
    return {l: weight(np.array(l)) * run for l, run in spec.diagonals().items()}


def _compare(label: str, result, expected, exact: bool = False) -> Record:
    """Compare ``result`` with a full reference array or with every stored
    or expected diagonal; a diagonal missing on either side reads as zero."""
    if not isinstance(result, BlockMatrix):
        return _fail(label, f"result is {type(result).__name__}")
    if isinstance(expected, np.ndarray):
        pairs = [("all", result.blocks(), expected)]
    else:
        pairs = []
        for offset in sorted(set(expected) | set(result.diagonal_support())):
            got = result.diagonal_run(offset)
            want = expected.get(offset)
            if want is None:
                want = np.zeros_like(got)
            elif want.shape[0] == 1 and want.shape[1:] == got.shape[1:]:
                want = np.broadcast_to(want, got.shape)
            pairs.append((offset, got, want))
    for where, got, want in pairs:
        if got.shape != want.shape:
            return _fail(label, f"diagonal {where}: shape {got.shape} != {want.shape}")
        error = float(np.max(np.abs(got - want))) if got.size else 0.0
        scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
        if error > (0.0 if exact else CALCULUS_TOL * scale):
            return _fail(label, f"diagonal {where}: error {error:.3e}")
    return Record(label, True)


def _check_apply(label: str, spec: MatrixSpec, x: np.ndarray, output) -> Record:
    if not isinstance(output, BlockVector):
        return _fail(label, f"result is {type(output).__name__}")
    if spec.structure == "dense":
        want = np.einsum("kjab,jb->ka", spec.arrays, x)
        terms = spec.size
    else:
        want = np.zeros_like(x)
        runs = spec.diagonals()
        for offset, run in runs.items():
            rows = np.arange(max(0, -offset), spec.size - max(0, offset))
            want[rows] += (run @ x[rows + offset, :, None])[:, :, 0]
        terms = len(runs)
    error = float(np.max(np.abs(output.parts - want)))
    if error > CALCULUS_TOL * max(1.0, float(np.max(np.abs(want)))) * terms:
        return _fail(label, f"error {error:.3e}")
    return Record(label, True)


def _adjoint_identity(objects: dict, adjoint_matrix: BlockMatrix) -> bool:
    a, x, y = objects["a"], objects["x"], objects["y"]
    lhs = matrices.apply(a, x).inner(y)
    rhs = x.inner(matrices.apply(adjoint_matrix, y))
    return abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


WORKLOADS = {w.name: w for w in (Suite, StructuredNorm, Calculus)}
