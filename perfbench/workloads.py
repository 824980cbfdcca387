"""The benchmark's workloads: seeded inputs, the operations sent to the
program, and the checks applied to what comes back.

tables    The paper's headline task: ``gf2to1 tables`` for Tables I, II (with
          the n=7 trinomial run) and III, in process through ``cli.main`` with
          two workers.  Most of its time is the search scan and the split over
          worker processes; QM canonicalization is a small share (Table III at
          n=5/6), so a scan or sharding change shows here and a
          canonicalization change barely moves it.  Its inputs are the
          paper's fixed tables, so the seed does not change them.
classify  Canonicalization-heavy, with little scanning: QM-deduplicated
          binomial and quadrinomial searches at n=5,6, then ``qm_canonical``
          on seeded random 2-4 term polynomials at n=7.  The two parts differ
          in how much work the inputs share: most search hits are orbit-mates
          of an earlier hit, while the random batch shares none.  Dedupe by
          orbit should move the first part only; a faster per-call canonical
          form should move both.  The n=7 binomial and quadrinomial searches
          take over a minute each and are left out; the n=7 batch covers
          their mechanism.
verify    The only workload for ``poly`` and ``lowdeg``; it bypasses
          ``search`` and QM entirely.  It runs the fiber kernel both ways:
          full scans of large fields (the family grid up to n=17) and
          early-exit scans of many random candidates (n=12..17, where one
          ``mul_table`` build dominates a call), plus the resultant
          identities, the lemma engines and curve point counts.

Every check uses a reference that does not come from the code path being
timed: pinned digests and class counts, the benchmark's own shift-and-xor
arithmetic (gfref, which also computes QM canonical forms from their
definition), or a different function of the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import gfref

DEFAULT_SEED = 1
WORKLOADS = ("tables", "classify", "verify")
LITERAL_FULL_MAX_N = 12  # random verdicts get a complete literal fiber count up to here
HISTOGRAM_MAX_N = 14  # and a preimage_histogram check up to here, which keeps checks short


def _family_grid(max_n: int) -> tuple[tuple[str, int], ...]:
    grid = [("tri_I", n) for n in (4, 6, 8, 10, 12, 14, 16)]
    grid += [("tri_II", n) for n in (6, 10, 14)]
    grid += [(f"quad_{i:02d}", n) for i in range(1, 11) for n in range(3, 18, 2)]
    grid += [("quad_11", n) for n in (3, 6, 9, 12, 15)]
    grid += [("quad_12", n) for n in (6, 9, 15)]
    return tuple((t, n) for t, n in grid if n <= max_n)


@dataclass(frozen=True)
class Config:
    """Sizes of every workload, with the reference values pinned for them."""

    table_runs: tuple[tuple[tuple[str, ...], str], ...]  # (cli argv, sha256 of the document)
    table_ns: tuple[int, ...]
    searches: tuple[tuple[str, int, int], ...]  # (shape, n, classes)
    canon_n: int
    canon_count: int
    grid: tuple[tuple[str, int], ...]
    check_ns: tuple[int, ...]
    check_per_n: int
    identity_ns: tuple[int, ...]
    lemmas: tuple[tuple[str, int], ...]
    points_n: int
    points_pins: dict = field(default_factory=dict)  # (a3, a2, a1) -> count, default seed
    par_eff: tuple[str, int] = ("trinomial", 7)


FULL = Config(
    table_runs=(
        (("tables", "--which", "I"),
         "5077aa6acb6efc5cc27d92960e81a06e6cdde0a218e3481aa70fb3b33b75214a"),
        (("tables", "--which", "II", "--long"),
         "e3b64de8583a2203a3c1dd860d1273eb21debafb094e7895929484fdc77491eb"),
        (("tables", "--which", "III"),
         "1bc6a8ebee5931ac04a7a947b39c27eacef80540da45cb0735046773178c6ebf"),
    ),
    table_ns=(3, 4, 5, 6, 7),
    searches=(("binomial", 5, 4), ("binomial", 6, 1), ("quadrinomial", 5, 82),
              ("quadrinomial", 6, 22)),
    canon_n=7,
    canon_count=100,
    grid=_family_grid(17),
    check_ns=(12, 13, 14, 15, 16, 17),
    check_per_n=30,
    identity_ns=(3, 5, 7, 9),
    lemmas=(("2.4", 8), ("2.5", 8), ("2.6", 6)),
    points_n=8,
    points_pins={(214, 86, 151): 278, (224, 134, 88): 252},
)

# n <= 5 everywhere: for the benchmark's own smoke tests
TINY = Config(
    table_runs=(
        (("tables", "--which", "I"), FULL.table_runs[0][1]),
        (("tables", "--which", "II", "--n-max", "4"),
         "c4fd77c8ab37c2ac003c879f400907d3adfa09a721ae0cbf3121b84b8deb01d6"),
        (("tables", "--which", "III", "--n-max", "4"),
         "adcc65043b41ff969b4b4649670b0ddc263fd5de96fa7654795162f5672f3e11"),
    ),
    table_ns=(3, 4),
    searches=(("binomial", 5, 4), ("quadrinomial", 5, 82)),
    canon_n=5,
    canon_count=12,
    grid=_family_grid(5),
    check_ns=(4, 5),
    check_per_n=6,
    identity_ns=(3, 5),
    lemmas=(("2.4", 3), ("2.5", 3), ("2.6", 3)),
    points_n=4,
    par_eff=("trinomial", 5),
)


def _random_terms(rng: random.Random, n: int, k: int) -> list[list[int]]:
    q = 1 << n
    exps = rng.sample(range(1, q - 1), k)
    return sorted(([e, rng.randrange(1, q)] for e in exps), reverse=True)


def build(workload: str, seed: int, cfg: Config, traced: bool = False):
    """(field degrees used, operations) for one pass of the workload.

    Tables run with two workers, or with one when traced: spans from forked
    workers are not collected.
    An operation is a JSON-ready dict; ``batch`` marks the calls whose
    per-call latency the detail record reports.  Numbers of terms cycle through
    2, 3, 4 so that every seed has the same mix.  The operations of classify
    and verify run in a seeded random order: the batch calls then spread over
    the whole pass, so their latency samples the same stretch of a shared,
    drifting machine as the pass wall time does.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        w = "1" if traced else "2"
        # the batch is the Table II run, the headline search
        ops = [
            {"kind": "cli", "argv": [*argv, "--workers", w, "--format", "json"], "batch": i == 1}
            for i, (argv, _) in enumerate(cfg.table_runs)
        ]
        return list(cfg.table_ns), ops
    if workload == "classify":
        ops = [{"kind": "search", "shape": s, "n": n} for s, n, _ in cfg.searches]
        ops += [
            {"kind": "canonical", "n": cfg.canon_n,
             "terms": _random_terms(rng, cfg.canon_n, 2 + i % 3), "batch": True}
            for i in range(cfg.canon_count)
        ]
        rng.shuffle(ops)
        return sorted({op["n"] for op in ops}), ops
    if workload == "verify":
        ops = [{"kind": "family", "tag": t, "n": n} for t, n in cfg.grid]
        ops += [
            {"kind": "check", "n": n, "terms": _random_terms(rng, n, 2 + i % 3), "batch": True}
            for n in cfg.check_ns
            for i in range(cfg.check_per_n)
        ]
        ops += [{"kind": "identity", "theorem": t, "n": n}
                for n in cfg.identity_ns for t in range(1, 7)]
        ops += [{"kind": "lemma", "which": w, "n": n} for w, n in cfg.lemmas]
        q = 1 << cfg.points_n
        ops += [
            {"kind": "points", "n": cfg.points_n,
             "coeffs": [rng.randrange(q), rng.randrange(q), rng.randrange(1, q)]}
            for _ in range(2)
        ]
        rng.shuffle(ops)
        return sorted({op["n"] for op in ops}), ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks each operation's output; a failure is described, never raised."""

    def __init__(self, workload: str, seed: int, cfg: Config):
        import gf2to1

        self.gf = gf2to1
        self.cfg = cfg
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.fields: dict[int, object] = {}
        self.pins = {" ".join(argv): pin for argv, pin in cfg.table_runs}
        self.classes = {(s, n): c for s, n, c in cfg.searches}

    def field(self, n: int):
        if n not in self.fields:
            self.fields[n] = self.gf.make_field(n)
        return self.fields[n]

    def check(self, op: dict, res: dict) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if res["error"] is not None:
            return f"{op['kind']} raised {res['error']}"
        out = res["out"]
        try:
            return getattr(self, "_" + op["kind"])(op, out)
        except Exception as exc:  # a malformed output is a failure, not a crash
            return f"{op['kind']} output could not be checked: {type(exc).__name__}: {exc}"

    def _cli(self, op, out):
        argv = " ".join(op["argv"][:-4])  # without the --workers and --format flags
        if out["rc"] != 0:
            return f"{argv}: exit code {out['rc']}"
        doc = json.loads(out["doc"])
        if not doc["ok"] or not all(r["diff"]["ok"] for r in doc["results"]):
            return f"{argv}: a table diff is not ok"
        digest = hashlib.sha256(out["doc"].encode()).hexdigest()
        pin = self.pins[argv]
        if digest != pin:
            return f"{argv}: document sha256 {digest} != pinned {pin}"
        return None

    def _canonical_error(self, n: int, terms, canon) -> str | None:
        """What is wrong with canon as the canonical form of terms, or None.

        canon must equal gfref's canonical form, and the package must give it
        again for a random a*f(b*x^d).
        """
        ctx = self.field(n)
        canon = [list(t) for t in canon]
        want = gfref.canonical(terms, n, ctx.modulus)
        if canon != want:
            return f"{canon}, reference canonical {want}"
        N = ctx.order - 1
        d = self.rng.choice([d for d in range(1, N) if math.gcd(d, N) == 1])
        a, b = self.rng.randrange(1, ctx.order), self.rng.randrange(1, ctx.order)
        moved = gfref.transform(terms, a, b, d, n, ctx.modulus)
        got = [list(t) for t in self.gf.qm_canonical(self.gf.SparsePoly.make(ctx, moved)).terms]
        if got != canon:
            return f"{canon}, but {got} for its transform {moved}"
        return None

    def _search(self, op, out):
        want = self.classes[(op["shape"], op["n"])]
        if len(out["classes"]) != want:
            return f"{op['shape']} n={op['n']}: {len(out['classes'])} classes, want {want}"
        for canon in out["classes"]:
            err = self._canonical_error(op["n"], canon, canon)
            if err is not None:
                return f"{op['shape']} n={op['n']}: class is not a canonical form: {err}"
        return None

    def _canonical(self, op, out):
        err = self._canonical_error(op["n"], op["terms"], out)
        return None if err is None else f"canonical of {op['terms']} at n={op['n']}: {err}"

    def _family(self, op, out):
        return None if out is True else f"family {op['tag']} n={op['n']} not verified 2-to-1"

    def _check(self, op, out):
        n, terms = op["n"], op["terms"]
        ctx = self.field(n)
        literal = gfref.two_to_one(terms, n, ctx.modulus, early_exit=n > LITERAL_FULL_MAX_N)
        if out != literal:
            return f"is_two_to_one {terms} at n={n}: {out}, literal fiber count says {literal}"
        if n <= HISTOGRAM_MAX_N:
            hist = self.gf.preimage_histogram(self.gf.SparsePoly.make(ctx, terms)).is_two_to_one
            if out != hist:
                return f"is_two_to_one {terms} at n={n}: {out}, preimage_histogram says {hist}"
        return None

    def _identity(self, op, out):
        return None if out is True else f"identity {op['theorem']} fails at n={op['n']}"

    def _lemma(self, op, out):
        q = 1 << op["n"]
        want = (q - 1) ** 2 * q if op["which"] == "2.6" else (q - 1) * q
        if not out["ok"] or out["checked"] != want:
            return f"lemma {op['which']} n={op['n']}: ok={out['ok']} checked={out['checked']}, want {want}"
        return None

    def _points(self, op, out):
        n = op["n"]
        ctx = self.field(n)
        curve = self.gf.two2one.point_count_curve(ctx, *op["coeffs"])
        ref = gfref.count_quadratic_in_x([c.coeffs for c in curve.ycoeffs], n, ctx.modulus)
        if out != ref:
            return f"point count {op['coeffs']} at n={n}: {out}, reference {ref}"
        want = self.cfg.points_pins.get(tuple(op["coeffs"]))
        if want is not None and out != want:
            return f"point count {op['coeffs']} at n={n}: {out}, pinned {want}"
        return None
